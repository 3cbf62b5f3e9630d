/// sargus end-to-end benchmark driver.
///
///   sargus_perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--work-dir <dir>]
///
/// Runs one named workload against the library's public API with default
/// options, checks every decision it can, and prints progress lines
/// ("# ...") followed by one JSON result line. --trace 0 reports the
/// end-to-end metrics; --trace 1 is the traced run, which records spans
/// around each call into a library layer, reports the per-layer metrics
/// and the tracing overhead, and writes the spans to
/// <work-dir>/<workload>.trace.tsv. Exits 1 when a correctness gate
/// fails, 2 on a usage or set-up error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace {

using sargus::perfbench::Args;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "sargus_perfbench: %s\nusage: sargus_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\nworkloads:",
               why);
  for (const std::string& w : sargus::perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds >= 1 && a.seconds <= 60)) {
    Usage("--seconds must be between 1 and 60");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  // A hung run must not outlive the harness's 180 s budget.
  alarm(170);
  std::filesystem::create_directories(args.work_dir);
  sargus::perfbench::trace::SetEnabled(args.trace);
  sargus::perfbench::Log("workload %s seed %llu seconds %g trace %d",
                         args.workload.c_str(),
                         static_cast<unsigned long long>(args.seed),
                         args.seconds, args.trace ? 1 : 0);
  sargus::perfbench::Report report;
  if (!sargus::perfbench::RunWorkload(args, report)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) {
    const std::string path =
        args.work_dir + "/" + args.workload + ".trace.tsv";
    sargus::perfbench::trace::SetEnabled(false);
    if (!sargus::perfbench::trace::Flush(path)) {
      std::fprintf(stderr, "sargus_perfbench: cannot write %s\n",
                   path.c_str());
      return 2;
    }
    sargus::perfbench::Log("spans written to %s", path.c_str());
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
