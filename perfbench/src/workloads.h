#ifndef SARGUS_PERFBENCH_WORKLOADS_H_
#define SARGUS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace sargus::perfbench {

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end, filling `report`. Returns false for an
/// unknown workload name.
bool RunWorkload(const Args& args, Report& report);

}  // namespace sargus::perfbench

#endif  // SARGUS_PERFBENCH_WORKLOADS_H_
