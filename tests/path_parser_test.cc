#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "core/path_parser.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

// One expression per grammar feature: multi-step paths, ranges, inverse
// steps, filters with several conditions, the hop cap.
constexpr const char* kCanonicalCases[] = {
    "friend[1]",
    "friend[1,2]/colleague[1]",
    "friend-[1,2]",
    "friend[1]{age>=18}",
    "friend[2,4]/colleague-[1,3]{age>=18,trust<50}/family[1]",
    "l5[1,64]",
};

TEST(PathParser, SingleStepShorthand) {
  auto e = ParsePathExpression("friend[1]");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_EQ(e->steps().size(), 1u);
  EXPECT_EQ(e->steps()[0].label, "friend");
  EXPECT_EQ(e->steps()[0].min_hops, 1u);
  EXPECT_EQ(e->steps()[0].max_hops, 1u);
  EXPECT_FALSE(e->steps()[0].backward);
}

TEST(PathParser, PaperQ1) {
  auto e = ParsePathExpression("friend[1,2]/colleague[1]");
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e->steps().size(), 2u);
  EXPECT_EQ(e->steps()[0].label, "friend");
  EXPECT_EQ(e->steps()[0].min_hops, 1u);
  EXPECT_EQ(e->steps()[0].max_hops, 2u);
  EXPECT_EQ(e->steps()[1].label, "colleague");
  EXPECT_EQ(e->steps()[1].max_hops, 1u);
}

TEST(PathParser, BackwardStep) {
  auto e = ParsePathExpression("friend-[1,2]");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->steps()[0].backward);
  EXPECT_EQ(e->steps()[0].min_hops, 1u);
  EXPECT_EQ(e->steps()[0].max_hops, 2u);
}

TEST(PathParser, AttributeFilter) {
  auto e = ParsePathExpression("friend[1]{age>=18}");
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e->steps()[0].conditions.size(), 1u);
  const AttrCondition& c = e->steps()[0].conditions[0];
  EXPECT_EQ(c.attr, "age");
  EXPECT_EQ(c.op, CmpOp::kGe);
  EXPECT_EQ(c.value, 18);
}

TEST(PathParser, MultiConditionFilterAndAllOps) {
  auto e = ParsePathExpression(
      "friend[1]{age>=18,age<=30,trust>5,trust<90,age==25,age!=40}");
  ASSERT_TRUE(e.ok());
  const auto& conds = e->steps()[0].conditions;
  ASSERT_EQ(conds.size(), 6u);
  EXPECT_EQ(conds[0].op, CmpOp::kGe);
  EXPECT_EQ(conds[1].op, CmpOp::kLe);
  EXPECT_EQ(conds[2].op, CmpOp::kGt);
  EXPECT_EQ(conds[3].op, CmpOp::kLt);
  EXPECT_EQ(conds[4].op, CmpOp::kEq);
  EXPECT_EQ(conds[5].op, CmpOp::kNe);
}

TEST(PathParser, WhitespaceTolerated) {
  auto e = ParsePathExpression("  friend [ 1 , 2 ] / colleague [ 1 ] ");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->ToString(), "friend[1,2]/colleague[1]");
}

TEST(PathParser, CanonicalRoundTrip) {
  for (const char* text : kCanonicalCases) {
    auto e1 = ParsePathExpression(text);
    ASSERT_TRUE(e1.ok()) << text << ": " << e1.status().ToString();
    const std::string canon = e1->ToString();
    auto e2 = ParsePathExpression(canon);
    ASSERT_TRUE(e2.ok()) << canon;
    EXPECT_EQ(*e1, *e2) << text;
    EXPECT_EQ(canon, e2->ToString());
  }
}

TEST(PathParser, RejectsMalformedWithInvalidArgument) {
  const char* cases[] = {
      "",                        // empty
      "   ",                     // blank
      "friend",                  // missing bounds
      "friend[",                 // unterminated
      "friend[]",                // no bounds
      "friend[a]",               // non-numeric
      "friend[0]",               // zero hops
      "friend[0,2]",             // zero lower bound
      "friend[3,2]",             // empty range
      "friend[1,65]",            // beyond cap (kMaxHopBound = 64)
      "friend[-1]",              // negative
      "friend[1]/",              // trailing separator
      "/friend[1]",              // leading separator
      "friend[1]colleague[1]",   // missing separator
      "friend[1]{",              // unterminated filter
      "friend[1]{age}",          // missing operator
      "friend[1]{age>=}",        // missing value
      "friend[1]{age=18}",       // bad operator
      "friend[1]{>=18}",         // missing attribute
      "friend[1]{age>=18",       // unterminated filter
      "friend[1]{age>=18,}",     // dangling comma
      "fri end[1]",              // split identifier
      "friend[1,2,3]",           // too many bounds
      "123[1]",                  // label must start alphabetic
  };
  for (const char* text : cases) {
    auto e = ParsePathExpression(text);
    EXPECT_FALSE(e.ok()) << "accepted: '" << text << "'";
    if (!e.ok()) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
          << text << " -> " << e.status().ToString();
    }
  }
}

TEST(PathParser, MutationFuzz20k) {
  // Seeded flips, inserts, deletes and truncations of the canonical
  // expressions. Every input is either accepted or rejected with
  // kInvalidArgument, and every accepted expression round-trips through
  // its canonical text to an equal AST.
  constexpr char kAlphabet[] = "[]{},/-<>=!0123456789az_ \t";
  Rng rng(0x9A25E);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text =
        kCanonicalCases[rng.NextBounded(std::size(kCanonicalCases))];
    const uint64_t mutations = 1 + rng.NextBounded(4);
    for (uint64_t m = 0; m < mutations; ++m) {
      // Mostly grammar characters, so mutants get past the first token;
      // sometimes an arbitrary byte.
      const char c = rng.NextBool(0.9)
                         ? kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]
                         : static_cast<char>(rng.NextU64());
      switch (rng.NextBounded(4)) {
        case 0:  // flip one bit
          if (!text.empty()) {
            text[rng.NextBounded(text.size())] ^=
                static_cast<char>(1u << rng.NextBounded(8));
          }
          break;
        case 1:  // insert one character
          text.insert(text.begin() +
                          static_cast<ptrdiff_t>(
                              rng.NextBounded(text.size() + 1)),
                      c);
          break;
        case 2:  // delete one character
          if (!text.empty()) {
            text.erase(static_cast<size_t>(rng.NextBounded(text.size())), 1);
          }
          break;
        default:  // truncate
          text.resize(rng.NextBounded(text.size() + 1));
          break;
      }
    }
    auto e = ParsePathExpression(text);
    if (!e.ok()) {
      ++rejected;
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
          << "'" << text << "' -> " << e.status().ToString();
      continue;
    }
    ++accepted;
    const std::string canon = e->ToString();
    auto again = ParsePathExpression(canon);
    ASSERT_TRUE(again.ok()) << "'" << text << "' -> '" << canon
                            << "': " << again.status().ToString();
    EXPECT_EQ(*e, *again) << "'" << text << "' -> '" << canon << "'";
  }
  // Both outcomes occurred: the mutants were neither all trivially
  // broken nor all harmless.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(PathParser, RejectsOutOfRangeFilterLiterals) {
  // strtoll would silently saturate; the parser must reject instead.
  auto e = ParsePathExpression("friend[1]{trust>=9223372036854775808}");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e.status().message().find("out of 64-bit range"),
            std::string::npos);
  // The boundary value itself is fine.
  auto ok = ParsePathExpression("friend[1]{trust<=9223372036854775807}");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->steps()[0].conditions[0].value, INT64_MAX);
}

TEST(PathParser, ErrorMessagesCarryPosition) {
  auto e = ParsePathExpression("friend[1]/colleague[0]");
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("position"), std::string::npos);
}

TEST(Bind, ResolvesLabelsAndAttrs) {
  SocialGraph g = testing_util::MakeDiamond();
  auto parsed = ParsePathExpression("friend[1,2]{age>=18}/colleague[1]");
  ASSERT_TRUE(parsed.ok());
  auto bound = BoundPathExpression::Bind(*parsed, g);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->graph(), &g);
  EXPECT_EQ(bound->steps().size(), 2u);
  EXPECT_EQ(bound->steps()[0].label, g.labels().Lookup("friend"));
  EXPECT_EQ(bound->steps()[1].label, g.labels().Lookup("colleague"));
  EXPECT_EQ(bound->MaxPathLength(), 3u);
  EXPECT_TRUE(bound->HasAttributeFilter());
  EXPECT_FALSE(bound->HasBackwardStep());
}

TEST(Bind, UnknownLabelIsNotFound) {
  SocialGraph g = testing_util::MakeDiamond();
  auto parsed = ParsePathExpression("enemy[1]");
  ASSERT_TRUE(parsed.ok());
  auto bound = BoundPathExpression::Bind(*parsed, g);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST(Bind, UnknownAttributeIsNotFound) {
  SocialGraph g = testing_util::MakeDiamond();
  auto parsed = ParsePathExpression("friend[1]{height>=170}");
  ASSERT_TRUE(parsed.ok());
  auto bound = BoundPathExpression::Bind(*parsed, g);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST(Bind, RejectsProgrammaticZeroOrEmptyHopRanges) {
  // The parser forbids these, but the AST is constructible directly;
  // Bind is the shared gate every evaluator depends on (regression:
  // min_hops == 0 crashed the join evaluator's expansion).
  SocialGraph g = testing_util::MakeDiamond();
  PathExpression zero_min({PathStep{"friend", false, 0, 1, {}}});
  auto b1 = BoundPathExpression::Bind(zero_min, g);
  ASSERT_FALSE(b1.ok());
  EXPECT_EQ(b1.status().code(), StatusCode::kInvalidArgument);
  PathExpression empty_range({PathStep{"friend", false, 3, 2, {}}});
  auto b2 = BoundPathExpression::Bind(empty_range, g);
  ASSERT_FALSE(b2.ok());
  EXPECT_EQ(b2.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bind, EmptyExpressionIsInvalid) {
  SocialGraph g = testing_util::MakeDiamond();
  PathExpression empty;
  auto bound = BoundPathExpression::Bind(empty, g);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sargus
