#include "core/path_expression.h"

#include "core/automaton.h"

namespace sargus {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

bool EvalCmp(CmpOp op, int64_t lhs, int64_t rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

std::string PathExpression::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const PathStep& s = steps_[i];
    if (i) out += '/';
    out += s.label;
    if (s.backward) out += '-';
    out += '[';
    out += std::to_string(s.min_hops);
    if (s.max_hops != s.min_hops) {
      out += ',';
      out += std::to_string(s.max_hops);
    }
    out += ']';
    if (!s.conditions.empty()) {
      out += '{';
      for (size_t c = 0; c < s.conditions.size(); ++c) {
        if (c) out += ',';
        out += s.conditions[c].attr;
        out += CmpOpName(s.conditions[c].op);
        out += std::to_string(s.conditions[c].value);
      }
      out += '}';
    }
  }
  return out;
}

Result<BoundPathExpression> BoundPathExpression::Bind(
    const PathExpression& expr, const SocialGraph& g) {
  if (expr.empty()) {
    return Status::InvalidArgument("Bind: empty path expression");
  }
  BoundPathExpression bound;
  bound.graph_ = &g;
  bound.source_ = expr;
  bound.steps_.reserve(expr.steps().size());
  for (const PathStep& s : expr.steps()) {
    // The parser enforces these, but PathExpression is constructible
    // programmatically and every evaluator relies on bound expressions
    // having sane hop ranges (the join expansion assumes min >= 1).
    if (s.min_hops < 1) {
      return Status::InvalidArgument("Bind: step '" + s.label +
                                     "': hop bounds are 1-based");
    }
    if (s.max_hops < s.min_hops) {
      return Status::InvalidArgument(
          "Bind: step '" + s.label + "': empty hop range [" +
          std::to_string(s.min_hops) + "," + std::to_string(s.max_hops) +
          "]");
    }
    BoundStep b;
    b.label = g.labels().Lookup(s.label);
    if (b.label == kInvalidLabel) {
      return Status::NotFound("Bind: label '" + s.label +
                              "' not present in graph");
    }
    b.backward = s.backward;
    b.min_hops = s.min_hops;
    b.max_hops = s.max_hops;
    for (const AttrCondition& c : s.conditions) {
      BoundCondition bc;
      bc.attr = g.attrs().Lookup(c.attr);
      if (bc.attr == kInvalidAttr) {
        return Status::NotFound("Bind: attribute '" + c.attr +
                                "' not present in graph");
      }
      bc.op = c.op;
      bc.value = c.value;
      b.conditions.push_back(bc);
    }
    bound.steps_.push_back(std::move(b));
  }
  // Compile the hop automaton once, at bind time. The automaton copies
  // the steps, so it stays valid as the expression is moved or copied
  // (copies share it).
  bound.automaton_ = std::make_shared<const HopAutomaton>(bound.steps_);
  return bound;
}

bool BoundPathExpression::HasBackwardStep() const {
  for (const BoundStep& s : steps_) {
    if (s.backward) return true;
  }
  return false;
}

bool BoundPathExpression::HasAttributeFilter() const {
  for (const BoundStep& s : steps_) {
    if (!s.conditions.empty()) return true;
  }
  return false;
}

uint64_t BoundPathExpression::MaxPathLength() const {
  uint64_t total = 0;
  for (const BoundStep& s : steps_) total += s.max_hops;
  return total;
}

bool BoundPathExpression::NodePasses(const SocialGraph& g, NodeId node,
                                     const BoundStep& step) {
  for (const BoundCondition& c : step.conditions) {
    const std::optional<int64_t> v = g.GetAttribute(node, c.attr);
    if (!v.has_value() || !EvalCmp(c.op, *v, c.value)) return false;
  }
  return true;
}

}  // namespace sargus
