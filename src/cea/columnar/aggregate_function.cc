#include "cea/columnar/aggregate_function.h"

namespace cea {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "COUNT";
    case AggFn::kSum: return "SUM";
    case AggFn::kMin: return "MIN";
    case AggFn::kMax: return "MAX";
    case AggFn::kAvg: return "AVG";
  }
  return "?";
}

StateLayout::StateLayout(const std::vector<AggregateSpec>& s) : specs(s) {
  word_offset.reserve(specs.size());
  for (const AggregateSpec& spec : specs) {
    word_offset.push_back(total_words);
    total_words += StateWords(spec.fn);
    const StateOp op = spec.fn == AggFn::kMin   ? StateOp::kMin
                       : spec.fn == AggFn::kMax ? StateOp::kMax
                                                : StateOp::kAdd;
    word_op.insert(word_op.end(), StateWords(spec.fn), op);
  }
}

}  // namespace cea
