// Aggregate function descriptors and their state/merge semantics.
//
// The operator supports the distributive and algebraic functions the paper
// targets (Section 2.1): COUNT, SUM, MIN, MAX and AVG — all with O(1)
// intermediate state. Because the framework mixes hashing (which produces
// partial aggregates) and partitioning (which moves raw rows), intermediate
// runs must be combinable with the *super-aggregate* function (Section 3.1):
// e.g. partial COUNTs combine with SUM. We exploit that a raw row is itself
// a valid aggregate state of a one-row group: all runs store aggregate
// *states*, and raw input values are converted to states the first time a
// routine touches them (COUNT state of a raw row is the literal 1, AVG is
// the pair (value, 1), SUM/MIN/MAX states equal the raw value). From then
// on a single merge operation per function is correct at every level.
// The operator applies that merge one state word at a time
// (StateLayout::word_op), so a raw input column is read as the state word
// it equals and the literal 1 needs no column at all.

#ifndef CEA_COLUMNAR_AGGREGATE_FUNCTION_H_
#define CEA_COLUMNAR_AGGREGATE_FUNCTION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cea {

enum class AggFn : uint8_t {
  kCount,  // COUNT(*): 1 state word; super-aggregate = SUM
  kSum,    // SUM(col): 1 state word
  kMin,    // MIN(col): 1 state word
  kMax,    // MAX(col): 1 state word
  kAvg,    // AVG(col): 2 state words (sum, count)
};

// Number of 64-bit state words function `fn` needs per group.
constexpr int StateWords(AggFn fn) { return fn == AggFn::kAvg ? 2 : 1; }

// Whether the function consumes an input column (COUNT(*) does not).
constexpr bool NeedsInput(AggFn fn) { return fn != AggFn::kCount; }

const char* AggFnName(AggFn fn);

// One requested aggregate: the function plus the index of its input column
// in the caller's value-column list (ignored, conventionally -1, for COUNT).
struct AggregateSpec {
  AggFn fn;
  int input_column = -1;
};

// Initializes the state words of a one-row group from a raw value.
inline void InitStateFromRaw(AggFn fn, uint64_t raw, uint64_t* state) {
  switch (fn) {
    case AggFn::kCount:
      state[0] = 1;
      break;
    case AggFn::kSum:
    case AggFn::kMin:
    case AggFn::kMax:
      state[0] = raw;
      break;
    case AggFn::kAvg:
      state[0] = raw;
      state[1] = 1;
      break;
  }
}

// Merges state `src` into `dst` (the super-aggregate combine).
inline void MergeState(AggFn fn, const uint64_t* src, uint64_t* dst) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kSum:
      dst[0] += src[0];
      break;
    case AggFn::kMin:
      if (src[0] < dst[0]) dst[0] = src[0];
      break;
    case AggFn::kMax:
      if (src[0] > dst[0]) dst[0] = src[0];
      break;
    case AggFn::kAvg:
      dst[0] += src[0];
      dst[1] += src[1];
      break;
  }
}

// How one state word combines with another (the super-aggregate of
// Section 3.1, one word at a time): COUNT and both AVG words add up, MIN
// and MAX keep the extreme.
enum class StateOp : uint8_t { kAdd, kMin, kMax };

// The state of an empty group under `op`.
constexpr uint64_t StateIdentity(StateOp op) {
  return op == StateOp::kMin ? ~uint64_t{0} : 0;
}

// Layout of the state words of a list of aggregates: each spec occupies
// StateWords(fn) consecutive word-columns, concatenated in spec order.
struct StateLayout {
  explicit StateLayout(const std::vector<AggregateSpec>& specs);
  StateLayout() = default;

  int total_words = 0;
  // Per spec: offset of its first word-column.
  std::vector<int> word_offset;
  // Per state word: its combine.
  std::vector<StateOp> word_op;
  std::vector<AggregateSpec> specs;
};

}  // namespace cea

#endif  // CEA_COLUMNAR_AGGREGATE_FUNCTION_H_
