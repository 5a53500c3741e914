// Compile-time-fused query pipelines feeding the aggregation operator.
//
// Section 3.3 describes how the operator integrates with just-in-time
// compiled query plans: the pipeline fragment ending in the aggregation
// is compiled into one tight loop, and the recursive bucket processing
// forms a second fragment. This header provides the C++ equivalent of
// that first fragment: filters are fused into a single scan loop at
// template-instantiation time (the stand-in for JIT codegen), survivors
// are gathered into cache-friendly batches, and the batches are pushed
// into AggregationOperator's streaming interface.
//
//   ResultTable result;
//   Status s = cea::From(input)
//                  .Filter([](cea::RowView r) { return r.value(0) > 10; })
//                  .Filter([](cea::RowView r) { return r.key(0) != 0; })
//                  .GroupBy({{cea::AggFn::kSum, 0}}, options, &result);

#ifndef CEA_PIPELINE_PIPELINE_H_
#define CEA_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "cea/columnar/column.h"
#include "cea/common/check.h"
#include "cea/core/aggregation_operator.h"

namespace cea {

// One input row as seen by pipeline predicates.
class RowView {
 public:
  RowView(const InputTable& table, size_t row) : table_(table), row_(row) {}

  // c-th grouping column (0 = InputTable::keys).
  uint64_t key(int c = 0) const {
    CEA_DCHECK(c >= 0 && c < table_.key_columns());
    return c == 0 ? table_.keys[row_] : table_.extra_keys[c - 1][row_];
  }
  // c-th aggregate input column.
  uint64_t value(int c) const {
    CEA_DCHECK(c >= 0 && c < static_cast<int>(table_.values.size()));
    return table_.values[c][row_];
  }
  size_t row_index() const { return row_; }

 private:
  const InputTable& table_;
  size_t row_;
};

namespace pipeline_internal {

// Rows per fused batch: one default morsel, so that ConsumeBatch's fork-join
// over the pool's workers pays (4 Ki-row batches ran ~1.4x slower).
inline constexpr size_t kBatchRows = size_t{1} << 16;

}  // namespace pipeline_internal

template <typename... Preds>
class Pipeline {
 public:
  Pipeline(InputTable source, std::tuple<Preds...> preds)
      : source_(source), preds_(std::move(preds)) {}

  // Adds a fused filter stage. Consumes the builder (use in one fluent
  // expression).
  template <typename P>
  Pipeline<Preds..., P> Filter(P pred) && {
    return Pipeline<Preds..., P>(
        source_, std::tuple_cat(std::move(preds_),
                                std::tuple<P>(std::move(pred))));
  }

  // Terminal: run the fused scan-filter loop, feeding survivors into the
  // aggregation operator.
  Status GroupBy(const std::vector<AggregateSpec>& specs,
                 AggregationOptions options, ResultTable* result,
                 ExecStats* stats = nullptr) && {
    AggregationOperator op(specs, options);
    Status s = op.BeginStream(source_.key_columns());
    if (!s.ok()) return s;

    const int key_cols = source_.key_columns();
    const int value_cols = static_cast<int>(source_.values.size());
    std::vector<std::vector<uint64_t>> key_buf(key_cols);
    std::vector<std::vector<uint64_t>> value_buf(value_cols);
    for (auto& b : key_buf) b.reserve(pipeline_internal::kBatchRows);
    for (auto& b : value_buf) b.reserve(pipeline_internal::kBatchRows);

    auto flush = [&]() -> Status {
      if (key_buf[0].empty()) return Status::Ok();
      InputTable batch;
      batch.keys = key_buf[0].data();
      for (int c = 1; c < key_cols; ++c) {
        batch.extra_keys.push_back(key_buf[c].data());
      }
      for (int c = 0; c < value_cols; ++c) {
        batch.values.push_back(value_buf[c].data());
      }
      batch.num_rows = key_buf[0].size();
      Status cs = op.ConsumeBatch(batch);
      for (auto& b : key_buf) b.clear();
      for (auto& b : value_buf) b.clear();
      return cs;
    };

    // The fused loop: every predicate is inlined here.
    for (size_t i = 0; i < source_.num_rows; ++i) {
      RowView row(source_, i);
      if (!PassesAll(row, std::index_sequence_for<Preds...>{})) continue;
      key_buf[0].push_back(source_.keys[i]);
      for (int c = 1; c < key_cols; ++c) {
        key_buf[c].push_back(source_.extra_keys[c - 1][i]);
      }
      for (int c = 0; c < value_cols; ++c) {
        value_buf[c].push_back(source_.values[c][i]);
      }
      if (key_buf[0].size() == pipeline_internal::kBatchRows) {
        Status cs = flush();
        if (!cs.ok()) return cs;
      }
    }
    Status cs = flush();
    if (!cs.ok()) return cs;
    return op.FinishStream(result, stats);
  }

 private:
  template <size_t... I>
  bool PassesAll(const RowView& row, std::index_sequence<I...>) const {
    return (std::get<I>(preds_)(row) && ...);
  }

  InputTable source_;
  std::tuple<Preds...> preds_;
};

// Entry point: start a pipeline over `source` (non-owning view; must
// outlive the GroupBy call).
inline Pipeline<> From(InputTable source) {
  return Pipeline<>(source, std::tuple<>());
}

}  // namespace cea

#endif  // CEA_PIPELINE_PIPELINE_H_
