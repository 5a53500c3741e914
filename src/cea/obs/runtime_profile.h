// Hierarchical query runtime profile (Impala-style).
//
// A RuntimeProfile is a tree of named nodes, each holding ordered
// counters (atomic int64 with a unit and a merge rule), info strings
// (policy names, decision inputs) and child nodes (one per pass level,
// per subsystem, per worker). The operator builds one per execution in
// AggregationOperator::FillProfile, from its merged ExecStats plus the
// scheduler and pool deltas of the execution (strategy, passes, scheduler,
// memory, spill and worker nodes), so a single dump answers "where did
// this query's time, rows and bytes go".
//
//   RuntimeProfile root("query");
//   RuntimeProfile* mem = root.GetOrCreateChild("memory");
//   mem->AddCounter("peak_bytes", Unit::kBytes, MergeOp::kMax)->Set(...);
//   root.ToText();               // indented tree for terminals/logs
//   root.ToJson();               // nests into --stats=json output
//
// Concurrency: structural mutations (child/counter/info creation) take a
// per-node mutex; Counter updates through the returned pointer are
// lock-free relaxed atomics, so workers can bump counters of a shared
// node without serializing. Counter/child pointers stay valid for the
// lifetime of the owning profile. Rendering takes the mutexes and is
// meant for after quiescence (or coarse snapshots, never the hot path).
//
// Determinism: children, counters and info strings render in insertion
// order, so two runs that create the same structure in the same order
// print identical trees (field ordering is stable; values of timers
// naturally vary). The `cea_query --profile` golden test relies on this.

#ifndef CEA_OBS_RUNTIME_PROFILE_H_
#define CEA_OBS_RUNTIME_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cea::obs {

class JsonWriter;

class RuntimeProfile {
 public:
  // Rendering hint for a counter value.
  enum class Unit {
    kNone,    // plain count
    kRows,    // row count
    kBytes,   // rendered as B/KiB/MiB in text
    kNanos,   // duration; rendered as ms in text
    kDouble,  // the int64 payload is a bit-cast double
  };

  // How MergeFrom combines a counter with its same-named counterpart.
  enum class MergeOp { kSum, kMax, kMin };

  class Counter {
   public:
    void Add(int64_t delta) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    // kDouble payload access (bit-cast through the int64 storage).
    void SetDouble(double v);
    double double_value() const;

    Unit unit() const { return unit_; }
    MergeOp merge_op() const { return merge_op_; }

   private:
    friend class RuntimeProfile;
    Counter(Unit unit, MergeOp op) : unit_(unit), merge_op_(op) {}
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    std::atomic<int64_t> value_{0};
    Unit unit_;
    MergeOp merge_op_;
  };

  // RAII timer: adds the elapsed nanoseconds to a kNanos counter.
  class ScopedTimer {
   public:
    explicit ScopedTimer(Counter* counter)
        : counter_(counter), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
      if (counter_ == nullptr) return;
      counter_->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    Counter* counter_;
    std::chrono::steady_clock::time_point start_;
  };

  explicit RuntimeProfile(std::string name) : name_(std::move(name)) {}

  RuntimeProfile(const RuntimeProfile&) = delete;
  RuntimeProfile& operator=(const RuntimeProfile&) = delete;

  const std::string& name() const { return name_; }

  // Returns the child named `name`, creating it (at the end of the child
  // list) when absent. The pointer stays valid for this profile's
  // lifetime.
  RuntimeProfile* GetOrCreateChild(std::string_view name);

  // Returns the counter named `name`, creating it with the given unit and
  // merge rule when absent. An existing counter keeps its original
  // unit/merge rule (first creation wins).
  Counter* AddCounter(std::string_view name, Unit unit = Unit::kNone,
                      MergeOp op = MergeOp::kSum);

  // Sets an info string (creating it in insertion order; overwriting
  // keeps the original position).
  void SetInfo(std::string_view key, std::string value);

  // Merges `other` into this node: counters combine per their MergeOp
  // (created here when missing, adopting other's unit/rule), info strings
  // overwrite, children merge recursively by name. Used to fold
  // per-worker subtrees into one aggregate node.
  void MergeFrom(const RuntimeProfile& other);

  // Lookups for tests/tools; nullptr when absent.
  Counter* FindCounter(std::string_view name) const;
  RuntimeProfile* FindChild(std::string_view name) const;

  // Drops every counter, info string and child (the name stays).
  // Invalidates all pointers previously handed out by this subtree; used
  // by the operator so a reused ObsContext profiles only the last
  // execution.
  void Clear();

  // Indented text tree (two spaces per level): node name, info strings,
  // counters ("- name: value"), then children, all in insertion order.
  std::string ToText() const;

  // Nested JSON object: {"name":..., "info":{...}, "counters":{...},
  // "children":[...]} with empty sections omitted.
  std::string ToJson() const;
  void ToJson(JsonWriter* w) const;

 private:
  void ToTextInternal(int indent, std::string* out) const;

  const std::string name_;
  mutable std::mutex mutex_;
  // Insertion-ordered; unique_ptr slots keep handed-out pointers stable
  // across vector growth.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::unique_ptr<RuntimeProfile>> children_;
};

}  // namespace cea::obs

#endif  // CEA_OBS_RUNTIME_PROFILE_H_
