#include "cea/core/routines.h"

#include <algorithm>

#include "cea/common/check.h"
#include "cea/core/spill_manager.h"
#include "cea/hash/key_hash.h"
#include "cea/mem/chunk_pool.h"
#include "cea/table/growable_hash_table.h"

namespace cea {

void ExecStats::Merge(const ExecStats& other) {
  // The merge rules of CEA_EXEC_STATS_FIELDS.
  auto Sum = [](auto a, auto b) { return a + b; };
  auto Max = [](auto a, auto b) { return std::max(a, b); };
#define CEA_MERGE_FIELD(type, name, merge, node, counter, unit) \
  name = merge(name, other.name);
  CEA_EXEC_STATS_FIELDS(CEA_MERGE_FIELD)
#undef CEA_MERGE_FIELD
  for (size_t l = 0; l < rows_hashed_at_level.size(); ++l) {
    rows_hashed_at_level[l] += other.rows_hashed_at_level[l];
    rows_partitioned_at_level[l] += other.rows_partitioned_at_level[l];
    seconds_at_level[l] += other.seconds_at_level[l];
  }
}

WorkerResources::WorkerResources(int key_words, const StateLayout& layout,
                                 size_t table_bytes, size_t max_morsel_rows,
                                 double table_max_fill)
    : key_words_(key_words),
      table_(table_bytes, key_words, layout, table_max_fill),
      slots_(std::max(max_morsel_rows, ChunkedArray::kMaxChunkElems)),
      dests_(slots_.size()) {
  key_writers_.reserve(key_words);
  for (int w = 0; w < key_words; ++w) {
    key_writers_.push_back(std::make_unique<SwcWriter>());
  }
  state_writers_.reserve(layout.total_words);
  for (int w = 0; w < layout.total_words; ++w) {
    state_writers_.push_back(std::make_unique<SwcWriter>());
  }
}

PassContext::PassContext(const StateLayout& layout, const Policy& policy,
                         WorkerResources* resources, int level,
                         ExecStats* stats, const QueryControl* control,
                         SpillManager* spill, uint64_t pass_id)
    : layout_(layout),
      policy_(policy),
      res_(*resources),
      level_(level),
      stats_(stats),
      control_(control),
      spill_(spill),
      pass_id_(pass_id),
      mode_(policy.InitialMode(level)) {
  CEA_CHECK(level >= 0 && level < kMaxRadixLevel);
  res_.table().Clear();
  const int kw = res_.key_words();
  for (uint32_t p = 0; p < kFanOut; ++p) {
    runs_[p] = Run(kw, layout);
    for (int w = 0; w < kw; ++w) {
      res_.key_writer(w).SetDest(p, &runs_[p].key_cols[w]);
    }
    for (int w = 0; w < layout.total_words; ++w) {
      res_.state_writer(w).SetDest(p, &runs_[p].states[w]);
    }
  }
  if (mode_ == Mode::kPartition) {
    partition_budget_ = policy_.PartitionQuota(res_.table().capacity());
  }
  stats_->max_level = std::max(stats_->max_level, level);
}

bool PassContext::InsertKeys(const Morsel& m, size_t from, size_t n,
                             size_t* consumed) {
  BlockedOpenHashTable& table = res_.table();
  uint32_t* slots = res_.slots();
  const int kw = res_.key_words();

  if (kw == 1) {
    // Hot path: single 64-bit keys, out-of-order blocks of 16
    // (Section 4.2) — hash a block first, then insert, so the hash
    // computations overlap the table-probe loads.
    const uint64_t* keys = m.key_cols[0] + from;
    size_t i = 0;
    while (i + 16 <= n) {
      uint64_t hashes[16];
      HashKeyColumnsBatch(m.key_cols.data(), 1, from + i, 16, hashes);
      for (int j = 0; j < 16; ++j) {
        uint32_t s = table.FindOrInsert(keys[i + j], hashes[j], level_);
        if (s == BlockedOpenHashTable::kFull) {
          *consumed = i + static_cast<size_t>(j);
          return true;
        }
        slots[from + i + j] = s;
      }
      i += 16;
    }
    if (i < n) {
      uint64_t hashes[16];
      HashKeyColumnsBatch(m.key_cols.data(), 1, from + i, n - i, hashes);
      for (size_t j = 0; i < n; ++i, ++j) {
        uint32_t s = table.FindOrInsert(keys[i], hashes[j], level_);
        if (s == BlockedOpenHashTable::kFull) {
          *consumed = i;
          return true;
        }
        slots[from + i] = s;
      }
    }
    *consumed = n;
    return false;
  }

  // Composite keys: gather the key words of each row, then probe.
  uint64_t key[kMaxKeyWords];
  for (size_t i = 0; i < n; ++i) {
    for (int w = 0; w < kw; ++w) key[w] = m.key_cols[w][from + i];
    uint64_t hash = HashKey(key, kw);
    uint32_t s = table.FindOrInsert(key, hash, level_);
    if (s == BlockedOpenHashTable::kFull) {
      *consumed = i;
      return true;
    }
    slots[from + i] = s;
  }
  *consumed = n;
  return false;
}

void PassContext::ApplyValuesHash(const Morsel& m, size_t from, size_t len) {
  if (len == 0) return;
  BlockedOpenHashTable& table = res_.table();
  const uint32_t* slots = res_.slots() + from;
  for (int w = 0; w < layout_.total_words; ++w) {
    uint64_t* dst = table.state_array(w);
    const uint64_t* src = m.cols[w] == nullptr ? nullptr : m.cols[w] + from;
    switch (layout_.word_op[w]) {
      case StateOp::kAdd:
        if (src == nullptr) {
          for (size_t i = 0; i < len; ++i) dst[slots[i]] += 1;
        } else {
          for (size_t i = 0; i < len; ++i) dst[slots[i]] += src[i];
        }
        break;
      case StateOp::kMin:
        for (size_t i = 0; i < len; ++i) {
          uint64_t x = src[i];
          if (x < dst[slots[i]]) dst[slots[i]] = x;
        }
        break;
      case StateOp::kMax:
        for (size_t i = 0; i < len; ++i) {
          uint64_t x = src[i];
          if (x > dst[slots[i]]) dst[slots[i]] = x;
        }
        break;
    }
  }
}

void PassContext::PartitionRange(const Morsel& m, size_t from, size_t to) {
  if (from >= to) return;
  const size_t len = to - from;
  const int kw = res_.key_words();
  uint8_t* dests = res_.dests() + from;

  // Grouping column(s): hash a stretch, then compute digits (the per-run
  // mapping vector of Section 3.3) and scatter key word 0 through the SWC
  // buffers. The hash buffer stays L1-resident next to the SWC lines.
  SwcWriter& kw0 = res_.key_writer(0);
  constexpr size_t kHashBatch = 256;
  uint64_t hashes[kHashBatch];
  const uint64_t* keys = m.key_cols[0] + from;
  for (size_t done = 0; done < len; done += kHashBatch) {
    const size_t batch = std::min(kHashBatch, len - done);
    HashKeyColumnsBatch(m.key_cols.data(), kw, from + done, batch, hashes);
    for (size_t i = 0; i < batch; ++i) {
      uint32_t d = RadixDigit(hashes[i], level_);
      dests[done + i] = static_cast<uint8_t>(d);
      kw0.Append(d, keys[done + i]);
    }
  }
  // Remaining key words replay the mapping vector like aggregate columns.
  for (int w = 1; w < kw; ++w) {
    SwcWriter& kwriter = res_.key_writer(w);
    const uint64_t* src = m.key_cols[w] + from;
    for (size_t i = 0; i < len; ++i) kwriter.Append(dests[i], src[i]);
  }

  // State words: replay the mapping vector in tight per-column loops.
  // Appends per partition happen in input order, so values land at the
  // same positions as their keys.
  for (int w = 0; w < layout_.total_words; ++w) {
    SwcWriter& sw = res_.state_writer(w);
    if (m.cols[w] == nullptr) {
      for (size_t i = 0; i < len; ++i) sw.Append(dests[i], 1);
    } else {
      const uint64_t* src = m.cols[w] + from;
      for (size_t i = 0; i < len; ++i) sw.Append(dests[i], src[i]);
    }
  }

  partitioned_any_ = true;
  rows_processed_ += len;
  stats_->rows_partitioned += len;
  stats_->rows_partitioned_at_level[level_] += len;
  if (partition_budget_ <= len) {
    // Quota exhausted: probe with HASHING again (Section 5) in case the
    // distribution changed.
    partition_budget_ = 0;
    mode_ = Mode::kHash;
    ++stats_->switches_to_hash;
  } else {
    partition_budget_ -= len;
  }
}

void PassContext::SplitTable() {
  BlockedOpenHashTable& table = res_.table();
  for (uint32_t p = 0; p < kFanOut; ++p) {
    size_t emitted =
        table.EmitBlock(p, &runs_[p].key_cols, &runs_[p].states);
    if (emitted != 0) ++split_touches_[p];
  }
  table.Clear();
  table_rows_in_ = 0;
}

void PassContext::ProcessMorsel(const Morsel& m) {
  CEA_CHECK_MSG(m.n <= res_.max_morsel_rows(),
                "morsel exceeds the mapping buffers of WorkerResources");
  CEA_CHECK_MSG(static_cast<int>(m.cols.size()) == layout_.total_words,
                "morsel needs one column pointer per state word");
  // Cancellation boundary: one check per morsel bounds the post-cancel
  // work of this worker to a single morsel. The pass state stays
  // consistent — nothing of this morsel has been consumed yet.
  if (control_ != nullptr) control_->ThrowIfCancelled();
  MaybeSpill();
  ++stats_->morsels;
  size_t i = 0;
  while (i < m.n) {
    if (mode_ == Mode::kPartition) {
      // Obey the quota at sub-morsel granularity so a switch back to
      // hashing happens close to the configured c * capacity rows.
      size_t quota_end = m.n;
      if (partition_budget_ < m.n - i) {
        quota_end = i + static_cast<size_t>(partition_budget_);
        if (quota_end <= i) quota_end = i + 1;
      }
      PartitionRange(m, i, quota_end);
      i = quota_end;
      continue;
    }
    size_t consumed = 0;
    bool full = InsertKeys(m, i, m.n - i, &consumed);
    ApplyValuesHash(m, i, consumed);
    i += consumed;
    rows_processed_ += consumed;
    table_rows_in_ += consumed;
    stats_->rows_hashed += consumed;
    stats_->rows_hashed_at_level[level_] += consumed;
    if (full) {
      // The table ran full: compute the reduction factor and let the
      // policy pick the routine for the next stretch.
      double alpha = res_.table().fill() == 0
                         ? 1.0
                         : static_cast<double>(table_rows_in_) /
                               static_cast<double>(res_.table().fill());
      stats_->sum_alpha += alpha;
      ++stats_->num_alpha;
      SplitTable();
      ++flushes_;
      ++stats_->tables_flushed;
      // Cancellation boundary: the SWC flush just completed, so the run
      // store is consistent and large low-cardinality morsels (many
      // flushes per morsel) still observe cancellation promptly. The same
      // boundary re-checks memory pressure — a split just grew the runs.
      if (control_ != nullptr) control_->ThrowIfCancelled();
      MaybeSpill();
      Mode next = policy_.OnTableFull(alpha, level_);
      if (next == Mode::kPartition) {
        mode_ = Mode::kPartition;
        partition_budget_ = policy_.PartitionQuota(res_.table().capacity());
        if (partition_budget_ == 0) {
          mode_ = Mode::kHash;  // degenerate c = 0: stay with hashing
        } else {
          ++stats_->switches_to_partition;
        }
      }
    }
  }
}

// Spill floor: runs shorter than this stay resident, because spilling
// them fragments the stream into tiny padded segments while freeing
// almost nothing. The floor is the dominant resident cost of a spilling
// pass — sub-floor runs of all kFanOut partitions stay pinned per worker
// (worst case kFanOut * floor rows each) — so it must shrink as used()
// closes in on the hard limit: with plenty of headroom wait for two
// min-size chunks, near the wall spill almost anything. Leftovers of any
// size are swept up by the operator's bucket dispatch once the pass
// completes.
static size_t SpillFloorRows() {
  const MemoryBudget& budget = MemoryBudget::Global();
  const size_t limit = budget.limit();
  const size_t used = budget.used();
  const size_t headroom = limit > used ? limit - used : 0;
  if (headroom > size_t{16} << 20) return 2 * ChunkedArray::kMinChunkElems;
  if (headroom > size_t{4} << 20) return ChunkedArray::kMinChunkElems;
  return 64;
}

void PassContext::MaybeSpill() {
  if (spill_ == nullptr || !spill_->ShouldSpill()) return;
  // Partial SWC lines must land in the runs before the runs can move to
  // disk. Flush() keeps the destination bindings, so partitioning appends
  // simply continue into fresh chunks afterwards.
  for (int w = 0; w < res_.key_words(); ++w) {
    res_.key_writer(w).Flush();
  }
  for (int w = 0; w < layout_.total_words; ++w) {
    res_.state_writer(w).Flush();
  }
  const size_t floor = SpillFloorRows();
  for (uint32_t p = 0; p < kFanOut; ++p) {
    if (runs_[p].size() < floor) continue;
    spill_->SpillRun(SpillManager::PartitionKey(pass_id_, p), &runs_[p]);
  }
}

bool PassContext::Finalize(size_t pass_total_rows, Run* final_run) {
  BlockedOpenHashTable& table = res_.table();
  const bool sole_hasher = rows_processed_ == pass_total_rows &&
                           flushes_ == 0 && !partitioned_any_;
  if (sole_hasher && rows_processed_ > 0) {
    // This worker hashed the entire bucket without ever flushing: the
    // table holds the complete aggregate. This is the merged
    // "last-partitioning-pass + aggregation" of Section 2.1.
    for (uint32_t p = 0; p < kFanOut; ++p) {
      table.EmitBlock(p, &final_run->key_cols, &final_run->states);
    }
    final_run->distinct = true;
    table.Clear();
    ++stats_->final_hash_passes;
    return true;
  }
  if (!table.empty()) {
    SplitTable();
  }
  for (int w = 0; w < res_.key_words(); ++w) {
    res_.key_writer(w).Flush();
  }
  for (int w = 0; w < layout_.total_words; ++w) {
    res_.state_writer(w).Flush();
  }
  // A run is distinct (fully aggregated, unique keys) iff it was produced
  // by exactly one table split and received no partitioned rows.
  for (uint32_t p = 0; p < kFanOut; ++p) {
    runs_[p].distinct = !partitioned_any_ && split_touches_[p] == 1;
  }
  return false;
}

void AggregateExact(const std::vector<Morsel>& morsels, int key_words,
                    const StateLayout& layout, size_t expected_groups,
                    Run* final_run, const QueryControl* control) {
  GrowableHashTable table(key_words, layout, expected_groups);
  uint64_t key[kMaxKeyWords];
  for (const Morsel& m : morsels) {
    CEA_CHECK_MSG(static_cast<int>(m.cols.size()) == layout.total_words,
                  "morsel needs one column pointer per state word");
    if (control != nullptr) control->ThrowIfCancelled();
    for (size_t i = 0; i < m.n; ++i) {
      for (int w = 0; w < key_words; ++w) key[w] = m.key_cols[w][i];
      size_t slot = table.FindOrInsert(key);
      for (int w = 0; w < layout.total_words; ++w) {
        const uint64_t v = m.cols[w] == nullptr ? 1 : m.cols[w][i];
        uint64_t& dst = table.state_array(w)[slot];
        switch (layout.word_op[w]) {
          case StateOp::kAdd:
            dst += v;
            break;
          case StateOp::kMin:
            if (v < dst) dst = v;
            break;
          case StateOp::kMax:
            if (v > dst) dst = v;
            break;
        }
      }
    }
  }
  table.ForEachSlot([&](size_t slot) {
    for (int w = 0; w < key_words; ++w) {
      final_run->key_cols[w].Append(table.key_array(w)[slot]);
    }
    for (int w = 0; w < layout.total_words; ++w) {
      final_run->states[w].Append(table.state_array(w)[slot]);
    }
  });
  final_run->distinct = true;
}

Morsel InputMorsel(const InputTable& input, const StateLayout& layout,
                   size_t off, size_t n) {
  Morsel m;
  m.n = n;
  m.key_cols.reserve(input.key_columns());
  m.key_cols.push_back(input.keys + off);
  for (const uint64_t* extra : input.extra_keys) {
    m.key_cols.push_back(extra + off);
  }
  m.cols.reserve(layout.total_words);
  for (const AggregateSpec& spec : layout.specs) {
    m.cols.push_back(NeedsInput(spec.fn)
                         ? input.values[spec.input_column] + off
                         : nullptr);
    if (spec.fn == AggFn::kAvg) m.cols.push_back(nullptr);  // count word
  }
  return m;
}

std::vector<Morsel> MorselsForBucket(const Bucket& bucket, int key_words,
                                     const StateLayout& layout) {
  std::vector<Morsel> morsels;
  using ChunkList = std::vector<std::pair<const uint64_t*, size_t>>;
  for (const Run& run : bucket) {
    // Collect the chunk decomposition of every column. A chunk's capacity
    // depends only on its index (chunked_array.h), so columns of equal
    // length have identical boundaries however they were appended.
    std::vector<ChunkList> key_chunks(key_words);
    for (int w = 0; w < key_words; ++w) {
      run.key_cols[w].ForEachChunk([&](const uint64_t* d, size_t n) {
        key_chunks[w].emplace_back(d, n);
      });
      CEA_CHECK(key_chunks[w].size() == key_chunks[0].size());
    }
    std::vector<ChunkList> state_chunks(layout.total_words);
    for (int w = 0; w < layout.total_words; ++w) {
      run.states[w].ForEachChunk([&](const uint64_t* d, size_t n) {
        state_chunks[w].emplace_back(d, n);
      });
      CEA_CHECK(state_chunks[w].size() == key_chunks[0].size());
    }
    for (size_t c = 0; c < key_chunks[0].size(); ++c) {
      Morsel m;
      m.n = key_chunks[0][c].second;
      m.key_cols.resize(key_words);
      for (int w = 0; w < key_words; ++w) {
        CEA_CHECK(key_chunks[w][c].second == m.n);
        m.key_cols[w] = key_chunks[w][c].first;
      }
      m.cols.resize(layout.total_words);
      for (int w = 0; w < layout.total_words; ++w) {
        CEA_CHECK(state_chunks[w][c].second == m.n);
        m.cols[w] = state_chunks[w][c].first;
      }
      morsels.push_back(std::move(m));
    }
  }
  return morsels;
}

}  // namespace cea
