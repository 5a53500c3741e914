#include "cea/table/blocked_hash_table.h"

#include <bit>
#include <cstring>

#include "cea/mem/chunked_array.h"

namespace cea {

BlockedOpenHashTable::BlockedOpenHashTable(size_t budget_bytes, int key_words,
                                           const StateLayout& layout,
                                           double max_fill)
    : key_words_(key_words) {
  CEA_CHECK_MSG(key_words >= 1 && key_words <= kMaxKeyWords,
                "unsupported key width");
  layout_words_ = layout.total_words;
  // Bytes per slot: key words + state words + one occupancy bit.
  double slot_bytes = 8.0 * (key_words + layout.total_words) + 0.125;
  size_t want = static_cast<size_t>(budget_bytes / slot_bytes);
  size_t min_capacity = size_t{kFanOut} * 2;
  size_t cap = want < min_capacity ? min_capacity : FloorPowerOfTwo(want);
  CEA_CHECK_MSG(cap <= (size_t{1} << 31), "hash table capacity too large");
  capacity_ = static_cast<uint32_t>(cap);
  block_bits_ = FloorLog2(capacity_) - kRadixBits;
  CEA_CHECK(block_bits_ >= 1);

  max_fill_slots_ = static_cast<uint32_t>(static_cast<double>(capacity_) *
                                          max_fill);
  if (max_fill_slots_ == 0) max_fill_slots_ = 1;

  keys_.resize(static_cast<size_t>(key_words_) * capacity_);
  states_.resize(static_cast<size_t>(layout_words_) * capacity_);
  occupied_.assign((capacity_ + 63) / 64, 0);

  identities_.reserve(layout_words_);
  for (StateOp op : layout.word_op) identities_.push_back(StateIdentity(op));
  CEA_CHECK(static_cast<int>(identities_.size()) == layout_words_);
}

size_t BlockedOpenHashTable::EmitBlock(
    uint32_t b, std::vector<ChunkedArray>* key_cols,
    std::vector<ChunkedArray>* states) const {
  CEA_DCHECK(b < kFanOut);
  CEA_DCHECK(static_cast<int>(key_cols->size()) == key_words_);
  CEA_DCHECK(states == nullptr ||
             static_cast<int>(states->size()) == layout_words_);
  const uint32_t base = b << block_bits_;
  const uint32_t block_capacity = 1u << block_bits_;
  size_t emitted = 0;

  auto emit_slot = [&](uint32_t slot) {
    for (int w = 0; w < key_words_; ++w) {
      (*key_cols)[w].Append(keys_[static_cast<size_t>(w) * capacity_ + slot]);
    }
    for (int w = 0; w < layout_words_; ++w) {
      (*states)[w].Append(states_[static_cast<size_t>(w) * capacity_ + slot]);
    }
    ++emitted;
  };

  if (block_capacity >= 64) {
    // Blocks are word-aligned: skim the bitmap, skipping empty words.
    const uint32_t w_begin = base >> 6;
    const uint32_t w_end = (base + block_capacity) >> 6;
    for (uint32_t w = w_begin; w < w_end; ++w) {
      uint64_t bits = occupied_[w];
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        bits &= bits - 1;
        emit_slot((w << 6) + static_cast<uint32_t>(bit));
      }
    }
  } else {
    // Tiny blocks (test configurations) may share bitmap words.
    for (uint32_t i = 0; i < block_capacity; ++i) {
      uint32_t slot = base + i;
      if (TestOccupied(slot)) emit_slot(slot);
    }
  }
  return emitted;
}

void BlockedOpenHashTable::Clear() {
  std::memset(occupied_.data(), 0, occupied_.size() * sizeof(uint64_t));
  fill_ = 0;
}

}  // namespace cea
