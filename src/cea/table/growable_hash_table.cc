#include "cea/table/growable_hash_table.h"

namespace cea {

GrowableHashTable::GrowableHashTable(int key_words, const StateLayout& layout,
                                     size_t expected_groups)
    : key_words_(key_words), layout_words_(layout.total_words) {
  CEA_CHECK_MSG(key_words >= 1 && key_words <= kMaxKeyWords,
                "unsupported key width");
  for (StateOp op : layout.word_op) identities_.push_back(StateIdentity(op));
  capacity_ = CeilPowerOfTwo(expected_groups < 8 ? 16 : expected_groups * 2);
  keys_.resize(static_cast<size_t>(key_words_) * capacity_);
  states_.resize(static_cast<size_t>(layout_words_) * capacity_);
  occupied_.assign(capacity_, 0);
}

size_t GrowableHashTable::FindOrInsert(const uint64_t* key) {
  if (fill_ * 2 >= capacity_) Grow();
  size_t mask = capacity_ - 1;
  size_t i = HashKey(key, key_words_) & mask;
  while (true) {
    if (!occupied_[i]) {
      occupied_[i] = 1;
      for (int w = 0; w < key_words_; ++w) {
        keys_[static_cast<size_t>(w) * capacity_ + i] = key[w];
      }
      for (int w = 0; w < layout_words_; ++w) {
        states_[static_cast<size_t>(w) * capacity_ + i] = identities_[w];
      }
      ++fill_;
      return i;
    }
    bool match = keys_[i] == key[0];
    for (int w = 1; match && w < key_words_; ++w) {
      match = keys_[static_cast<size_t>(w) * capacity_ + i] == key[w];
    }
    if (match) return i;
    i = (i + 1) & mask;
  }
}

void GrowableHashTable::Grow() {
  size_t old_cap = capacity_;
  size_t new_cap = old_cap * 2;
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint64_t> old_states = std::move(states_);
  std::vector<uint8_t> old_occupied = std::move(occupied_);

  capacity_ = new_cap;
  keys_.assign(static_cast<size_t>(key_words_) * new_cap, 0);
  states_.assign(static_cast<size_t>(layout_words_) * new_cap, 0);
  occupied_.assign(new_cap, 0);
  size_t mask = new_cap - 1;

  uint64_t key[kMaxKeyWords];
  for (size_t s = 0; s < old_cap; ++s) {
    if (!old_occupied[s]) continue;
    for (int w = 0; w < key_words_; ++w) {
      key[w] = old_keys[static_cast<size_t>(w) * old_cap + s];
    }
    size_t i = HashKey(key, key_words_) & mask;
    while (occupied_[i]) i = (i + 1) & mask;
    occupied_[i] = 1;
    for (int w = 0; w < key_words_; ++w) {
      keys_[static_cast<size_t>(w) * new_cap + i] = key[w];
    }
    for (int w = 0; w < layout_words_; ++w) {
      states_[static_cast<size_t>(w) * new_cap + i] =
          old_states[static_cast<size_t>(w) * old_cap + s];
    }
  }
}

}  // namespace cea
