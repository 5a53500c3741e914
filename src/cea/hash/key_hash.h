// Hashing of (possibly composite) grouping keys.
//
// A grouping key is one or more 64-bit column values ("key words"). The
// single-column case is the operator's hot path and uses MurmurHash64
// directly; composite keys chain the per-word hash as the seed of the
// next word, which preserves Murmur's avalanche across all words.

#ifndef CEA_HASH_KEY_HASH_H_
#define CEA_HASH_KEY_HASH_H_

#include <cstddef>
#include <cstdint>

#include "cea/hash/murmur.h"

namespace cea {

// Hash of the `key_words`-wide key stored contiguously at `key`.
inline uint64_t HashKey(const uint64_t* key, int key_words) {
  if (key_words == 1) return MurmurHash64(key[0]);
  uint64_t h = 0;
  for (int w = 0; w < key_words; ++w) {
    h = MurmurHash64(key[w], h);
  }
  return h;
}

// Hashes of rows [from, from + n) of a columnar key (one pointer per key
// word): out[i] == HashKey of row from + i. It works word by word, so each
// loop is a plain map over one column that the compiler vectorizes when
// the build targets a wide enough ISA.
inline void HashKeyColumnsBatch(const uint64_t* const* key_cols,
                                int key_words, size_t from, size_t n,
                                uint64_t* out) {
  const uint64_t* col = key_cols[0] + from;
  for (size_t i = 0; i < n; ++i) out[i] = MurmurHash64(col[i]);
  for (int w = 1; w < key_words; ++w) {
    col = key_cols[w] + from;
    for (size_t i = 0; i < n; ++i) out[i] = MurmurHash64(col[i], out[i]);
  }
}

// Word-wise equality of two keys.
inline bool KeyEquals(const uint64_t* a, const uint64_t* b, int key_words) {
  if (key_words == 1) return a[0] == b[0];
  for (int w = 0; w < key_words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

// Maximum supported key width. Wide enough for realistic GROUP BY lists;
// keeps per-row gather buffers on the stack.
inline constexpr int kMaxKeyWords = 8;

}  // namespace cea

#endif  // CEA_HASH_KEY_HASH_H_
