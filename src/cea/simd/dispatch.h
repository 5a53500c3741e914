// Compatibility shim for the e2e_layers benchmark, which compiles against
// SimdOps::hash_batch, ActiveOps, ActiveTier and TierName. The operator
// hashes through HashKeyColumnsBatch (hash/key_hash.h), and nothing in the
// library, its tests, benches or tools includes this header. There is one
// hash loop and no tier to select, so the only tier is kScalar. Delete
// this header, and the benchmark's uses of it, at the next change to the
// benchmark.

#ifndef CEA_SIMD_DISPATCH_H_
#define CEA_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "cea/hash/key_hash.h"

namespace cea::simd {

enum class DispatchTier { kScalar };

// out[i] = MurmurHash64(keys[i]) for i in [0, n).
inline void HashBatch(const uint64_t* keys, size_t n, uint64_t* out) {
  HashKeyColumnsBatch(&keys, 1, 0, n, out);
}

struct SimdOps {
  void (*hash_batch)(const uint64_t* keys, size_t n, uint64_t* out);
};

inline const SimdOps& ActiveOps() {
  static constexpr SimdOps kOps = {HashBatch};
  return kOps;
}

inline DispatchTier ActiveTier() { return DispatchTier::kScalar; }

inline const char* TierName(DispatchTier) { return "scalar"; }

}  // namespace cea::simd

#endif  // CEA_SIMD_DISPATCH_H_
