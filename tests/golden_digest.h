// Digests for the serve-layer determinism goldens: a placed-pod set or an
// export document is pinned by its 64-bit FNV-1a hash plus its size, so a
// golden stays one line however large the export is.
#ifndef OPTUM_TESTS_GOLDEN_DIGEST_H_
#define OPTUM_TESTS_GOLDEN_DIGEST_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace optum::testing_golden {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Hashes each id as 8 little-endian bytes, in the given (ascending) order.
inline uint64_t PlacedSetDigest(const std::vector<PodId>& ids) {
  uint64_t h = kFnvOffset;
  for (const PodId id : ids) {
    const uint64_t v = static_cast<uint64_t>(id);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= kFnvPrime;
    }
  }
  return h;
}

}  // namespace optum::testing_golden

#endif  // OPTUM_TESTS_GOLDEN_DIGEST_H_
