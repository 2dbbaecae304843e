// Digests for the determinism goldens: a placed-pod set, an export document
// or a whole profile set is pinned by its 64-bit FNV-1a hash (plus its size
// where that is cheap to state), so a golden stays one line however large
// the object is.
#ifndef OPTUM_TESTS_GOLDEN_DIGEST_H_
#define OPTUM_TESTS_GOLDEN_DIGEST_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/core/profiles.h"
#include "src/ml/random_forest.h"

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

// Folds v into h as 8 little-endian bytes.
inline void HashWord(uint64_t& h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xff;
    h *= kFnvPrime;
  }
}

inline void HashDouble(uint64_t& h, double v) { HashWord(h, std::bit_cast<uint64_t>(v)); }

// Hashes each id as 8 little-endian bytes, in the given (ascending) order.
inline uint64_t PlacedSetDigest(const std::vector<PodId>& ids) {
  uint64_t h = kFnvOffset;
  for (const PodId id : ids) {
    HashWord(h, static_cast<uint64_t>(id));
  }
  return h;
}

// Everything a profile set feeds the scheduler, bit for bit: the ERO
// table's version, then per app id in ascending order its stats, its
// discretizer, its holdout MAPE and, for a forest model, every tree node's
// feature, threshold, children and value. A non-forest model contributes
// its name only.
inline uint64_t ProfilesDigest(const core::OptumProfiles& profiles) {
  uint64_t h = kFnvOffset;
  HashWord(h, profiles.ero.version());
  std::vector<AppId> ids;
  for (const auto& [id, model] : profiles.apps) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const AppId id : ids) {
    const core::AppModel& app = profiles.apps.at(id);
    HashWord(h, static_cast<uint64_t>(id));
    const core::AppStats& s = app.stats;
    HashWord(h, static_cast<uint64_t>(s.slo));
    HashDouble(h, s.max_pod_cpu_util);
    HashDouble(h, s.max_pod_mem_util);
    HashDouble(h, s.max_qps);
    HashDouble(h, s.max_completion_ticks);
    HashDouble(h, s.mem_profile);
    HashWord(h, s.sample_count);
    HashWord(h, app.discretizer.num_buckets());
    HashDouble(h, app.discretizer.bucket_width());
    HashDouble(h, app.discretizer.ToUpperBound(0.0));
    HashDouble(h, app.discretizer.ToUpperBound(1.0));
    HashDouble(h, app.holdout_mape);
    HashWord(h, app.usable() ? 1 : 0);
    if (!app.usable()) {
      continue;
    }
    const auto* forest = dynamic_cast<const ml::RandomForestRegressor*>(app.model.get());
    if (forest == nullptr) {
      for (const char c : app.model->name()) {
        HashWord(h, static_cast<unsigned char>(c));
      }
      continue;
    }
    HashWord(h, forest->num_trees());
    for (size_t t = 0; t < forest->num_trees(); ++t) {
      const auto nodes = forest->tree(t).nodes();
      HashWord(h, nodes.size());
      for (const ml::DecisionTreeRegressor::Node& node : nodes) {
        HashWord(h, static_cast<uint64_t>(static_cast<int64_t>(node.feature)));
        HashDouble(h, node.threshold);
        HashWord(h, static_cast<uint64_t>(static_cast<int64_t>(node.left)));
        HashWord(h, static_cast<uint64_t>(static_cast<int64_t>(node.right)));
        HashDouble(h, node.value);
      }
    }
  }
  return h;
}

}  // namespace optum::testing_golden

#endif  // OPTUM_TESTS_GOLDEN_DIGEST_H_
