#include "src/core/ero_table.h"

#include <algorithm>
#include <cstddef>

#include "src/common/check.h"

namespace optum {

size_t EroTable::EnsureSlot(AppId app) {
  OPTUM_CHECK_GE(app, 0);
  OPTUM_CHECK_LT(app, kAppIdLimit);
  const size_t id = static_cast<size_t>(app);
  if (id >= slot_of_.size()) {
    slot_of_.resize(id + 1, -1);
  }
  if (slot_of_[id] >= 0) {
    return static_cast<size_t>(slot_of_[id]);
  }
  if (num_slots_ == stride_) {
    // Double the side and re-lay the occupied rows at the new stride.
    const size_t stride = std::max<size_t>(16, 2 * stride_);
    std::vector<double> pairs(stride * stride, kUnobserved);
    for (size_t r = 0; r < num_slots_; ++r) {
      std::copy_n(pairs_.data() + r * stride_, num_slots_, pairs.data() + r * stride);
    }
    pairs_ = std::move(pairs);
    stride_ = stride;
  }
  slot_of_[id] = static_cast<int32_t>(num_slots_);
  return num_slots_++;
}

void EroTable::Observe(AppId a, AppId b, double ratio) {
  ratio = std::clamp(ratio, 0.0, 1.0);
  const size_t sa = EnsureSlot(a);
  const size_t sb = EnsureSlot(b);
  double& cell = pairs_[sa * stride_ + sb];
  if (cell >= ratio) {
    return;  // No change: keep cached predictions valid.
  }
  if (cell < 0.0) {
    ++pair_count_;
  }
  cell = ratio;
  pairs_[sb * stride_ + sa] = ratio;
  ++version_;
}

uint64_t EroTable::TripleKey(AppId a, AppId b, AppId c) {
  // Sort the three ids, then pack them into 20-bit fields, which hold every
  // id in [0, kAppIdLimit) without aliasing.
  static_assert(kAppIdLimit == AppId{1} << 20);
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  OPTUM_CHECK_GE(a, 0);
  OPTUM_CHECK_LT(c, kAppIdLimit);
  return (static_cast<uint64_t>(a) << 40) | (static_cast<uint64_t>(b) << 20) |
         static_cast<uint64_t>(c);
}

void EroTable::ObserveTriple(AppId a, AppId b, AppId c, double ratio) {
  ratio = std::clamp(ratio, 0.0, 1.0);
  auto [it, inserted] = triple_table_.try_emplace(TripleKey(a, b, c), ratio);
  if (!inserted && ratio > it->second) {
    it->second = ratio;
  } else if (!inserted) {
    return;
  }
  ++version_;
}

double EroTable::GetTriple(AppId a, AppId b, AppId c) const {
  const auto it = triple_table_.find(TripleKey(a, b, c));
  return it == triple_table_.end() ? -1.0 : it->second;
}

bool EroTable::ContainsTriple(AppId a, AppId b, AppId c) const {
  return triple_table_.find(TripleKey(a, b, c)) != triple_table_.end();
}

void ColocationGroup::Add(AppId app, double cpu, double cpu_request) {
  for (Rep& r : reps_) {
    if (r.app != app) {
      continue;
    }
    if (cpu > r.cpu) {
      r.cpu2 = r.cpu;
      r.cpu2_request = r.cpu_request;
      r.cpu = cpu;
      r.cpu_request = cpu_request;
      r.has_second = true;
    } else if (!r.has_second || cpu > r.cpu2) {
      r.cpu2 = cpu;
      r.cpu2_request = cpu_request;
      r.has_second = true;
    }
    return;
  }
  reps_.push_back(Rep{app, cpu, cpu_request});
}

template <typename Emit>
void ColocationGroup::ForEachObservation(size_t triple_cap, Emit&& emit) {
  const size_t n = reps_.size();
  for (size_t a = 0; a < n; ++a) {
    const Rep& ra = reps_[a];
    if (ra.has_second && ra.cpu_request + ra.cpu2_request > 0) {
      emit(EroObservation{ra.app, ra.app, kInvalidAppId,
                          (ra.cpu + ra.cpu2) / (ra.cpu_request + ra.cpu2_request)});
    }
    for (size_t b = a + 1; b < n; ++b) {
      const Rep& rb = reps_[b];
      const double denom = ra.cpu_request + rb.cpu_request;
      if (denom > 0) {
        emit(EroObservation{ra.app, rb.app, kInvalidAppId, (ra.cpu + rb.cpu) / denom});
      }
    }
  }
  const size_t k = std::min(triple_cap, n);
  if (k < 3) {
    return;
  }
  // The heaviest k representatives in a total order, so the selection and
  // each triple's summation order do not depend on the order of Add calls.
  top_.clear();
  for (const Rep& r : reps_) {
    top_.push_back(&r);
  }
  std::partial_sort(top_.begin(), top_.begin() + static_cast<std::ptrdiff_t>(k), top_.end(),
                    [](const Rep* x, const Rep* y) {
                      return x->cpu != y->cpu ? x->cpu > y->cpu : x->app < y->app;
                    });
  for (size_t x = 0; x < k; ++x) {
    for (size_t y = x + 1; y < k; ++y) {
      for (size_t z = y + 1; z < k; ++z) {
        const double denom = top_[x]->cpu_request + top_[y]->cpu_request + top_[z]->cpu_request;
        if (denom > 0) {
          emit(EroObservation{top_[x]->app, top_[y]->app, top_[z]->app,
                              (top_[x]->cpu + top_[y]->cpu + top_[z]->cpu) / denom});
        }
      }
    }
  }
}

void ColocationGroup::ObserveInto(EroTable* ero, size_t triple_cap) {
  ForEachObservation(triple_cap, [ero](const EroObservation& o) { ero->Apply(o); });
}

void ColocationGroup::CollectChanges(const EroTable& ero, size_t triple_cap,
                                     std::vector<EroObservation>* out) {
  ForEachObservation(triple_cap, [&](const EroObservation& o) {
    if (ero.WouldChange(o)) {
      out->push_back(o);
    }
  });
}

}  // namespace optum
