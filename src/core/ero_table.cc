#include "src/core/ero_table.h"

#include <algorithm>

#include "src/common/check.h"

namespace optum {

size_t EroTable::EnsureSlot(AppId app) {
  OPTUM_CHECK_GE(app, 0);
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
  // Sort the three ids, then pack into 20-bit fields (app ids are dense and
  // far below 2^20 in any realistic deployment).
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  constexpr uint64_t kMask = (1ULL << 20) - 1;
  return ((static_cast<uint64_t>(static_cast<uint32_t>(a)) & kMask) << 40) |
         ((static_cast<uint64_t>(static_cast<uint32_t>(b)) & kMask) << 20) |
         (static_cast<uint64_t>(static_cast<uint32_t>(c)) & kMask);
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

}  // namespace optum
