// Pairwise Effective Resource usage cOefficient table (paper §4.2.2).
//
// For applications A and B, ERO(A, B) is the maximum over time and over all
// co-located pod pairs (p in A, q in B) of
//     RO_{p,q}(t) = (Cu_p(t) + Cu_q(t)) / (Cr_p + Cr_q)  <= 1,
// i.e. the worst observed joint usage-to-request ratio. The key insight
// (Eq. 3) is that the peak of a sum is far below the sum of peaks, so ERO
// yields much tighter usage predictions than per-pod peak methods.
// Unseen application pairs default to 1.0 (fully conservative).
//
// Get() runs for every pod pair of every scored candidate, so pairs live in
// a dense symmetric matrix over a compact index of the observed
// applications (AppId -> slot, a vector linear in the largest observed id):
// a lookup is three indexed loads, never a hash probe.
#ifndef OPTUM_SRC_CORE_ERO_TABLE_H_
#define OPTUM_SRC_CORE_ERO_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace optum {

// One observation a co-location sample makes: the pair (a, b) when c is
// kInvalidAppId, else the triple (a, b, c); ratio as passed to Observe.
struct EroObservation {
  AppId a;
  AppId b;
  AppId c;
  double ratio;
};

class EroTable {
 public:
  // Records one co-location observation; keeps the running maximum.
  // ratio must already be RO_{p,q}(t); values are clamped to [0, 1]. App
  // ids must lie in [0, kAppIdLimit).
  void Observe(AppId a, AppId b, double ratio);

  // Observe or ObserveTriple, as o says.
  void Apply(const EroObservation& o) {
    if (o.c == kInvalidAppId) {
      Observe(o.a, o.b, o.ratio);
    } else {
      ObserveTriple(o.a, o.b, o.c, o.ratio);
    }
  }

  // False exactly when Apply(o) would return early on the table as it
  // stands: the negation of Observe's `cell >= ratio` and of ObserveTriple's
  // "present and not raised". Stored values only rise, so an observation
  // this rejects stays a no-op whatever is applied before it (the one
  // exception, a pair cell set to NaN, is in DESIGN.md §8 "ERO
  // extraction"). Reads only; safe beside other readers.
  bool WouldChange(const EroObservation& o) const {
    const double ratio = std::clamp(o.ratio, 0.0, 1.0);
    if (o.c == kInvalidAppId) {
      return !(Stored(o.a, o.b) >= ratio);
    }
    const auto it = triple_table_.find(TripleKey(o.a, o.b, o.c));
    return it == triple_table_.end() || ratio > it->second;
  }

  // ERO(A, B); symmetric; 1.0 for never-observed pairs.
  double Get(AppId a, AppId b) const {
    const double v = Stored(a, b);
    return v < 0.0 ? 1.0 : v;
  }

  // Returns true when the pair has at least one observation.
  bool Contains(AppId a, AppId b) const { return Stored(a, b) >= 0.0; }

  // Number of distinct observed pairs.
  size_t size() const { return pair_count_; }

  // ---- Triple-wise extension (paper §4.2.2) --------------------------------
  // "ERO can also be extended to a triple-wise metric, under which the
  // profiling of resource usage is performed for each combination of three
  // applications and achieve more precise resource utilization prediction.
  // However, it can incur large profiling overhead."
  //
  // Triples are optional: when a triple has never been observed, the
  // Resource Usage Predictor falls back to the tightest request-weighted
  // combination of one pairwise ERO plus the leftover pod's full request
  // (the same bound the pairwise predictor would use).

  // Records a joint observation of three co-located pods (order-free). App
  // ids must lie in [0, kAppIdLimit).
  void ObserveTriple(AppId a, AppId b, AppId c, double ratio);

  // ERO(A, B, C): the observed triple maximum, or a negative value when
  // the triple has never been observed.
  double GetTriple(AppId a, AppId b, AppId c) const;

  bool ContainsTriple(AppId a, AppId b, AppId c) const;

  size_t triple_size() const { return triple_table_.size(); }

  // Bumped whenever an Observe/ObserveTriple call changes a stored value.
  // Consumers that cache ERO-derived predictions validate against it.
  uint64_t version() const { return version_; }

 private:
  // Marks a never-observed cell; observed values are clamped to [0, 1].
  static constexpr double kUnobserved = -1.0;

  // Compact slot of `app`, or -1 when the app appears in no observed pair.
  int32_t SlotOf(AppId app) const {
    return app >= 0 && static_cast<size_t>(app) < slot_of_.size()
               ? slot_of_[static_cast<size_t>(app)]
               : -1;
  }
  // The stored matrix cell for (a, b): kUnobserved when never observed.
  double Stored(AppId a, AppId b) const {
    const int32_t sa = SlotOf(a);
    const int32_t sb = SlotOf(b);
    if (sa < 0 || sb < 0) {
      return kUnobserved;
    }
    return pairs_[static_cast<size_t>(sa) * stride_ + static_cast<size_t>(sb)];
  }
  // SlotOf(app), assigning the next slot (and growing the matrix) first when
  // the app has none.
  size_t EnsureSlot(AppId app);
  static uint64_t TripleKey(AppId a, AppId b, AppId c);

  std::vector<int32_t> slot_of_;  // indexed by AppId; -1 = no slot
  size_t num_slots_ = 0;
  // stride_ x stride_ row-major, symmetric, stride_ >= num_slots_; cells
  // beyond num_slots_ stay kUnobserved.
  std::vector<double> pairs_;
  size_t stride_ = 0;
  size_t pair_count_ = 0;
  std::unordered_map<uint64_t, double> triple_table_;
  uint64_t version_ = 0;
};

// One co-location sample: the pods of one host at one tick, reduced to the
// ERO observations they make (Eq. 4-5). The offline profiler feeds it each
// (tick, host) group of a trace, the scheduler each live host; both go
// through the same ObserveInto, so the two tables cannot drift.
//
// Per application it keeps the two highest-usage pods. Pod requests are
// homogeneous within an application, so these representatives realize the
// maximum RO over all co-located pod pairs, both across applications and
// within one (the full cross-product would be quadratic in pods per host).
// Each unordered pair and each triple is observed at most once per sample,
// so the order in which pods are added changes neither a stored value nor
// the version bump count (DESIGN.md "ERO extraction").
class ColocationGroup {
 public:
  void Reset() { reps_.clear(); }

  void Add(AppId app, double cpu, double cpu_request);

  // Observes the same-application pairs, then the cross-application pairs,
  // then the triples among the `triple_cap` heaviest representatives
  // (ordered by cpu descending, app id ascending; 0 or < 3 observes no
  // triple). A ratio whose request sum is not positive is skipped.
  void ObserveInto(EroTable* ero, size_t triple_cap);

  // Appends to *out, in ObserveInto's order, the observations that
  // ero.WouldChange; ObserveInto would leave every other one a no-op.
  // Reads `ero` only, so groups can collect concurrently against a table
  // nobody writes meanwhile.
  void CollectChanges(const EroTable& ero, size_t triple_cap,
                      std::vector<EroObservation>* out);

 private:
  // Calls emit(observation) for each observation ObserveInto makes, in its
  // order; the one place Eq. 4-5 is evaluated.
  template <typename Emit>
  void ForEachObservation(size_t triple_cap, Emit&& emit);

  struct Rep {
    AppId app;
    double cpu;  // highest usage
    double cpu_request;
    bool has_second = false;
    double cpu2 = 0.0;  // second-highest usage, when has_second
    double cpu2_request = 0.0;
  };
  std::vector<Rep> reps_;         // first-seen order, one per application
  std::vector<const Rep*> top_;   // triple scratch
};

}  // namespace optum

#endif  // OPTUM_SRC_CORE_ERO_TABLE_H_
