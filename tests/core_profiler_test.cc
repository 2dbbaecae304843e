// Tests for src/core profiling: the ERO table, offline profiler extraction,
// memory-stability gate, MAPE gate, and the pairwise usage predictor
// arithmetic (Eq. 7-8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/ero_table.h"
#include "src/core/offline_profiler.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sim/cluster.h"
#include "src/stats/rng.h"

namespace optum::core {
namespace {

TEST(EroTableTest, DefaultsToOne) {
  EroTable ero;
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 1.0);
  EXPECT_FALSE(ero.Contains(1, 2));
}

TEST(EroTableTest, KeepsMaximum) {
  EroTable ero;
  ero.Observe(1, 2, 0.3);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.3);
  ero.Observe(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.5);
  ero.Observe(1, 2, 0.2);
  EXPECT_DOUBLE_EQ(ero.Get(1, 2), 0.5);
}

TEST(EroTableTest, Symmetric) {
  EroTable ero;
  ero.Observe(3, 7, 0.4);
  EXPECT_DOUBLE_EQ(ero.Get(7, 3), 0.4);
  EXPECT_TRUE(ero.Contains(7, 3));
}

TEST(EroTableTest, ClampsToUnitInterval) {
  EroTable ero;
  ero.Observe(1, 1, 1.7);
  EXPECT_DOUBLE_EQ(ero.Get(1, 1), 1.0);
  ero.Observe(2, 2, -0.5);
  EXPECT_DOUBLE_EQ(ero.Get(2, 2), 0.0);
}

TEST(EroTableTest, SelfPairsSupported) {
  EroTable ero;
  ero.Observe(5, 5, 0.25);
  EXPECT_DOUBLE_EQ(ero.Get(5, 5), 0.25);
  EXPECT_EQ(ero.size(), 1u);
}

// Random Observe sequences against a std::map reference: after every step
// the table agrees on version() and size(), and periodic sweeps over every
// id pair — ids never observed, ids past the largest observed one, negative
// ids and self-pairs included — agree on Get and Contains. Ratios fall
// outside [0, 1] (clamped), and every fifth step re-observes a stored pair
// at or below its value, which must not bump the version.
TEST(EroTablePropertyTest, MatchesMapReferenceUnderRandomObservations) {
  constexpr AppId kObservedIds = 300;  // several growths of the pair matrix
  constexpr AppId kQueriedIds = 320;
  Rng rng(31);
  EroTable ero;
  std::map<std::pair<AppId, AppId>, double> reference;
  uint64_t version = 0;
  const auto check_all_pairs = [&] {
    for (AppId a = -1; a < kQueriedIds; ++a) {
      for (AppId b = -1; b < kQueriedIds; ++b) {
        const auto it = reference.find(std::minmax(a, b));
        const bool observed = it != reference.end();
        ASSERT_EQ(ero.Contains(a, b), observed) << a << ", " << b;
        ASSERT_EQ(ero.Get(a, b), observed ? it->second : 1.0) << a << ", " << b;
      }
    }
  };
  for (int step = 0; step < 4000; ++step) {
    AppId a = static_cast<AppId>(rng.NextBelow(kObservedIds));
    AppId b = step % 7 == 0 ? a : static_cast<AppId>(rng.NextBelow(kObservedIds));
    double ratio = rng.Uniform(-0.3, 1.3);
    if (step % 5 == 0 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(reference.size())));
      std::tie(b, a) = it->first;  // reversed order reads the same pair
      ratio = it->second * rng.Uniform(0.0, 1.0);
    }
    ero.Observe(a, b, ratio);
    const double clamped = std::clamp(ratio, 0.0, 1.0);
    const auto [it, inserted] = reference.try_emplace(std::minmax(a, b), clamped);
    if (inserted) {
      ++version;
    } else if (clamped > it->second) {
      it->second = clamped;
      ++version;
    }
    ASSERT_EQ(ero.version(), version) << "step " << step;
    ASSERT_EQ(ero.size(), reference.size()) << "step " << step;
    if (step % 500 == 0 || step == 3999) {
      check_all_pairs();
    }
  }
}

TEST(EroTablePropertyTest, CopiesStayIndependent) {
  EroTable original;
  original.Observe(1, 2, 0.4);
  EroTable copy = original;
  copy.Observe(2, 1, 0.9);
  copy.Observe(3, 40, 0.1);  // a new app on the copy only
  EXPECT_EQ(original.Get(1, 2), 0.4);
  EXPECT_FALSE(original.Contains(3, 40));
  EXPECT_EQ(original.size(), 1u);
  EXPECT_EQ(original.version(), 1u);
  original.Observe(5, 5, 0.3);
  EXPECT_FALSE(copy.Contains(5, 5));
  EXPECT_EQ(copy.Get(1, 2), 0.9);
  EXPECT_EQ(copy.Get(40, 3), 0.1);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.version(), 3u);
}

// --- The shared co-location step (Eq. 4-5) ------------------------------------

// Random hosts fed through ColocationGroup, against a brute-force reference
// of the definition: per host, the maximum RO over every co-located pod
// pair, and over every pod triple of three distinct applications among the
// triple_cap heaviest (per-app peak usage descending, app id ascending),
// each triple summed in that order. Requests are per application, as in
// the workload generator. Hosts hold 1 to 12 pods of up to 14 applications
// (more than the cap of 4); a quarter of the usages are zero and another
// quarter sit on a few shared levels, so ties occur. After every host the
// table agrees with the reference on version(), size() and triple_size(),
// and periodic sweeps agree on every pair and triple value.
TEST(ColocationGroupPropertyTest, MatchesBruteForceDefinition) {
  constexpr AppId kApps = 14;
  constexpr size_t kTripleCap = 4;
  Rng rng(53);
  std::vector<double> request(kApps);
  for (double& r : request) {
    r = 0.05 * static_cast<double>(1 + rng.NextBelow(8));
  }
  EroTable ero;
  ColocationGroup group;
  std::map<std::pair<AppId, AppId>, double> pairs;
  std::map<std::tuple<AppId, AppId, AppId>, double> triples;
  uint64_t version = 0;
  const auto observe = [&version](auto& table, const auto& key, double ratio) {
    ratio = std::clamp(ratio, 0.0, 1.0);
    const auto [it, inserted] = table.try_emplace(key, ratio);
    if (inserted || ratio > it->second) {
      it->second = ratio;
      ++version;
    }
  };
  const auto sorted_triple = [](AppId a, AppId b, AppId c) {
    AppId ids[3] = {a, b, c};
    std::sort(ids, ids + 3);
    return std::make_tuple(ids[0], ids[1], ids[2]);
  };
  const auto check_all = [&] {
    for (AppId a = 0; a < kApps; ++a) {
      for (AppId b = 0; b < kApps; ++b) {
        const auto it = pairs.find(std::minmax(a, b));
        ASSERT_EQ(ero.Contains(a, b), it != pairs.end()) << a << ", " << b;
        ASSERT_EQ(ero.Get(a, b), it != pairs.end() ? it->second : 1.0) << a << ", " << b;
        for (AppId c = 0; c < kApps; ++c) {
          const auto t = triples.find(sorted_triple(a, b, c));
          ASSERT_EQ(ero.GetTriple(a, b, c), t != triples.end() ? t->second : -1.0)
              << a << ", " << b << ", " << c;
        }
      }
    }
  };
  struct Pod {
    AppId app;
    double cpu;
  };
  size_t single_pod_hosts = 0, zero_usages = 0, capped_hosts = 0, tied_hosts = 0;
  for (int host = 0; host < 3000; ++host) {
    const size_t num_apps = 1 + rng.NextBelow(kApps);
    std::vector<Pod> pods(1 + rng.NextBelow(12));
    for (Pod& pod : pods) {
      pod.app = static_cast<AppId>(rng.NextBelow(num_apps));
      const uint64_t kind = rng.NextBelow(4);
      pod.cpu = kind == 0   ? 0.0
                : kind == 1 ? 0.05 * static_cast<double>(1 + rng.NextBelow(3))
                            : rng.Uniform(0.0, 1.5 * request[static_cast<size_t>(pod.app)]);
      zero_usages += pod.cpu == 0.0 ? 1 : 0;
    }
    single_pod_hosts += pods.size() == 1 ? 1 : 0;
    group.Reset();
    for (const Pod& pod : pods) {
      group.Add(pod.app, pod.cpu, request[static_cast<size_t>(pod.app)]);
    }
    group.ObserveInto(&ero, kTripleCap);

    // Reference pairs: every co-located pod pair, same application included.
    const auto req = [&](const Pod& p) { return request[static_cast<size_t>(p.app)]; };
    std::map<std::pair<AppId, AppId>, double> host_pairs;
    for (size_t i = 0; i < pods.size(); ++i) {
      for (size_t j = i + 1; j < pods.size(); ++j) {
        const double ratio = (pods[i].cpu + pods[j].cpu) / (req(pods[i]) + req(pods[j]));
        const auto [it, inserted] =
            host_pairs.try_emplace(std::minmax(pods[i].app, pods[j].app), ratio);
        it->second = std::max(it->second, ratio);
      }
    }
    // Reference triples: rank applications by peak usage, keep the cap.
    std::map<AppId, double> peak;
    for (const Pod& pod : pods) {
      const auto [it, inserted] = peak.try_emplace(pod.app, pod.cpu);
      it->second = std::max(it->second, pod.cpu);
    }
    std::vector<AppId> ranked;
    for (const auto& [app, cpu] : peak) {
      ranked.push_back(app);
    }
    std::sort(ranked.begin(), ranked.end(), [&](AppId x, AppId y) {
      return peak[x] != peak[y] ? peak[x] > peak[y] : x < y;
    });
    capped_hosts += ranked.size() > kTripleCap ? 1 : 0;
    for (size_t r = 0; r + 1 < std::min(ranked.size(), kTripleCap); ++r) {
      tied_hosts += peak[ranked[r]] == peak[ranked[r + 1]] ? 1 : 0;
    }
    if (ranked.size() > kTripleCap) {
      ranked.resize(kTripleCap);
    }
    const auto rank = [&](AppId app) {
      return static_cast<size_t>(std::find(ranked.begin(), ranked.end(), app) - ranked.begin());
    };
    std::map<std::tuple<AppId, AppId, AppId>, double> host_triples;
    for (size_t i = 0; i < pods.size(); ++i) {
      for (size_t j = i + 1; j < pods.size(); ++j) {
        for (size_t l = j + 1; l < pods.size(); ++l) {
          const Pod* three[3] = {&pods[i], &pods[j], &pods[l]};
          std::sort(three, three + 3,
                    [&](const Pod* x, const Pod* y) { return rank(x->app) < rank(y->app); });
          if (rank(three[2]->app) >= ranked.size() || three[0]->app == three[1]->app ||
              three[1]->app == three[2]->app) {
            continue;
          }
          const double ratio = (three[0]->cpu + three[1]->cpu + three[2]->cpu) /
                               (req(*three[0]) + req(*three[1]) + req(*three[2]));
          const auto [it, inserted] = host_triples.try_emplace(
              sorted_triple(three[0]->app, three[1]->app, three[2]->app), ratio);
          it->second = std::max(it->second, ratio);
        }
      }
    }
    for (const auto& [key, ratio] : host_pairs) {
      observe(pairs, key, ratio);
    }
    for (const auto& [key, ratio] : host_triples) {
      observe(triples, key, ratio);
    }
    ASSERT_EQ(ero.version(), version) << "host " << host;
    ASSERT_EQ(ero.size(), pairs.size()) << "host " << host;
    ASSERT_EQ(ero.triple_size(), triples.size()) << "host " << host;
    if (host % 500 == 0 || host == 2999) {
      check_all();
    }
  }
  // The cases the step must get right all occurred.
  EXPECT_GT(single_pod_hosts, 0u);
  EXPECT_GT(zero_usages, 0u);
  EXPECT_GT(capped_hosts, 0u);
  EXPECT_GT(tied_hosts, 0u);
}

// App ids outside [0, kAppIdLimit) are a programmer error on in-memory
// inputs (ReadTraceBundle rejects them in files): a negative id has no
// slot, and 2^20 would pack into the same triple key as 0.
TEST(EroTableTest, ChecksAppIdRange) {
  EroTable ero;
  ero.ObserveTriple(kAppIdLimit - 1, 1, 2, 0.5);
  EXPECT_EQ(ero.GetTriple(0, 1, 2), -1.0);
  EXPECT_DEATH(ero.Observe(-1, 0, 0.5), "app");
  EXPECT_DEATH(ero.Observe(0, kAppIdLimit, 0.5), "kAppIdLimit");
  EXPECT_DEATH(ero.ObserveTriple(kAppIdLimit, 1, 2, 0.5), "kAppIdLimit");
  EXPECT_DEATH(ero.GetTriple(-1, 1, 2), "CHECK failed");
}

// WouldChange is the exact negation of Apply's early return: for every
// stored state and observation, it holds exactly when Apply bumps
// version(). Covers absent cells, equal and lower ratios, ratios outside
// [0, 1] (clamped onto a stored 0 or 1), NaN ratios and NaN cells.
TEST(EroTableTest, WouldChangeIsExactlyWhetherApplyBumps) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kRatios[] = {-0.5, 0.0, 0.3, 0.5, 1.0, 1.7, kNaN};
  for (const bool triple : {false, true}) {
    for (const bool present : {false, true}) {
      for (const double stored : kRatios) {
        for (const double ratio : kRatios) {
          SCOPED_TRACE(::testing::Message() << "triple " << triple << " present " << present
                                            << " stored " << stored << " ratio " << ratio);
          EroTable ero;
          ero.Observe(0, 1, 0.4);  // apps 1 and 2 share no cell yet
          ero.Observe(0, 2, 0.4);
          const AppId c = triple ? 3 : kInvalidAppId;
          if (present) {
            ero.Apply(EroObservation{1, 2, c, stored});
          }
          const EroObservation o{2, 1, c, ratio};
          const bool would_change = ero.WouldChange(o);
          const uint64_t before = ero.version();
          ero.Apply(o);
          EXPECT_EQ(would_change, ero.version() != before);
        }
      }
    }
  }
}

// The online refresh's crew split against the serial refresh it replaced.
// Each round collects every host's CollectChanges against the table as it
// stood when the round began, then applies them host by host in order; a
// copy of the table takes the same hosts through ObserveInto. Rounds chain
// on one table pre-populated with random pairs (and triples), in pairwise
// and triple-wise mode, and after every round the two agree on every pair
// and triple value, version(), size() and triple_size(). The hosts include
// ratios above 1 (clamped), ratios equal to the stored value (hosts
// repeated from the previous round or within the round), zero request sums
// (applications that request no CPU) and applications seen for the first
// time (new slots, with the pair matrix growing past 16, 32 and 64 slots).
TEST(ColocationGroupPropertyTest, CrewSplitMatchesSerialObserveInto) {
  constexpr AppId kApps = 72;
  constexpr AppId kPrepopulated = 12;
  constexpr size_t kHostsPerRound = 24;
  struct Pod {
    AppId app;
    double cpu;
  };
  Rng rng(71);
  std::vector<double> request(kApps);
  for (double& r : request) {
    r = rng.NextBelow(6) == 0 ? 0.0 : 0.05 * static_cast<double>(1 + rng.NextBelow(8));
  }
  const auto pick = [&rng](AppId n) { return static_cast<AppId>(rng.NextBelow(n)); };
  const auto slots = [](const EroTable& ero) {
    size_t n = 0;
    for (AppId a = 0; a < kApps; ++a) {
      bool has_slot = false;
      for (AppId b = 0; b < kApps && !has_slot; ++b) {
        has_slot = ero.Contains(a, b);
      }
      n += has_slot ? 1 : 0;
    }
    return n;
  };
  for (const size_t triple_cap : {size_t{0}, SIZE_MAX}) {
    SCOPED_TRACE(triple_cap == 0 ? "pairwise" : "triple-wise");
    EroTable split;
    for (int i = 0; i < 40; ++i) {
      const AppId a = pick(kPrepopulated);
      const AppId b = pick(kPrepopulated);
      const AppId c = pick(kPrepopulated);
      split.Observe(a, b, rng.Uniform(0.0, 1.0));
      if (triple_cap != 0 && a != b && b != c && a != c) {
        split.ObserveTriple(a, b, c, rng.Uniform(0.0, 1.0));
      }
    }
    EroTable serial = split;
    ColocationGroup group;
    const auto load = [&group, &request](const std::vector<Pod>& pods) {
      group.Reset();
      for (const Pod& pod : pods) {
        group.Add(pod.app, pod.cpu, request[static_cast<size_t>(pod.app)]);
      }
    };
    std::vector<std::vector<Pod>> hosts, previous;
    std::vector<std::vector<EroObservation>> changes(kHostsPerRound);
    std::vector<EroObservation> all;
    size_t clamped = 0, equal_drops = 0, zero_sums = 0, first_seen = 0;
    for (int round = 0; round < 30; ++round) {
      const AppId apps = std::min<AppId>(kApps, kPrepopulated + 4 * round);
      hosts.clear();
      for (size_t h = 0; h < kHostsPerRound; ++h) {
        const uint64_t kind = rng.NextBelow(8);
        if (kind < 2 && !previous.empty()) {
          hosts.push_back(previous[rng.NextBelow(previous.size())]);
          continue;
        }
        if (kind == 2 && !hosts.empty()) {
          hosts.push_back(hosts[rng.NextBelow(hosts.size())]);
          continue;
        }
        std::vector<Pod> pods(1 + rng.NextBelow(10));
        size_t zero_requests = 0;
        for (Pod& pod : pods) {
          pod.app = pick(apps);
          const double req = request[static_cast<size_t>(pod.app)];
          pod.cpu = rng.NextBelow(3) == 0 ? 0.05 * static_cast<double>(rng.NextBelow(4))
                                          : rng.Uniform(0.0, req > 0 ? 1.6 * req : 0.1);
          zero_requests += req == 0.0 ? 1 : 0;
        }
        zero_sums += zero_requests >= 2 ? 1 : 0;
        hosts.push_back(std::move(pods));
      }

      const size_t slots_before = slots(split);
      for (size_t h = 0; h < hosts.size(); ++h) {
        load(hosts[h]);
        // Every observation the host makes (an empty table keeps them all),
        // to count the cases the filter meets.
        all.clear();
        group.CollectChanges(EroTable{}, triple_cap, &all);
        for (const EroObservation& o : all) {
          clamped += o.ratio > 1.0 ? 1 : 0;
          const double stored =
              o.c == kInvalidAppId ? split.Get(o.a, o.b) : split.GetTriple(o.a, o.b, o.c);
          equal_drops += !split.WouldChange(o) && stored == std::clamp(o.ratio, 0.0, 1.0) ? 1 : 0;
        }
        changes[h].clear();
        group.CollectChanges(split, triple_cap, &changes[h]);
      }
      for (const std::vector<EroObservation>& host_changes : changes) {
        for (const EroObservation& o : host_changes) {
          split.Apply(o);
        }
      }
      first_seen += slots(split) - slots_before;
      for (const std::vector<Pod>& pods : hosts) {
        load(pods);
        group.ObserveInto(&serial, triple_cap);
      }

      ASSERT_EQ(split.version(), serial.version()) << "round " << round;
      ASSERT_EQ(split.size(), serial.size()) << "round " << round;
      ASSERT_EQ(split.triple_size(), serial.triple_size()) << "round " << round;
      for (AppId a = 0; a < kApps; ++a) {
        for (AppId b = a; b < kApps; ++b) {
          ASSERT_EQ(split.Contains(a, b), serial.Contains(a, b)) << a << ", " << b;
          ASSERT_EQ(split.Get(a, b), serial.Get(a, b)) << a << ", " << b;
          for (AppId c = b + 1; triple_cap != 0 && c < kApps; ++c) {
            ASSERT_EQ(split.GetTriple(a, b, c), serial.GetTriple(a, b, c))
                << a << ", " << b << ", " << c;
          }
        }
      }
      previous = hosts;
    }
    EXPECT_GT(clamped, 0u);
    EXPECT_GT(equal_drops, 0u);
    EXPECT_GT(zero_sums, 0u);
    EXPECT_GT(first_seen, 64u - kPrepopulated);
    EXPECT_EQ(serial.triple_size() > 0, triple_cap != 0);
  }
}

// --- Offline profiler on a hand-crafted trace --------------------------------

// Builds a trace with two apps co-located on one host:
//   app 0 (LS): 2 pods, request 0.2 CPU / 0.1 mem
//   app 1 (BE): 2 pods, request 0.1 CPU / 0.05 mem
TraceBundle CraftedTrace() {
  TraceBundle trace;
  trace.nodes.push_back(NodeMeta{0, kUnitResources});
  auto add_pod = [&](PodId id, AppId app, SloClass slo, Resources request) {
    PodMeta meta;
    meta.pod_id = id;
    meta.app_id = app;
    meta.slo = slo;
    meta.request = request;
    meta.limit = request * 2.0;
    meta.original_machine_id = 0;
    trace.pods.push_back(meta);
  };
  add_pod(0, 0, SloClass::kLs, {0.2, 0.1});
  add_pod(1, 0, SloClass::kLs, {0.2, 0.1});
  add_pod(2, 1, SloClass::kBe, {0.1, 0.05});
  add_pod(3, 1, SloClass::kBe, {0.1, 0.05});

  // 200 ticks of records; usage constant per pod.
  const double cpu[4] = {0.05, 0.06, 0.03, 0.02};
  const double mem[4] = {0.05, 0.05, 0.045, 0.045};
  for (Tick t = 0; t < 200; ++t) {
    double host_cpu = 0, host_mem = 0;
    for (int p = 0; p < 4; ++p) {
      host_cpu += cpu[p];
      host_mem += mem[p];
    }
    trace.node_usage.push_back(NodeUsageRecord{0, t, host_cpu, host_mem, 0, 0});
    for (int p = 0; p < 4; ++p) {
      PodUsageRecord rec;
      rec.pod_id = p;
      rec.host = 0;
      rec.collect_tick = t;
      rec.cpu_usage = cpu[p];
      rec.mem_usage = mem[p];
      rec.cpu_psi_60 = p < 2 ? 0.2 : 0.0;  // LS pods see some pressure
      rec.qps = p < 2 ? 100 : 0;
      trace.pod_usage.push_back(rec);
    }
  }
  // BE lifecycles.
  for (int p = 2; p < 4; ++p) {
    PodLifecycleRecord rec;
    rec.pod_id = p;
    rec.app_id = 1;
    rec.slo = SloClass::kBe;
    rec.submit_tick = 0;
    rec.schedule_tick = 0;
    rec.finish_tick = 100 + p;
    rec.actual_completion_ticks = 100 + p;
    rec.ideal_completion_ticks = 90;
    trace.lifecycles.push_back(rec);
  }
  return trace;
}

TEST(OfflineProfilerTest, EroFromCraftedTrace) {
  OfflineProfiler profiler;
  const EroTable ero = profiler.BuildEroTable(CraftedTrace());
  // Cross pair: reps are pod1 (0.06) and pod2 (0.03):
  // RO = (0.06+0.03)/(0.2+0.1) = 0.3.
  EXPECT_NEAR(ero.Get(0, 1), 0.3, 1e-9);
  // Same-app pair for app 0: (0.06+0.05)/0.4 = 0.275.
  EXPECT_NEAR(ero.Get(0, 0), 0.275, 1e-9);
  // Same-app pair for app 1: (0.03+0.02)/0.2 = 0.25.
  EXPECT_NEAR(ero.Get(1, 1), 0.25, 1e-9);
}

TEST(OfflineProfilerTest, ExtractsDatasetsWithCorrectShapes) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  ASSERT_TRUE(datasets.ls.count(0));
  ASSERT_TRUE(datasets.be.count(1));
  const ml::Dataset& ls = datasets.ls.at(0);
  EXPECT_EQ(ls.num_features(), kLsFeatureCount);
  EXPECT_EQ(ls.size(), 400u);  // 2 pods x 200 ticks
  const ml::Dataset& be = datasets.be.at(1);
  EXPECT_EQ(be.num_features(), kBeFeatureCount);
  EXPECT_EQ(be.size(), 2u);  // one sample per completed pod
}

TEST(OfflineProfilerTest, AppStatsMaxima) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  const AppStats& ls = datasets.stats.at(0);
  EXPECT_NEAR(ls.max_pod_cpu_util, 0.06 / 0.2, 1e-9);
  EXPECT_NEAR(ls.max_qps, 100, 1e-9);
  const AppStats& be = datasets.stats.at(1);
  EXPECT_NEAR(be.max_completion_ticks, 103, 1e-9);
}

TEST(OfflineProfilerTest, MemProfileGate) {
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(CraftedTrace());
  // Both apps have perfectly stable memory: profile = max utilization.
  EXPECT_NEAR(datasets.stats.at(0).mem_profile, 0.05 / 0.1, 1e-9);
  EXPECT_NEAR(datasets.stats.at(1).mem_profile, 0.045 / 0.05, 1e-9);
}

TEST(OfflineProfilerTest, UnstableMemoryGetsConservativeProfile) {
  TraceBundle trace = CraftedTrace();
  // Make app 0's pods diverge in memory (CoV >> 0.01).
  for (auto& rec : trace.pod_usage) {
    if (rec.pod_id == 0) {
      rec.mem_usage = 0.02;
    } else if (rec.pod_id == 1) {
      rec.mem_usage = 0.09;
    }
  }
  OfflineProfiler profiler;
  const AppDatasets datasets = profiler.ExtractDatasets(trace);
  EXPECT_DOUBLE_EQ(datasets.stats.at(0).mem_profile, 1.0);
}

TEST(OfflineProfilerTest, BuildProfilesTrainsLsModel) {
  OfflineProfilerConfig config;
  config.min_samples = 50;
  config.evaluate_holdout = false;
  OfflineProfiler profiler(config);
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  const AppModel* ls = profiles.Find(0);
  ASSERT_NE(ls, nullptr);
  EXPECT_TRUE(ls->usable());
  // Prediction near the constant 0.2 PSI (discretized to 0.2 with 25
  // buckets: bucket upper bound of 0.2 is 0.2).
  const double features[kLsFeatureCount] = {0.3, 0.5, 0.16, 0.19, 1.0};
  EXPECT_NEAR(ls->model->Predict(features), 0.2, 0.05);
}

TEST(OfflineProfilerTest, TooFewSamplesYieldsNoModel) {
  OfflineProfilerConfig config;
  config.min_samples = 10;  // BE app has only 2 samples
  OfflineProfiler profiler(config);
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  const AppModel* be = profiles.Find(1);
  ASSERT_NE(be, nullptr);
  EXPECT_FALSE(be->usable());
  // Stats still available for the usage predictor.
  EXPECT_GT(be->stats.mem_profile, 0.0);
}

TEST(OfflineProfilerTest, UnknownAppAbsent) {
  OfflineProfiler profiler;
  const OptumProfiles profiles = profiler.BuildProfiles(CraftedTrace());
  EXPECT_EQ(profiles.Find(999), nullptr);
}

// --- ResourceUsagePredictor (Eq. 7-8) ----------------------------------------

class UsagePredictorFixture : public ::testing::Test {
 protected:
  UsagePredictorFixture() : cluster_(1, kUnitResources, 8) {
    app_a_.id = 0;
    app_a_.slo = SloClass::kLs;
    app_a_.request = {0.2, 0.1};
    app_b_.id = 1;
    app_b_.slo = SloClass::kBe;
    app_b_.request = {0.1, 0.05};

    profiles_.ero.Observe(0, 1, 0.4);
    profiles_.ero.Observe(0, 0, 0.3);
    AppModel model_a;
    model_a.stats.slo = SloClass::kLs;
    model_a.stats.mem_profile = 0.5;
    profiles_.apps.emplace(0, std::move(model_a));
    AppModel model_b;
    model_b.stats.slo = SloClass::kBe;
    model_b.stats.mem_profile = 0.9;
    profiles_.apps.emplace(1, std::move(model_b));
  }

  PodSpec Pod(PodId id, const AppProfile& app) {
    PodSpec pod;
    pod.id = id;
    pod.app = app.id;
    pod.slo = app.slo;
    pod.request = app.request;
    pod.limit = app.request * 2.0;
    return pod;
  }

  ClusterState cluster_;
  AppProfile app_a_, app_b_;
  OptumProfiles profiles_;
};

TEST_F(UsagePredictorFixture, EmptyHostWithIncomingIsFullRequest) {
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec pod = Pod(1, app_a_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &pod);
  // Single (odd) pod: full CPU request; memory via profile 0.5.
  EXPECT_NEAR(predicted.cpu, 0.2, 1e-12);
  EXPECT_NEAR(predicted.mem, 0.05, 1e-12);
}

TEST_F(UsagePredictorFixture, PairUsesEro) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(2, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // Pair (A,B): ERO 0.4 * (0.2 + 0.1) = 0.12.
  EXPECT_NEAR(predicted.cpu, 0.12, 1e-12);
  // Memory: 0.5*0.1 + 0.9*0.05.
  EXPECT_NEAR(predicted.mem, 0.095, 1e-12);
}

TEST_F(UsagePredictorFixture, OddPodContributesFullRequest) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(3, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // Pair (A,A): 0.3 * 0.4 = 0.12; odd B: 0.1 full.
  EXPECT_NEAR(predicted.cpu, 0.22, 1e-12);
}

TEST_F(UsagePredictorFixture, UnknownPairDefaultsToFullRequests) {
  AppProfile stranger;
  stranger.id = 42;
  stranger.slo = SloClass::kBe;
  stranger.request = {0.3, 0.1};
  cluster_.Place(Pod(1, stranger), &stranger, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(2, app_a_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  // ERO(42, 0) unseen -> 1.0: full 0.3 + 0.2.
  EXPECT_NEAR(predicted.cpu, 0.5, 1e-12);
  // Unknown app memory profile defaults to 1.0.
  EXPECT_NEAR(predicted.mem, 0.1 + 0.05, 1e-12);
}

TEST_F(UsagePredictorFixture, PredictWithoutIncoming) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_b_), &app_b_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), nullptr);
  EXPECT_NEAR(predicted.cpu, 0.4 * 0.3, 1e-12);
}

TEST_F(UsagePredictorFixture, PocNeverExceedsRequestSum) {
  // Property: with all ERO <= 1, POC <= sum of requests (Eq. 3).
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  cluster_.Place(Pod(2, app_b_), &app_b_, 0, 0);
  cluster_.Place(Pod(3, app_a_), &app_a_, 0, 0);
  ResourceUsagePredictor predictor(&profiles_);
  const PodSpec incoming = Pod(4, app_b_);
  const Resources predicted = predictor.PredictHost(cluster_.host(0), &incoming);
  const double request_sum = 0.2 + 0.1 + 0.2 + 0.1;
  EXPECT_LE(predicted.cpu, request_sum + 1e-12);
}

TEST_F(UsagePredictorFixture, AdapterMatchesImpl) {
  cluster_.Place(Pod(1, app_a_), &app_a_, 0, 0);
  OptumUsagePredictorAdapter adapter(&profiles_);
  ResourceUsagePredictor impl(&profiles_);
  EXPECT_DOUBLE_EQ(adapter.PredictHostCpu(cluster_.host(0)),
                   impl.PredictHost(cluster_.host(0), nullptr).cpu);
  EXPECT_EQ(adapter.name(), "Optum");
}

}  // namespace
}  // namespace optum::core
