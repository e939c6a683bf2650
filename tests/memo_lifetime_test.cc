// The engine memo's lifetime (DESIGN.md §14): an engine-private memo holds
// only pairs whose endpoints are both still live. These suites pin
//  * PairTable::Retain, the arena rebuild behind it, including a table that
//    went through the epoch wrap;
//  * bit-identity of the pruned memoized filter against the unpruned
//    oracle — a memoize=false engine over MemoizingComparator — on the
//    serial backend and the parallel backend at threads {1, 2, 8}, with
//    the global loss counter on and off: candidates, paid, issued, cache
//    hits and trace bytes;
//  * that after every round the memo holds no pair with a dead endpoint,
//    that SharedPairCache tables are never pruned, and that a checkpoint
//    taken at boundary >= 2 (pruned memo inside) resumes bit-identically;
//  * the memo size gauges, recorded off the AlgoTrace channel.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/pair_key.h"
#include "core/pair_table.h"
#include "core/round_engine.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {

class PairTableTestPeer {
 public:
  /// The state after Clear() ran until the epoch counter reached `epoch`
  /// (no wrap in between): every entry dead, capacity kept.
  static void ClearUpToEpoch(PairTable* table, uint32_t epoch) {
    CROWDMAX_CHECK(epoch > table->epoch_);
    table->Clear();
    table->epoch_ = epoch;
  }
};

namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

// --- PairTable::Retain -----------------------------------------------------

TEST(PairTableRetainTest, KeepsMatchingEntriesAndCountsDropped) {
  PairTable table;
  for (ElementId a = 0; a < 100; ++a) table.Set(PackPairKey(a, a + 1), a);
  const int64_t dropped = table.Retain(
      [](uint64_t /*key*/, ElementId value) { return value % 10 == 0; }, 0);
  EXPECT_EQ(dropped, 90);
  EXPECT_EQ(table.size(), 10);
  for (ElementId a = 0; a < 100; ++a) {
    const ElementId* slot = table.Find(PackPairKey(a, a + 1));
    if (a % 10 == 0) {
      ASSERT_NE(slot, nullptr) << a;
      EXPECT_EQ(*slot, a);
    } else {
      EXPECT_EQ(slot, nullptr) << a;
    }
  }
}

TEST(PairTableRetainTest, ReservedWindowPinsSlotPointers) {
  PairTable table;
  for (ElementId a = 0; a < 50; ++a) table.Set(PackPairKey(a, 1000), a);
  table.Retain([](uint64_t, ElementId) { return true; }, /*additional=*/5000);
  ElementId* pinned = table.Find(PackPairKey(7, 1000));
  ASSERT_NE(pinned, nullptr);
  for (ElementId a = 0; a < 5000; ++a) {
    bool inserted = false;
    table.Insert(PackPairKey(a, 2000), a, &inserted);
    ASSERT_TRUE(inserted);
  }
  // No rehash happened: the old pointer is still the entry's slot.
  EXPECT_EQ(table.Find(PackPairKey(7, 1000)), pinned);
  EXPECT_EQ(*pinned, 7);
  EXPECT_EQ(table.size(), 5050);
}

TEST(PairTableRetainTest, RebuildAfterEpochWrapResurrectsNothing) {
  PairTable table;
  // Entries stamped with the very first epoch, then cleared all the way to
  // the last epoch before the wrap.
  for (ElementId a = 0; a < 40; ++a) table.Set(PackPairKey(a, 500), a);
  PairTableTestPeer::ClearUpToEpoch(&table, 0xFFFFFFFFu);
  EXPECT_TRUE(table.empty());
  for (ElementId a = 0; a < 40; ++a) table.Set(PackPairKey(a, 600), a);
  table.Clear();  // Wraps: slots hard-reset, epoch back to the first one.
  EXPECT_TRUE(table.empty());
  for (ElementId a = 0; a < 20; ++a) table.Set(PackPairKey(a, 700), -a);

  const int64_t dropped = table.Retain(
      [](uint64_t key, ElementId /*value*/) { return (key & 1) == 0; },
      /*additional=*/100);
  EXPECT_EQ(dropped, 10);
  EXPECT_EQ(table.size(), 10);
  for (const auto& [key, value] : table.SortedEntries()) {
    EXPECT_EQ(key >> 32, 700u);
    EXPECT_EQ(key & 1, 0u);
    EXPECT_EQ(value, -static_cast<ElementId>(key & 0xFFFFFFFFu));
  }
  // Neither pre-wrap generation came back.
  for (ElementId a = 0; a < 40; ++a) {
    EXPECT_EQ(table.Find(PackPairKey(a, 500)), nullptr);
    EXPECT_EQ(table.Find(PackPairKey(a, 600)), nullptr);
  }
}

// --- the pruned memo against the unpruned oracle ---------------------------

struct FilterRun {
  std::vector<ElementId> candidates;
  int64_t paid = 0;
  int64_t issued = 0;
  int64_t cache_hits = 0;
  std::string trace;
};

FilterOptions MemoFilterOptions(const Instance& instance, bool loss_counter) {
  FilterOptions options;
  options.u_n = instance.CountWithin(instance.DeltaForU(5));
  options.memoize = true;
  options.global_loss_counter = loss_counter;
  return options;
}

FilterRun RunOnEngine(const Instance& instance, const FilterOptions& options,
                      RoundEngine* engine) {
  FilterRun run;
  AlgoTrace trace;
  {
    ScopedTrace scope(&trace);
    Result<FilterEngineRun> result =
        RunFilterOnEngine(instance.AllElements(), options, engine);
    CROWDMAX_CHECK(result.ok());
    run.candidates = result->filter.candidates;
    run.paid = result->filter.paid_comparisons;
    run.issued = result->filter.issued_comparisons;
  }
  run.cache_hits = engine->cache_hits();
  run.trace = trace.Summary();
  return run;
}

// The unpruned reference: every pair goes through a MemoizingComparator,
// whose cache keeps every pair ever asked.
FilterRun RunOracle(const Instance& instance, const FilterOptions& options,
                    Comparator* inner) {
  MemoizingComparator memo(inner);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&memo, /*memoize=*/false);
  FilterRun run = RunOnEngine(instance, options, engine.get());
  run.cache_hits = memo.cache_hits();
  return run;
}

void ExpectSameRun(const FilterRun& got, const FilterRun& want,
                   const std::string& at) {
  EXPECT_EQ(got.candidates, want.candidates) << at;
  EXPECT_EQ(got.paid, want.paid) << at;
  EXPECT_EQ(got.issued, want.issued) << at;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << at;
  EXPECT_EQ(got.trace, want.trace) << at;
}

TEST(MemoLifetimeTest, SerialPrunedMemoMatchesUnprunedOracle) {
  const Instance instance = MakeInstance(900, 11);
  const double delta = instance.DeltaForU(5);
  for (bool loss_counter : {true, false}) {
    const FilterOptions options = MemoFilterOptions(instance, loss_counter);
    ThresholdComparator oracle_inner(&instance, ThresholdModel{delta, 0.1},
                                     31);
    const FilterRun want = RunOracle(instance, options, &oracle_inner);
    ASSERT_GT(want.cache_hits, 0) << "the memo must matter in this run";

    ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1}, 31);
    std::unique_ptr<RoundEngine> engine =
        RoundEngine::CreateSerial(&naive, /*memoize=*/true);
    ExpectSameRun(RunOnEngine(instance, options, engine.get()), want,
                  "serial, loss_counter=" + std::to_string(loss_counter));
  }
}

TEST(MemoLifetimeTest, ParallelPrunedMemoMatchesUnprunedOracle) {
  // Parallel forks draw from their own RNG streams, so the worker must
  // answer deterministically for the serial oracle to apply: every hard
  // comparison is answered wrongly, which keeps the filter busy.
  const Instance instance = MakeInstance(900, 12);
  const double delta = instance.DeltaForU(5);
  for (bool loss_counter : {true, false}) {
    const FilterOptions options = MemoFilterOptions(instance, loss_counter);
    AdversarialComparator oracle_inner(&instance, delta,
                                       AdversarialPolicy::kLowerValueWins);
    const FilterRun want = RunOracle(instance, options, &oracle_inner);
    ASSERT_GT(want.cache_hits, 0) << "the memo must matter in this run";
    for (int64_t threads : {1, 2, 8}) {
      AdversarialComparator naive(&instance, delta,
                                  AdversarialPolicy::kLowerValueWins);
      Result<std::unique_ptr<RoundEngine>> engine =
          RoundEngine::CreateParallel(&naive, threads, /*seed=*/5,
                                      /*memoize=*/true);
      ASSERT_TRUE(engine.ok());
      ExpectSameRun(RunOnEngine(instance, options, engine->get()), want,
                    "threads=" + std::to_string(threads) +
                        ", loss_counter=" + std::to_string(loss_counter));
    }
  }
}

TEST(MemoLifetimeTest, ExecutorPrunedMemoMatchesUnprunedOracle) {
  const Instance instance = MakeInstance(900, 13);
  const double delta = instance.DeltaForU(5);
  const FilterOptions options = MemoFilterOptions(instance, true);
  AdversarialComparator oracle_inner(&instance, delta,
                                     AdversarialPolicy::kLowerValueWins);
  const FilterRun want = RunOracle(instance, options, &oracle_inner);

  AdversarialComparator naive(&instance, delta,
                              AdversarialPolicy::kLowerValueWins);
  ComparatorBatchExecutor executor(&naive);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(&executor);
  ASSERT_TRUE(engine.ok());
  // The executor backend records its own trace cells, so only the run
  // itself is compared.
  const FilterRun got = RunOnEngine(instance, options, engine->get());
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.paid, want.paid);
  EXPECT_EQ(got.issued, want.issued);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
}

// --- what the memo holds between rounds ------------------------------------

// The parts of a filter checkpoint this suite inspects.
struct Snapshot {
  int64_t issued = 0;
  int64_t cache_hits = 0;
  PairTable memo;
  std::vector<ElementId> survivors;
};

// Walks the checkpoint layout of RoundEngine::SerializeCheckpoint up to
// the filter's survivor list. `stack` is a comparator of the run's type;
// reading its section into it just skips the section.
Snapshot ParseCheckpoint(const std::string& bytes, Comparator* stack) {
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  CROWDMAX_CHECK(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  Snapshot snapshot;
  reader.ExpectTag(CheckpointTag("DRV "));
  reader.ReadI64();  // paid_start
  reader.ReadI64();  // rounds executed
  reader.ExpectTag(CheckpointTag("ENG "));
  reader.ReadI64();  // paid base
  reader.ReadI64();  // steps base
  snapshot.issued = reader.ReadI64();
  snapshot.cache_hits = reader.ReadI64();
  for (int i = 0; i < 6; ++i) reader.ReadI64();  // pipeline + speculation
  reader.ReadRngState();
  reader.ExpectTag(CheckpointTag("CACH"));
  LoadPairTable(&reader, &snapshot.memo);
  CROWDMAX_CHECK(stack->LoadState(&reader).ok());
  reader.ExpectTag(CheckpointTag("SRC "));
  reader.ExpectTag(CheckpointTag("FLT "));
  reader.ReadIdVector(&snapshot.survivors);
  CROWDMAX_CHECK(reader.status().ok());
  return snapshot;
}

TEST(MemoLifetimeTest, MemoHoldsNoDeadPairAfterAnyRound) {
  const Instance instance = MakeInstance(900, 14);
  const double delta = instance.DeltaForU(5);
  for (bool loss_counter : {true, false}) {
    for (int64_t threads : {0, 2}) {
      const FilterOptions options = MemoFilterOptions(instance, loss_counter);
      const std::string at = "threads=" + std::to_string(threads) +
                             ", loss_counter=" + std::to_string(loss_counter);
      // live = the survivors the round being checked started from.
      std::vector<ElementId> live = instance.AllElements();
      int64_t pruned_rounds = 0;
      for (int64_t boundary = 1;; ++boundary) {
        ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1}, 41);
        std::unique_ptr<RoundEngine> engine;
        if (threads == 0) {
          engine = RoundEngine::CreateSerial(&naive, /*memoize=*/true);
        } else {
          engine = std::move(RoundEngine::CreateParallel(
                                 &naive, threads, /*seed=*/3, true))
                       .value();
        }
        CheckpointController controller;
        controller.ArmCrashAtBoundary(boundary);
        engine->set_checkpoint(&controller);
        Result<FilterEngineRun> run =
            RunFilterOnEngine(instance.AllElements(), options, engine.get());
        if (run.ok()) break;  // Fewer boundaries than `boundary`.
        ASSERT_EQ(run.status().code(), StatusCode::kAborted) << at;

        ThresholdComparator scratch(&instance, ThresholdModel{delta, 0.1}, 0);
        const Snapshot snapshot =
            ParseCheckpoint(controller.checkpoint(), &scratch);
        const std::unordered_set<ElementId> alive(live.begin(), live.end());
        snapshot.memo.ForEach([&](uint64_t key, ElementId /*winner*/) {
          const ElementId lo = static_cast<ElementId>(key & 0xFFFFFFFFu);
          const ElementId hi = static_cast<ElementId>(key >> 32);
          EXPECT_TRUE(alive.count(lo) == 1 && alive.count(hi) == 1)
              << at << ": round " << boundary << " memo holds dead pair {"
              << lo << ", " << hi << "}";
        });
        // Unpruned, the memo would hold every pair bought so far.
        const int64_t bought = snapshot.issued - snapshot.cache_hits;
        EXPECT_LE(snapshot.memo.size(), bought) << at;
        if (snapshot.memo.size() < bought) ++pruned_rounds;
        live = snapshot.survivors;
      }
      EXPECT_GT(pruned_rounds, 0) << at;
    }
  }
}

TEST(MemoLifetimeTest, SharedCacheIsNeverPruned) {
  const Instance instance = MakeInstance(900, 15);
  const double delta = instance.DeltaForU(5);
  FilterOptions options = MemoFilterOptions(instance, true);
  SharedPairCache cache;
  options.shared_cache = &cache;
  ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1}, 51);
  Result<FilterResult> result =
      FilterCandidates(instance.AllElements(), options, &naive);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->rounds, 1);
  // Every pair bought stays available to later engines on the cache.
  EXPECT_EQ(cache.ResolvedPairs(options.cache_class),
            result->paid_comparisons);
}

TEST(MemoLifetimeTest, CheckpointAfterPruningResumesBitIdentically) {
  const Instance instance = MakeInstance(900, 16);
  const double delta = instance.DeltaForU(5);
  for (bool loss_counter : {true, false}) {
    for (int64_t threads : {0, 2}) {
      const FilterOptions options = MemoFilterOptions(instance, loss_counter);
      auto make_engine = [&](Comparator* naive) {
        if (threads == 0) return RoundEngine::CreateSerial(naive, true);
        return std::move(
                   RoundEngine::CreateParallel(naive, threads, /*seed=*/9,
                                               true))
            .value();
      };
      ThresholdComparator baseline_naive(&instance,
                                         ThresholdModel{delta, 0.1}, 61);
      std::unique_ptr<RoundEngine> baseline_engine =
          make_engine(&baseline_naive);
      Result<FilterEngineRun> baseline = RunFilterOnEngine(
          instance.AllElements(), options, baseline_engine.get());
      ASSERT_TRUE(baseline.ok());
      ASSERT_GE(baseline->filter.rounds, 3);

      for (int64_t boundary : {2, 3}) {
        const std::string at = "threads=" + std::to_string(threads) +
                               ", loss_counter=" +
                               std::to_string(loss_counter) +
                               ", boundary=" + std::to_string(boundary);
        CheckpointController crash;
        crash.ArmCrashAtBoundary(boundary);
        {
          ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1},
                                    61);
          std::unique_ptr<RoundEngine> engine = make_engine(&naive);
          engine->set_checkpoint(&crash);
          Result<FilterEngineRun> crashed =
              RunFilterOnEngine(instance.AllElements(), options, engine.get());
          ASSERT_EQ(crashed.status().code(), StatusCode::kAborted) << at;
        }
        ThresholdComparator naive(&instance, ThresholdModel{delta, 0.1}, 61);
        std::unique_ptr<RoundEngine> engine = make_engine(&naive);
        CheckpointController resume;
        resume.ResumeFrom(crash.checkpoint());
        engine->set_checkpoint(&resume);
        Result<FilterEngineRun> resumed =
            RunFilterOnEngine(instance.AllElements(), options, engine.get());
        ASSERT_TRUE(resumed.ok()) << at << ": " << resumed.status().ToString();
        EXPECT_EQ(resume.restores(), 1) << at;
        EXPECT_EQ(resumed->filter.candidates, baseline->filter.candidates)
            << at;
        EXPECT_EQ(resumed->filter.paid_comparisons,
                  baseline->filter.paid_comparisons)
            << at;
        EXPECT_EQ(resumed->filter.issued_comparisons,
                  baseline->filter.issued_comparisons)
            << at;
        EXPECT_EQ(resumed->filter.evicted_by_loss_counter,
                  baseline->filter.evicted_by_loss_counter)
            << at;
        EXPECT_EQ(engine->cache_hits(), baseline_engine->cache_hits()) << at;
        EXPECT_EQ(naive.num_comparisons(), baseline_naive.num_comparisons())
            << at;
      }
    }
  }
}

// --- memo size gauges ------------------------------------------------------

TEST(MemoLifetimeTest, MemoGaugesRecordOffTheTrace) {
  const Instance instance = MakeInstance(900, 17);
  const FilterOptions options = MemoFilterOptions(instance, true);
  auto run = [&] {
    AdversarialComparator naive(&instance, instance.DeltaForU(5),
                                AdversarialPolicy::kLowerValueWins);
    std::unique_ptr<RoundEngine> engine =
        RoundEngine::CreateSerial(&naive, /*memoize=*/true);
    return RunOnEngine(instance, options, engine.get());
  };
  MetricsRegistry* registry = MetricsRegistry::Default();
  registry->Reset();
  const FilterRun off = run();
  EXPECT_EQ(registry->GetGauge("crowdmax.engine.memo_entries")->value(), 0);
  EXPECT_EQ(registry->GetCounter("crowdmax.engine.memo_pruned")->value(), 0);

  SetMetricsEnabled(true);
  const FilterRun on = run();
  SetMetricsEnabled(false);
  const int64_t peak =
      registry->GetGauge("crowdmax.engine.memo_entries")->value();
  const int64_t pruned =
      registry->GetCounter("crowdmax.engine.memo_pruned")->value();
  registry->Reset();
  // The peak is the whole first round: every pair of it was bought.
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, on.paid);
  EXPECT_GT(pruned, 0);
  EXPECT_LT(pruned, on.paid);
  ExpectSameRun(on, off, "metrics on vs off");
}

}  // namespace
}  // namespace crowdmax
