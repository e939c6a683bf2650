// The RoundEngine contract (core/round_engine.h): one execution core
// behind every algorithm. These suites pin
//  * cross-backend equivalence — the serial engine, the parallel engine at
//    threads {2, 8}, and the executor-backed engine produce identical
//    results for every ported RoundSource when worker answers are
//    deterministic (the backends may only differ through RNG draw order,
//    which an oracle never consumes);
//  * the single budget enforcement point — serial and batched runs charge
//    identically around the FilterOptions::max_comparisons boundary, even
//    when memoization makes a re-grouped pair free while the worst-case
//    round gate still counts it;
//  * the engine-owned counters (paid / issued / cache_hits /
//    logical_steps) and the backend guard rails (Fork probing,
//    SupportsPartialEvidence).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/maxfind.h"
#include "core/resilient.h"
#include "core/round_engine.h"
#include "core/pair_key.h"
#include "core/tournament.h"
#include "core/trace.h"
#include "core/worker_model.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

class UnforkableComparator : public Comparator {
 public:
  explicit UnforkableComparator(const Instance* instance)
      : instance_(instance) {}

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    return instance_->value(a) >= instance_->value(b) ? a : b;
  }
  const Instance* instance_;
};

// Builds every backend over its own oracle comparator/executor so counters
// are per-run. Index 0 = serial, 1..2 = parallel {2, 8}, 3 = executor.
struct BackendRig {
  std::vector<std::unique_ptr<OracleComparator>> comparators;
  std::vector<std::unique_ptr<ComparatorBatchExecutor>> executors;
  std::vector<std::unique_ptr<RoundEngine>> engines;
  std::vector<std::string> names;
};

BackendRig MakeAllBackends(const Instance& instance, bool memoize) {
  BackendRig rig;
  rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
  rig.engines.push_back(
      RoundEngine::CreateSerial(rig.comparators.back().get(), memoize));
  rig.names.push_back("serial");
  for (int64_t threads : {2, 8}) {
    rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
    Result<std::unique_ptr<RoundEngine>> parallel =
        RoundEngine::CreateParallel(rig.comparators.back().get(), threads,
                                    /*seed=*/99, memoize);
    CROWDMAX_CHECK(parallel.ok());
    rig.engines.push_back(std::move(parallel).value());
    rig.names.push_back("threads=" + std::to_string(threads));
  }
  rig.comparators.push_back(std::make_unique<OracleComparator>(&instance));
  rig.executors.push_back(
      std::make_unique<ComparatorBatchExecutor>(rig.comparators.back().get()));
  Result<std::unique_ptr<RoundEngine>> batched =
      RoundEngine::CreateBatched(rig.executors.back().get());
  CROWDMAX_CHECK(batched.ok());
  rig.engines.push_back(std::move(batched).value());
  rig.names.push_back("executor");
  return rig;
}

TEST(RoundEngineEquivalenceTest, FilterIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(500, 3);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.global_loss_counter = true;

  BackendRig rig = MakeAllBackends(instance, options.memoize);
  std::vector<FilterEngineRun> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<FilterEngineRun> run =
        RunFilterOnEngine(instance.AllElements(), options, engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].filter.candidates, runs[0].filter.candidates)
        << rig.names[i];
    EXPECT_EQ(runs[i].filter.rounds, runs[0].filter.rounds) << rig.names[i];
    EXPECT_EQ(runs[i].filter.round_sizes, runs[0].filter.round_sizes)
        << rig.names[i];
    EXPECT_EQ(runs[i].filter.paid_comparisons,
              runs[0].filter.paid_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].filter.issued_comparisons,
              runs[0].filter.issued_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].filter.evicted_by_loss_counter,
              runs[0].filter.evicted_by_loss_counter)
        << rig.names[i];
  }
}

TEST(RoundEngineEquivalenceTest, TwoMaxFindIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(200, 5);
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/true);
  std::vector<MaxFindEngineRun> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<MaxFindEngineRun> run =
        RunTwoMaxFindOnEngine(instance.AllElements(), engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  EXPECT_EQ(runs[0].maxfind.best, instance.MaxElement());
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].maxfind.best, runs[0].maxfind.best) << rig.names[i];
    EXPECT_EQ(runs[i].maxfind.rounds, runs[0].maxfind.rounds)
        << rig.names[i];
    EXPECT_EQ(runs[i].maxfind.paid_comparisons,
              runs[0].maxfind.paid_comparisons)
        << rig.names[i];
    EXPECT_EQ(runs[i].maxfind.issued_comparisons,
              runs[0].maxfind.issued_comparisons)
        << rig.names[i];
  }
}

TEST(RoundEngineEquivalenceTest, RandomizedMaxFindIdenticalAcrossBackends) {
  Instance instance = MakeInstance(700, 7);
  RandomizedMaxFindOptions options;
  options.seed = 17;
  options.group_size_override = 20;

  // The source's own sampling RNG is seeded by options, so every backend
  // replays the same partitions. The executor backend may pay less (its
  // in-round cache survives into the witness tournament) but must issue
  // the same comparisons and elect the same element.
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/false);
  std::vector<MaxFindEngineRun> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<MaxFindEngineRun> run = RunRandomizedMaxFindOnEngine(
        instance.AllElements(), engine.get(), options);
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->partial);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].maxfind.best, runs[0].maxfind.best) << rig.names[i];
    EXPECT_EQ(runs[i].maxfind.rounds, runs[0].maxfind.rounds)
        << rig.names[i];
    EXPECT_EQ(runs[i].maxfind.issued_comparisons,
              runs[0].maxfind.issued_comparisons)
        << rig.names[i];
  }
  // The comparator backends replay each other bit-for-bit, paid included.
  EXPECT_EQ(runs[1].maxfind.paid_comparisons,
            runs[0].maxfind.paid_comparisons);
  EXPECT_EQ(runs[2].maxfind.paid_comparisons,
            runs[0].maxfind.paid_comparisons);
}

TEST(RoundEngineEquivalenceTest, TournamentIdenticalAcrossAllBackends) {
  Instance instance = MakeInstance(40, 11);
  BackendRig rig = MakeAllBackends(instance, /*memoize=*/false);
  std::vector<TournamentEngineRun> runs;
  for (std::unique_ptr<RoundEngine>& engine : rig.engines) {
    Result<TournamentEngineRun> run =
        RunTournamentOnEngine(instance.AllElements(), engine.get());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->unresolved, 0);
    runs.push_back(*std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].tournament.wins, runs[0].tournament.wins)
        << rig.names[i];
    EXPECT_EQ(runs[i].tournament.comparisons, runs[0].tournament.comparisons)
        << rig.names[i];
  }
}

// The budget regression the refactor exists for: one enforcement point.
// With memoization on, a pair re-grouped into a later round is free (a
// cache hit), while the budget gate still prices the round at its full
// pair count. Serial and batched runs must agree exactly — candidates,
// paid, stop flag — at every budget, including right at the boundary.
TEST(RoundEngineBudgetTest, SerialAndBatchedChargeIdenticallyAtBoundary) {
  Instance instance = MakeInstance(420, 13);
  const double delta = instance.DeltaForU(9);

  ThresholdComparator::Options worker;
  worker.model = ThresholdModel{delta, 0.0};
  worker.tie_policy = TiePolicy::kPersistentArbitrary;

  FilterOptions options;
  options.u_n = instance.CountWithin(delta);
  options.memoize = true;

  // Unbudgeted reference run, to find real boundaries and to prove the
  // memoized cache actually served re-grouped pairs (issued > paid).
  ThresholdComparator probe_worker(&instance, worker, /*seed=*/14);
  Result<FilterResult> probe =
      FilterCandidates(instance.AllElements(), options, &probe_worker);
  ASSERT_TRUE(probe.ok());
  ASSERT_GT(probe->issued_comparisons, probe->paid_comparisons)
      << "instance does not exercise memoized re-grouping";
  const int64_t total = probe->paid_comparisons;

  for (int64_t budget :
       {total / 4, total / 2, total - 1, total, total + 1}) {
    if (budget < 1) continue;
    options.max_comparisons = budget;

    ThresholdComparator serial_worker(&instance, worker, /*seed=*/14);
    Result<FilterResult> serial =
        FilterCandidates(instance.AllElements(), options, &serial_worker);
    ASSERT_TRUE(serial.ok());

    ThresholdComparator batch_worker(&instance, worker, /*seed=*/14);
    ComparatorBatchExecutor executor(&batch_worker);
    Result<BatchedFilterResult> batched = BatchedFilterCandidates(
        instance.AllElements(), options, &executor);
    ASSERT_TRUE(batched.ok());

    EXPECT_EQ(batched->filter.candidates, serial->candidates)
        << "budget=" << budget;
    EXPECT_EQ(batched->filter.paid_comparisons, serial->paid_comparisons)
        << "budget=" << budget;
    EXPECT_EQ(batched->filter.issued_comparisons,
              serial->issued_comparisons)
        << "budget=" << budget;
    EXPECT_EQ(batched->filter.rounds, serial->rounds) << "budget=" << budget;
    EXPECT_EQ(batched->filter.stopped_by_budget, serial->stopped_by_budget)
        << "budget=" << budget;
    EXPECT_LE(serial->paid_comparisons, budget) << "budget=" << budget;
  }
}

TEST(RoundEngineCountersTest, MemoizedSerialCountersReconcile) {
  Instance instance = MakeInstance(300, 19);
  OracleComparator oracle(&instance);
  const std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&oracle, /*memoize=*/true);
  FilterOptions options;
  options.u_n = 5;
  Result<FilterEngineRun> run =
      RunFilterOnEngine(instance.AllElements(), options, engine.get());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(engine->backend(), RoundEngine::Backend::kSerial);
  EXPECT_FALSE(engine->SupportsPartialEvidence());
  // paid = comparator spend; issued = every pair the sources emitted;
  // the difference is exactly the engine cache's work.
  EXPECT_EQ(engine->paid(), oracle.num_comparisons());
  EXPECT_EQ(engine->issued(), run->filter.issued_comparisons);
  EXPECT_EQ(engine->cache_hits(), engine->issued() - engine->paid());
  // Comparator backends predate step accounting.
  EXPECT_EQ(engine->logical_steps(), 0);
}

TEST(RoundEngineCountersTest, ExecutorBackendStepsMatchRounds) {
  Instance instance = MakeInstance(300, 23);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreateBatched(&executor);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->backend(), RoundEngine::Backend::kExecutor);
  EXPECT_TRUE((*engine)->SupportsPartialEvidence());
  FilterOptions options;
  options.u_n = 5;
  options.memoize = true;
  Result<FilterEngineRun> run =
      RunFilterOnEngine(instance.AllElements(), options, engine->get());
  ASSERT_TRUE(run.ok());
  // One batch — one logical step — per filter round.
  EXPECT_EQ((*engine)->logical_steps(), run->filter.rounds);
  EXPECT_EQ((*engine)->paid(), executor.comparisons());
}

// Cross-phase evidence sharing (DESIGN.md §11): engines created over the
// same SharedPairCache and worker-class id trade answers; different class
// ids never do.
TEST(SharedCacheTest, SecondEngineSameClassPaysOnlyMisses) {
  Instance instance = MakeInstance(24, 61);
  const std::vector<ElementId> items = instance.AllElements();
  const int64_t total = static_cast<int64_t>(items.size() * (items.size() - 1) / 2);
  SharedPairCache cache;

  // Phase 1: a full tournament buys every pair into class 1.
  OracleComparator oracle1(&instance);
  ComparatorBatchExecutor executor1(&oracle1);
  Result<std::unique_ptr<RoundEngine>> first =
      RoundEngine::CreateBatched(&executor1, &cache, /*cache_class=*/1);
  ASSERT_TRUE(first.ok());
  Result<TournamentEngineRun> run1 =
      RunTournamentOnEngine(items, first->get());
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ((*first)->paid(), total);
  EXPECT_EQ(cache.ResolvedPairs(1), total);

  // Phase 2 on the same class: every pair is a hit, nothing reaches the
  // executor, and the election is identical.
  OracleComparator oracle2(&instance);
  ComparatorBatchExecutor executor2(&oracle2);
  Result<std::unique_ptr<RoundEngine>> second =
      RoundEngine::CreateBatched(&executor2, &cache, /*cache_class=*/1);
  ASSERT_TRUE(second.ok());
  Result<TournamentEngineRun> run2 =
      RunTournamentOnEngine(items, second->get());
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ((*second)->issued(), total);
  EXPECT_EQ((*second)->paid(), 0);
  EXPECT_EQ((*second)->cache_hits(), total);
  EXPECT_EQ(executor2.comparisons(), 0);
  EXPECT_EQ(run2->tournament.wins, run1->tournament.wins);

  // A different worker class must not see that evidence: naive answers
  // never substitute for expert answers.
  OracleComparator oracle3(&instance);
  ComparatorBatchExecutor executor3(&oracle3);
  Result<std::unique_ptr<RoundEngine>> other_class =
      RoundEngine::CreateBatched(&executor3, &cache, /*cache_class=*/0);
  ASSERT_TRUE(other_class.ok());
  Result<TournamentEngineRun> run3 =
      RunTournamentOnEngine(items, other_class->get());
  ASSERT_TRUE(run3.ok());
  EXPECT_EQ((*other_class)->paid(), total);
  EXPECT_EQ((*other_class)->cache_hits(), 0);
}

// The serial (comparator) backend and the executor backend meet in one
// cache: a Phase-1 filter run on the serial engine seeds evidence a
// Phase-2 executor engine then reuses — the FindMaxWithExperts
// single-class (simulated-expert) regime in miniature.
TEST(SharedCacheTest, SerialFilterEvidenceVisibleToExecutorEngine) {
  Instance instance = MakeInstance(80, 67);
  SharedPairCache cache;

  OracleComparator filter_oracle(&instance);
  const std::unique_ptr<RoundEngine> filter_engine = RoundEngine::CreateSerial(
      &filter_oracle, /*memoize=*/true, &cache, /*cache_class=*/0);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  Result<FilterEngineRun> filtered = RunFilterOnEngine(
      instance.AllElements(), options, filter_engine.get());
  ASSERT_TRUE(filtered.ok());
  ASSERT_GT(filtered->filter.candidates.size(), 1u);

  // Phase 2 over the survivors, same class: the survivors met in filter
  // groups, so at least part of the tournament is already paid for.
  OracleComparator expert_oracle(&instance);
  ComparatorBatchExecutor executor(&expert_oracle);
  Result<std::unique_ptr<RoundEngine>> phase2 =
      RoundEngine::CreateBatched(&executor, &cache, /*cache_class=*/0);
  ASSERT_TRUE(phase2.ok());
  Result<TournamentEngineRun> run =
      RunTournamentOnEngine(filtered->filter.candidates, phase2->get());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->unresolved, 0);
  EXPECT_GT((*phase2)->cache_hits(), 0);
  EXPECT_EQ((*phase2)->paid(), (*phase2)->issued() - (*phase2)->cache_hits());
  EXPECT_EQ((*phase2)->paid(), executor.comparisons());
  // The cross-phase winner agrees with ground truth on an oracle crowd.
  EXPECT_EQ(filtered->filter.candidates[IndexOfMostWins(run->tournament)],
            instance.MaxElement());
}

// kUnresolvedWinner entries persist in a shared cache as "asked, no
// evidence" — the next engine re-issues exactly those pairs (and pays for
// them), never treating the sentinel as an answer.
TEST(SharedCacheTest, UnresolvedPairsReissuedByLaterPipelinedEngine) {
  Instance instance = MakeInstance(16, 71);
  const std::vector<ElementId> items = instance.AllElements();
  const int64_t total = static_cast<int64_t>(items.size() * (items.size() - 1) / 2);
  SharedPairCache cache;

  // Phase 1 over a dropping crowd: some pairs come back with no evidence
  // and are parked as sentinels in class 0.
  OracleComparator faulty_oracle(&instance);
  ComparatorBatchExecutor faulty_inner(&faulty_oracle);
  InjectedFaultOptions faults;
  faults.drop_probability = 0.3;
  faults.seed = 9;
  Result<std::unique_ptr<FaultInjectingBatchExecutor>> dropping =
      FaultInjectingBatchExecutor::Create(&faulty_inner, faults);
  ASSERT_TRUE(dropping.ok());
  Result<std::unique_ptr<RoundEngine>> first =
      RoundEngine::CreateBatched(dropping->get(), &cache, /*cache_class=*/0);
  ASSERT_TRUE(first.ok());
  Result<TournamentEngineRun> run1 = RunTournamentOnEngine(items, first->get());
  ASSERT_TRUE(run1.ok());
  ASSERT_GT(run1->unresolved, 0) << "seed does not exercise drops";
  EXPECT_EQ(cache.ResolvedPairs(0), total - run1->unresolved);

  // Phase 2 on a healthy pipelined engine, same cache and class: only the
  // parked pairs are re-bought; everything else is a hit.
  OracleComparator healthy_oracle(&instance);
  ComparatorBatchExecutor healthy_executor(&healthy_oracle);
  AsyncBatchAdapter async(&healthy_executor);
  Result<std::unique_ptr<RoundEngine>> second = RoundEngine::CreatePipelined(
      &async, /*max_in_flight=*/4, &cache, /*cache_class=*/0);
  ASSERT_TRUE(second.ok());
  Result<TournamentEngineRun> run2 = RunTournamentOnEngine(items, second->get());
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->unresolved, 0);
  EXPECT_EQ((*second)->issued(), total);
  EXPECT_EQ((*second)->paid(), run1->unresolved);
  EXPECT_EQ((*second)->cache_hits(), total - run1->unresolved);
  EXPECT_EQ(cache.ResolvedPairs(0), total);
}

// A source that emits the same pair in two rounds while claiming the
// rounds may overlap — the CanPipelineNextRound contract violation the
// pipelined drive must reject instead of racing on the cached answer.
class OverlappingPairSource : public RoundSource {
 public:
  Result<bool> NextRound(EngineRound* round) override {
    if (emitted_ >= 2) return false;
    RoundUnit unit;
    unit.pairs.push_back({0, 1});
    round->units.push_back(std::move(unit));
    ++emitted_;
    return true;
  }
  Status ConsumeOutcome(const EngineRound&, const RoundOutcome&) override {
    return Status::OK();
  }
  bool CanPipelineNextRound() const override { return true; }

 private:
  int64_t emitted_ = 0;
};

TEST(PipelinedEngineTest, OverlappingInFlightPairIsContractViolation) {
  Instance instance = MakeInstance(2, 73);
  OracleComparator oracle(&instance);
  ComparatorBatchExecutor executor(&oracle);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      RoundEngine::CreatePipelined(&async, /*max_in_flight=*/4);
  ASSERT_TRUE(engine.ok());

  OverlappingPairSource source;
  Result<DriveResult> drive = (*engine)->Drive(&source);
  ASSERT_FALSE(drive.ok());
  EXPECT_EQ(drive.status().code(), StatusCode::kInternal);
  EXPECT_NE(drive.status().ToString().find("still in flight"),
            std::string::npos);
}

// Depth 1 must degenerate to the synchronous executor path exactly; at
// depth > 1 the filter's disjoint groups overlap and the overlap counters
// move, with every result byte identical.
TEST(PipelinedEngineTest, PipelinedFilterMatchesBatchedAtEveryDepth) {
  Instance instance = MakeInstance(400, 79);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.pipeline_groups = true;

  OracleComparator batched_oracle(&instance);
  ComparatorBatchExecutor batched_executor(&batched_oracle);
  Result<BatchedFilterResult> reference = BatchedFilterCandidates(
      instance.AllElements(), options, &batched_executor);
  ASSERT_TRUE(reference.ok());

  for (int64_t depth : {int64_t{1}, int64_t{8}}) {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    BatchedPipelineOptions pipeline;
    pipeline.max_in_flight = depth;
    Result<BatchedFilterResult> piped = PipelinedFilterCandidates(
        instance.AllElements(), options, &async, pipeline);
    ASSERT_TRUE(piped.ok()) << "depth=" << depth;
    EXPECT_EQ(piped->filter.candidates, reference->filter.candidates)
        << "depth=" << depth;
    EXPECT_EQ(piped->filter.rounds, reference->filter.rounds)
        << "depth=" << depth;
    EXPECT_EQ(piped->filter.paid_comparisons,
              reference->filter.paid_comparisons)
        << "depth=" << depth;
    EXPECT_EQ(piped->filter.issued_comparisons,
              reference->filter.issued_comparisons)
        << "depth=" << depth;
    EXPECT_EQ(executor.comparisons(), batched_executor.comparisons())
        << "depth=" << depth;
    EXPECT_EQ(executor.logical_steps(), batched_executor.logical_steps())
        << "depth=" << depth;
  }
}

TEST(PipelinedEngineTest, OverlapCountersObserveDepth) {
  Instance instance = MakeInstance(400, 83);
  FilterOptions options;
  options.u_n = 6;
  options.memoize = true;
  options.pipeline_groups = true;

  // Depth 1: submissions never overlap.
  {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/1);
    ASSERT_TRUE(engine.ok());
    Result<FilterEngineRun> run = RunFilterOnEngine(
        instance.AllElements(), options, engine->get());
    ASSERT_TRUE(run.ok());
    EXPECT_EQ((*engine)->overlapped_rounds(), 0);
    EXPECT_EQ((*engine)->max_in_flight_observed(), 1);
  }
  // Depth 8: the per-round disjoint groups keep several rounds in flight.
  {
    OracleComparator oracle(&instance);
    ComparatorBatchExecutor executor(&oracle);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8);
    ASSERT_TRUE(engine.ok());
    Result<FilterEngineRun> run = RunFilterOnEngine(
        instance.AllElements(), options, engine->get());
    ASSERT_TRUE(run.ok());
    EXPECT_GT((*engine)->overlapped_rounds(), 0);
    EXPECT_GT((*engine)->max_in_flight_observed(), 1);
    EXPECT_LE((*engine)->max_in_flight_observed(), 8);
  }
}

// --- one resolve/store path for both executor drives ---------------------

// A round as its units' pair lists.
using ScriptedRound = std::vector<std::vector<ComparisonPair>>;

// Emits scripted logical phases of pairwise-disjoint engine rounds. Rounds
// inside a phase may ride in flight together (CanPipelineNextRound); a
// phase boundary is a barrier. Each phase is one trace round span, each
// engine round one batch span. Logs every outcome it consumes.
class ScriptedRoundSource : public RoundSource {
 public:
  struct Consumed {
    std::vector<std::vector<ElementId>> winners;
    int64_t unresolved = 0;
    StatusCode fault = StatusCode::kOk;
  };

  explicit ScriptedRoundSource(std::vector<std::vector<ScriptedRound>> phases)
      : phases_(std::move(phases)) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (phase_ >= phases_.size()) return false;
    const std::vector<ScriptedRound>& rounds = phases_[phase_];
    for (const std::vector<ComparisonPair>& pairs : rounds[index_]) {
      RoundUnit unit;
      unit.pairs = pairs;
      round->units.push_back(std::move(unit));
    }
    round->executor_span = "scripted";
    if (index_ == 0) round->open_round_executor = int64_t(phase_) + 1;
    round->close_round_executor = index_ + 1 == rounds.size();
    if (++index_ == rounds.size()) {
      ++phase_;
      index_ = 0;
    }
    return true;
  }

  Status ConsumeOutcome(const EngineRound&,
                        const RoundOutcome& outcome) override {
    log_.push_back({outcome.winners, outcome.unresolved, outcome.fault.code()});
    return Status::OK();
  }

  bool CanPipelineNextRound() const override { return index_ != 0; }

  const std::vector<Consumed>& log() const { return log_; }

 private:
  std::vector<std::vector<ScriptedRound>> phases_;
  size_t phase_ = 0;
  size_t index_ = 0;
  std::vector<Consumed> log_;
};

// Answers each task with its larger id, except that the first submission
// of `drop` comes back unanswered and submission number `outage` fails
// whole with a transient kUnavailable. Logs every task it is sent.
class ScriptedExecutor : public BatchExecutor {
 public:
  ScriptedExecutor(ComparisonPair drop, int64_t outage)
      : drop_(drop), outage_(outage) {}

  const std::vector<ComparisonPair>& sent() const { return sent_; }

 private:
  std::vector<ElementId> DoExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    std::vector<ElementId> winners;
    for (const ComparisonPair& task : tasks) {
      winners.push_back(std::max(task.first, task.second));
    }
    return winners;
  }

  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    sent_.insert(sent_.end(), tasks.begin(), tasks.end());
    if (submissions_++ == outage_) {
      return Status::Unavailable("scripted outage");
    }
    std::vector<BatchTaskResult> results;
    for (const ComparisonPair& task : tasks) {
      if (task == drop_ && !dropped_) {
        dropped_ = true;
        results.push_back(BatchTaskResult{-1, false, -1});
      } else {
        results.push_back(
            BatchTaskResult{std::max(task.first, task.second), true, -1});
      }
    }
    return results;
  }

  const ComparisonPair drop_;
  const int64_t outage_;
  int64_t submissions_ = 0;
  bool dropped_ = false;
  std::vector<ComparisonPair> sent_;
};

struct ScriptedRun {
  std::vector<ScriptedRoundSource::Consumed> log;
  int64_t issued = 0;
  int64_t paid = 0;
  int64_t cache_hits = 0;
  int64_t logical_steps = 0;
  int64_t max_in_flight_observed = 0;
  std::string trace;
  std::vector<std::pair<uint64_t, ElementId>> cache;
  std::vector<ComparisonPair> sent;
};

// Drives the script on CreateBatched (depth 0) or CreatePipelined(depth)
// over a fresh executor and a shared cache seeded with one answer,
// (16, 17), and one unresolved parking, (18, 19).
ScriptedRun RunScript(int64_t depth) {
  const std::vector<std::vector<ScriptedRound>> phases = {
      // In-round duplicate (0, 1) across units; (16, 17) hits the shared
      // cache; (4, 5) is dropped; the parked (18, 19) is bought again.
      {{{{0, 1}, {2, 3}}, {{0, 1}, {16, 17}}},
       {{{4, 5}, {6, 7}}},
       {{{8, 9}, {18, 19}}}},
      // The dropped pair is bought again and (0, 1) hits; the second
      // round's submission (the fifth) meets the outage.
      {{{{4, 5}, {0, 1}, {10, 11}}},
       {{{12, 13}}, {{14, 15}}},
       {{{20, 21}}}},
      // The outage's pairs are bought again; (2, 3) hits.
      {{{{12, 13}, {14, 15}, {2, 3}}}},
  };
  SharedPairCache cache;
  cache.ForClass(0)->Set(PackPairKey(16, 17), 17);
  cache.ForClass(0)->Set(PackPairKey(18, 19), kUnresolvedWinner);
  ScriptedExecutor executor({4, 5}, /*outage=*/4);
  AsyncBatchAdapter async(&executor);
  Result<std::unique_ptr<RoundEngine>> engine =
      depth == 0 ? RoundEngine::CreateBatched(&executor, &cache, 0)
                 : RoundEngine::CreatePipelined(&async, depth, &cache, 0);
  CROWDMAX_CHECK(engine.ok());

  ScriptedRoundSource source(phases);
  AlgoTrace trace;
  {
    ScopedTrace scoped(&trace);
    Result<DriveResult> drive = (*engine)->Drive(&source);
    CROWDMAX_CHECK(drive.ok());
  }
  ScriptedRun run;
  run.log = source.log();
  run.issued = (*engine)->issued();
  run.paid = (*engine)->paid();
  run.cache_hits = (*engine)->cache_hits();
  run.logical_steps = (*engine)->logical_steps();
  run.max_in_flight_observed = (*engine)->max_in_flight_observed();
  std::ostringstream json;
  trace.WriteJson(json);
  run.trace = json.str();
  run.cache = cache.ForClass(0)->SortedEntries();
  run.sent = executor.sent();
  return run;
}

TEST(ExecutorRoundPathTest, BatchedAndPipelinedShareResolveAndStore) {
  const ScriptedRun batched = RunScript(/*depth=*/0);

  // The script exercises what it claims to.
  ASSERT_EQ(batched.log.size(), 7u);
  EXPECT_EQ(std::count(batched.sent.begin(), batched.sent.end(),
                       ComparisonPair{0, 1}),
            1)
      << "the in-round duplicate must reach the executor once";
  EXPECT_EQ(batched.log[0].winners,
            (std::vector<std::vector<ElementId>>{{1, 3}, {1, 17}}));
  EXPECT_EQ(batched.log[1].unresolved, 1);  // (4, 5) dropped
  EXPECT_EQ(batched.log[1].winners[0][0], kUnresolvedWinner);
  EXPECT_EQ(batched.log[2].winners[0][1], 19);  // parking bought again
  EXPECT_EQ(batched.log[3].winners[0][0], 5);   // dropped pair bought again
  EXPECT_EQ(batched.log[4].fault, StatusCode::kUnavailable);
  EXPECT_EQ(batched.log[4].unresolved, 2);
  EXPECT_EQ(batched.log[6].winners,
            (std::vector<std::vector<ElementId>>{{13, 15, 3}}));
  // Hits: the duplicate, the shared (16, 17), (0, 1) again, (2, 3).
  EXPECT_EQ(batched.cache_hits, 4);
  EXPECT_EQ(batched.issued, 17);
  // Every miss is paid except the two the outage rejected.
  EXPECT_EQ(batched.paid, batched.issued - batched.cache_hits - 2);
  for (const auto& [key, winner] : batched.cache) {
    EXPECT_NE(winner, kUnresolvedWinner) << "key " << key;
  }

  for (int64_t depth : {int64_t{1}, int64_t{8}}) {
    const ScriptedRun piped = RunScript(depth);
    ASSERT_EQ(piped.log.size(), batched.log.size()) << "depth=" << depth;
    for (size_t r = 0; r < batched.log.size(); ++r) {
      EXPECT_EQ(piped.log[r].winners, batched.log[r].winners)
          << "depth=" << depth << " round " << r;
      EXPECT_EQ(piped.log[r].unresolved, batched.log[r].unresolved)
          << "depth=" << depth << " round " << r;
      EXPECT_EQ(piped.log[r].fault, batched.log[r].fault)
          << "depth=" << depth << " round " << r;
    }
    EXPECT_EQ(piped.issued, batched.issued) << "depth=" << depth;
    EXPECT_EQ(piped.paid, batched.paid) << "depth=" << depth;
    EXPECT_EQ(piped.cache_hits, batched.cache_hits) << "depth=" << depth;
    EXPECT_EQ(piped.logical_steps, batched.logical_steps)
        << "depth=" << depth;
    EXPECT_EQ(piped.trace, batched.trace) << "depth=" << depth;
    EXPECT_EQ(piped.cache, batched.cache) << "depth=" << depth;
    EXPECT_EQ(piped.sent, batched.sent) << "depth=" << depth;
  }
  EXPECT_GT(RunScript(/*depth=*/8).max_in_flight_observed, 1)
      << "the depth-8 drive must overlap the in-phase rounds";
}

TEST(RoundEngineGuardTest, ParallelCreationProbesFork) {
  Instance instance = MakeInstance(32, 29);
  UnforkableComparator unforkable(&instance);
  Result<std::unique_ptr<RoundEngine>> parallel =
      RoundEngine::CreateParallel(&unforkable, /*threads=*/2, /*seed=*/1,
                                  /*memoize=*/false);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parallel.status().ToString().find(
                "the parallel engine requires a forkable comparator"),
            std::string::npos);

  // The serial backend takes any comparator.
  OracleComparator oracle(&instance);
  EXPECT_NE(RoundEngine::CreateSerial(&oracle, /*memoize=*/false), nullptr);
}

}  // namespace
}  // namespace crowdmax
