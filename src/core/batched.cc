#include "core/batched.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "common/metrics.h"
#include "core/async_executor.h"
#include "core/checkpoint.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kExecutorTag = CheckpointTag("EXE ");
constexpr uint32_t kSeederTag = CheckpointTag("SEED");

// Batch-level metrics, recorded in the public wrappers (never per
// comparison, so the comparator hot path stays untouched).
void RecordBatchMetrics(int64_t batch_size) {
  if (!MetricsEnabled()) return;
  static Counter* batches =
      MetricsRegistry::Default()->GetCounter("crowdmax.executor.batches");
  static Counter* dispatched = MetricsRegistry::Default()->GetCounter(
      "crowdmax.executor.comparisons_dispatched");
  static Histogram* sizes = MetricsRegistry::Default()->GetHistogram(
      "crowdmax.executor.batch_size", ExponentialBounds(16));
  batches->Increment();
  dispatched->Add(batch_size);
  sizes->Observe(batch_size);
}

// Trace-cell recording for a sink executor's successful fallible batch:
// every task was dispatched; classify each outcome.
void RecordTraceOutcomes(AlgoTrace* trace,
                         const std::vector<BatchTaskResult>& results) {
  int64_t answered = 0;
  int64_t no_quorum = 0;
  int64_t dropped = 0;
  for (const BatchTaskResult& result : results) {
    if (result.answered) {
      ++answered;
    } else if (result.winner == -1) {
      ++dropped;
    } else {
      ++no_quorum;
    }
  }
  trace->RecordDispatched(static_cast<int64_t>(results.size()));
  trace->RecordOutcomes(answered, no_quorum, dropped);
}

}  // namespace

std::string FaultReport::ToString() const {
  std::string out = "batches=" + std::to_string(batches) +
                    " attempts=" + std::to_string(attempts) +
                    " retried_tasks=" + std::to_string(retried_tasks) +
                    " votes_lost=" + std::to_string(votes_lost) +
                    " relaxed_accepts=" + std::to_string(relaxed_accepts) +
                    " degraded_tasks=" + std::to_string(degraded_tasks) +
                    " transient_errors=" + std::to_string(transient_errors) +
                    " steps_added=" + std::to_string(steps_added) +
                    " backoff_steps=" + std::to_string(backoff_steps);
  if (exhausted) out += " exhausted(" + last_error.ToString() + ")";
  return out;
}

std::vector<ElementId> BatchExecutor::ExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (tasks.empty()) return {};
  ++logical_steps_;
  comparisons_ += static_cast<int64_t>(tasks.size());
  RecordBatchMetrics(static_cast<int64_t>(tasks.size()));
  std::vector<ElementId> winners = DoExecuteBatch(tasks);
  if (AlgoTrace* trace = CurrentTrace();
      trace != nullptr && RecordsTraceCells()) {
    // The infallible path answers everything: one cell record per batch,
    // on the submitting thread (the coordinating thread at a barrier).
    trace->RecordDispatched(static_cast<int64_t>(tasks.size()));
    trace->RecordOutcomes(static_cast<int64_t>(tasks.size()), 0, 0);
  }
  return winners;
}

Result<std::vector<BatchTaskResult>> BatchExecutor::TryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  if (tasks.empty()) return std::vector<BatchTaskResult>{};
  Result<std::vector<BatchTaskResult>> results = DoTryExecuteBatch(tasks);
  if (results.ok()) {
    // A failed submission consumed no crowd work: charge the step and the
    // comparisons only on success, so retry loops account what they buy.
    ++logical_steps_;
    comparisons_ += static_cast<int64_t>(tasks.size());
    RecordBatchMetrics(static_cast<int64_t>(tasks.size()));
    if (AlgoTrace* trace = CurrentTrace();
        trace != nullptr && RecordsTraceCells()) {
      RecordTraceOutcomes(trace, *results);
    }
  }
  return results;
}

Status BatchExecutor::SaveState(CheckpointWriter* writer) const {
  writer->WriteTag(kExecutorTag);
  writer->WriteI64(logical_steps_);
  writer->WriteI64(comparisons_);
  writer->WriteI64(cancelled_comparisons_);
  return DoSaveState(writer);
}

Status BatchExecutor::LoadState(CheckpointReader* reader) {
  reader->ExpectTag(kExecutorTag);
  logical_steps_ = reader->ReadI64();
  comparisons_ = reader->ReadI64();
  cancelled_comparisons_ = reader->ReadI64();
  if (!reader->status().ok()) return reader->status();
  return DoLoadState(reader);
}

Status BatchExecutor::DoSaveState(CheckpointWriter* /*writer*/) const {
  return Status::FailedPrecondition(
      "this executor does not support checkpointing; recover by "
      "deterministic re-execution instead");
}

Status BatchExecutor::DoLoadState(CheckpointReader* /*reader*/) {
  return Status::FailedPrecondition(
      "this executor does not support checkpointing");
}

Result<std::vector<BatchTaskResult>> BatchExecutor::DoTryExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  // Default adapter: the infallible path answers everything.
  const std::vector<ElementId> winners = DoExecuteBatch(tasks);
  CROWDMAX_CHECK(winners.size() == tasks.size());
  std::vector<BatchTaskResult> results;
  results.reserve(winners.size());
  for (ElementId winner : winners) {
    results.push_back(BatchTaskResult{winner, true, -1});
  }
  return results;
}

ComparatorBatchExecutor::ComparatorBatchExecutor(Comparator* comparator)
    : comparator_(comparator) {
  CROWDMAX_CHECK(comparator != nullptr);
}

std::vector<ElementId> ComparatorBatchExecutor::DoExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  std::vector<ElementId> winners(tasks.size(), -1);
  if (VoteBatchComparator* batch = comparator_->AsVoteBatch();
      batch != nullptr) {
    // Batch-at-once (DESIGN.md §14): same draws, counters and answers as
    // the per-call loop, one virtual call per batch instead of per task.
    const int64_t produced = batch->GenerateVotes(tasks, winners);
    CROWDMAX_CHECK(produced == static_cast<int64_t>(tasks.size()));
    return winners;
  }
  for (size_t t = 0; t < tasks.size(); ++t) {
    winners[t] = comparator_->Compare(tasks[t].first, tasks[t].second);
  }
  return winners;
}

Status ComparatorBatchExecutor::DoSaveState(CheckpointWriter* writer) const {
  return comparator_->SaveState(writer);
}

Status ComparatorBatchExecutor::DoLoadState(CheckpointReader* reader) {
  return comparator_->LoadState(reader);
}

ParallelBatchExecutor::ParallelBatchExecutor(Comparator* comparator,
                                             int64_t threads, uint64_t seed,
                                             int64_t chunk_size)
    : comparator_(comparator),
      pool_(threads),
      seeder_(seed),
      chunk_size_(chunk_size) {}

Result<std::unique_ptr<ParallelBatchExecutor>> ParallelBatchExecutor::Create(
    Comparator* comparator, int64_t threads, uint64_t seed,
    int64_t chunk_size) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (threads < 1) return Status::InvalidArgument("threads must be >= 1");
  if (chunk_size < 1) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  if (comparator->Fork(0) == nullptr) {
    return Status::InvalidArgument(
        "comparator does not support Fork(); ParallelBatchExecutor requires "
        "a forkable comparator");
  }
  return std::unique_ptr<ParallelBatchExecutor>(
      new ParallelBatchExecutor(comparator, threads, seed, chunk_size));
}

std::vector<ElementId> ParallelBatchExecutor::DoExecuteBatch(
    const std::vector<ComparisonPair>& tasks) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  const int64_t num_chunks = (n + chunk_size_ - 1) / chunk_size_;
  std::vector<ElementId> winners(tasks.size(), -1);

  // Chunk seeds are drawn before dispatch, in chunk order, so answers are
  // independent of which thread runs which chunk.
  std::vector<uint64_t> seeds(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    seeds[static_cast<size_t>(c)] = seeder_.Fork();
  }

  std::vector<int64_t> paid(static_cast<size_t>(num_chunks), 0);
  pool_.ParallelFor(num_chunks, [&](int64_t c) {
    const std::unique_ptr<Comparator> fork =
        comparator_->Fork(seeds[static_cast<size_t>(c)]);
    CROWDMAX_CHECK(fork != nullptr);
    const int64_t begin = c * chunk_size_;
    const int64_t end = std::min(n, begin + chunk_size_);
    const size_t count = static_cast<size_t>(end - begin);
    if (VoteBatchComparator* batch = fork->AsVoteBatch(); batch != nullptr) {
      // Whole chunk in one call, on span slices of the shared arrays —
      // same seeds, same draws, same disjoint output slots.
      const int64_t produced = batch->GenerateVotes(
          std::span<const ComparisonPair>(tasks).subspan(
              static_cast<size_t>(begin), count),
          std::span<ElementId>(winners).subspan(static_cast<size_t>(begin),
                                                count));
      CROWDMAX_CHECK(produced == static_cast<int64_t>(count));
    } else {
      for (int64_t t = begin; t < end; ++t) {
        const ComparisonPair& task = tasks[static_cast<size_t>(t)];
        winners[static_cast<size_t>(t)] =
            fork->Compare(task.first, task.second);
      }
    }
    paid[static_cast<size_t>(c)] = fork->num_comparisons();
  });

  int64_t total_paid = 0;
  for (int64_t p : paid) total_paid += p;
  comparator_->AddComparisons(total_paid);
  return winners;
}

Status ParallelBatchExecutor::DoSaveState(CheckpointWriter* writer) const {
  writer->WriteTag(kSeederTag);
  writer->WriteRngState(seeder_.state());
  return comparator_->SaveState(writer);
}

Status ParallelBatchExecutor::DoLoadState(CheckpointReader* reader) {
  reader->ExpectTag(kSeederTag);
  seeder_.set_state(reader->ReadRngState());
  if (!reader->status().ok()) return reader->status();
  return comparator_->LoadState(reader);
}

// ---------------------------------------------------------------------------
// One body per algorithm: each creates a RoundEngine through a Route,
// drives the shared RoundSource and translates the engine run into the
// Batched* result shape. The sequential, Batched* and Pipelined* entry
// points of an algorithm differ only in the Route. The round loops, caches,
// budget gates and fault semantics all live in core/round_engine.cc and the
// sources in filter_phase.cc / maxfind.cc / tournament.cc.
// ---------------------------------------------------------------------------

namespace {

// One worker class's way to the crowd. The executor form keeps its
// synchronous executor, plus the async front end and pipeline depth when
// its rounds are pipelined; the executor is the one that keeps the
// accounting either way (async->inner()), so it is also where the
// FaultReport comes from. The comparator form builds a serial engine, or a
// parallel one at threads >= 1, with the memo, thread and seed knobs the
// sequential functions read from their options.
struct Route {
  BatchExecutor* executor = nullptr;
  AsyncBatchExecutor* async = nullptr;
  int64_t max_in_flight = 1;
  Comparator* comparator = nullptr;
  bool memoize = false;
  int64_t threads = 0;
  uint64_t seed = 0;

  static Route Batched(BatchExecutor* executor) { return {executor}; }
  static Route Pipelined(AsyncBatchExecutor* async, int64_t max_in_flight) {
    return {async != nullptr ? async->inner() : nullptr, async,
            max_in_flight};
  }
  static Route Sequential(Comparator* comparator,
                          const FilterOptions& filter = {}) {
    return {nullptr,        nullptr,        1,
            comparator,     filter.memoize, filter.threads,
            filter.parallel_seed};
  }

  // This route for a Phase-2 solver: a comparator route runs serially (the
  // max-finders never forked) and memoizes per `memo`; an executor route
  // always dedups within the run.
  Route Serial(bool memo) const {
    Route route = *this;
    route.memoize = memo;
    route.threads = 0;
    return route;
  }

  Result<std::unique_ptr<RoundEngine>> Engine(SharedPairCache* cache,
                                              int64_t cache_class) const {
    if (comparator != nullptr && threads >= 1) {
      return RoundEngine::CreateParallel(comparator, threads, seed, memoize,
                                         cache, cache_class);
    }
    if (comparator != nullptr) {
      return RoundEngine::CreateSerial(comparator, memoize, cache,
                                       cache_class);
    }
    if (async == nullptr) {
      return RoundEngine::CreateBatched(executor, cache, cache_class);
    }
    return RoundEngine::CreatePipelined(async, max_in_flight, cache,
                                        cache_class);
  }
};

// Copies `route`'s FaultReport into `*report` when its executor keeps one.
void CollectFaults(const Route& route, bool* has_report, FaultReport* report) {
  if (route.executor == nullptr) return;
  if (const FaultReport* faults = route.executor->fault_report()) {
    *has_report = true;
    *report = *faults;
  }
}

// Folds a phase's partial flag into a run's result: the first fault status
// wins.
void MergePartial(bool partial, const Status& fault, bool* out_partial,
                  Status* out_fault) {
  if (!partial) return;
  *out_partial = true;
  if (out_fault->ok()) *out_fault = fault;
}

// A comparator engine has no executor underneath to attribute an expert
// phase's comparisons, so the whole phase is one trace cell (round -1):
// every paid comparison came back answered, and the issued-minus-paid
// remainder was served by the memo (DESIGN.md §9). Executor engines record
// their own cells.
void RecordComparatorPhaseCell(const RoundEngine& engine) {
  AlgoTrace* trace = CurrentTrace();
  if (trace == nullptr || engine.SupportsPartialEvidence()) return;
  trace->RecordDispatched(engine.paid());
  trace->RecordOutcomes(engine.paid(), 0, 0);
  if (engine.issued() > engine.paid()) {
    trace->RecordCacheHits(engine.issued() - engine.paid());
  }
}

Result<BatchedFilterResult> FilterBody(const std::vector<ElementId>& items,
                                       const FilterOptions& options,
                                       const Route& route) {
  Result<std::unique_ptr<RoundEngine>> engine =
      route.Engine(options.shared_cache, options.cache_class);
  if (!engine.ok()) return engine.status();

  Result<FilterEngineRun> run =
      RunFilterOnEngine(items, options, engine->get());
  if (!run.ok()) return run.status();

  BatchedFilterResult out;
  out.filter = std::move(run->filter);
  out.partial = run->partial;
  out.fault_status = run->fault_status;
  out.logical_steps = (*engine)->logical_steps();
  return out;
}

// One Phase-2 solver run over the candidates: Algorithm 1's phase 2 and
// the multilevel cascade's final class. `two_maxfind` carries 2-MaxFind's
// memo switch and the phase's evidence cache; the pipelining shape only
// matters to an engine that overlaps rounds.
struct Phase2Plan {
  Phase2Algorithm algorithm = Phase2Algorithm::kTwoMaxFind;
  TwoMaxFindOptions two_maxfind = {};
  RandomizedMaxFindOptions randomized = {};
  bool speculate = false;
  int64_t chunk_pairs = 0;
};

// The one switch over Phase2Algorithm, inside the "expert" phase span.
// `tally`, when set, receives an all-play-all's wins (top-k ranks by them).
Result<BatchedMaxFindResult> Phase2Body(const std::vector<ElementId>& items,
                                        const Route& route,
                                        const Phase2Plan& plan,
                                        TournamentResult* tally = nullptr) {
  // The randomized solver runs unmemoized by design and never shares
  // evidence; the all-play-all asks each pair once, so only a shared cache
  // memoizes it.
  const bool randomized = plan.algorithm == Phase2Algorithm::kRandomized;
  Result<std::unique_ptr<RoundEngine>> created =
      route
          .Serial(plan.algorithm == Phase2Algorithm::kTwoMaxFind &&
                  plan.two_maxfind.memoize)
          .Engine(randomized ? nullptr : plan.two_maxfind.shared_cache,
                  plan.two_maxfind.cache_class);
  if (!created.ok()) return created.status();
  RoundEngine* engine = created->get();

  TraceSpanScope phase_span("expert", TraceWorkerClass::kExpert);
  BatchedMaxFindResult out;
  switch (plan.algorithm) {
    case Phase2Algorithm::kTwoMaxFind:
    case Phase2Algorithm::kRandomized: {
      Result<MaxFindEngineRun> run =
          randomized ? RunRandomizedMaxFindOnEngine(items, engine,
                                                    plan.randomized)
                     : RunTwoMaxFindOnEngine(
                           items, engine,
                           TwoMaxFindEngineOptions{plan.speculate});
      if (!run.ok()) return run.status();
      out.maxfind = run->maxfind;
      out.partial = run->partial;
      out.fault_status = run->fault_status;
      out.survivors = std::move(run->survivors);
      break;
    }
    case Phase2Algorithm::kAllPlayAll: {
      Result<TournamentEngineRun> run = RunTournamentOnEngine(
          items, engine, "all_play_all",
          TournamentEngineOptions{plan.chunk_pairs});
      if (!run.ok()) return run.status();
      out.maxfind.best = items[IndexOfMostWins(run->tournament)];
      out.maxfind.issued_comparisons = run->tournament.comparisons;
      // Mispredicted speculative spend stays on the engine's wasted
      // counter, never in the paid total (DESIGN.md §15).
      out.maxfind.paid_comparisons =
          engine->paid() - engine->speculation_wasted();
      if (run->unresolved > 0 || !run->fault.ok()) {
        // A pair without evidence awards no win: the ranking is provisional.
        out.partial = true;
        out.fault_status =
            !run->fault.ok()
                ? run->fault
                : Status::Unavailable(
                      "expert tournament left " +
                      std::to_string(run->unresolved) +
                      " comparisons unresolved; the ranking is provisional");
        out.survivors = items;
      }
      if (tally != nullptr) *tally = std::move(run->tournament);
      break;
    }
  }
  out.logical_steps = engine->logical_steps();
  RecordComparatorPhaseCell(*engine);
  return out;
}

Result<BatchedExpertMaxResult> ExpertMaxBody(
    const std::vector<ElementId>& items, const Route& naive,
    const Route& expert, const ExpertMaxOptions& options,
    const char* run_label) {
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  TraceSpanScope run_span(TraceSpanKind::kRun, run_label);

  FilterOptions filter_options = options.filter;
  Phase2Plan plan{options.phase2, options.two_maxfind, options.randomized};
  if (options.shared_cache != nullptr) {
    filter_options.shared_cache = options.shared_cache;
    filter_options.cache_class = options.naive_cache_class;
    plan.two_maxfind.shared_cache = options.shared_cache;
    plan.two_maxfind.cache_class = options.expert_cache_class;
  }
  Result<BatchedFilterResult> filtered =
      FilterBody(items, filter_options, naive);
  if (!filtered.ok()) return filtered.status();

  BatchedExpertMaxResult out;
  out.result.candidates = std::move(filtered->filter.candidates);
  out.result.paid.naive = filtered->filter.paid_comparisons;
  out.result.issued.naive = filtered->filter.issued_comparisons;
  out.result.filter_rounds = filtered->filter.rounds;
  out.result.filter_hit_empty_round = filtered->filter.hit_empty_round;
  out.result.filter_stopped_by_budget = filtered->filter.stopped_by_budget;
  out.naive_steps = filtered->logical_steps;
  MergePartial(filtered->partial, filtered->fault_status, &out.partial,
               &out.fault_status);
  CollectFaults(naive, &out.has_naive_faults, &out.naive_faults);
  if (out.result.candidates.empty()) {
    return Status::Internal("phase 1 returned an empty candidate set");
  }

  // Phase 2 runs even on a partial phase 1: the conservative filter never
  // evicts without a counted loss, so the maximum is still among the
  // (possibly oversized) survivor set and the experts can finish the job.
  Result<BatchedMaxFindResult> phase2 =
      Phase2Body(out.result.candidates, expert, plan);
  if (!phase2.ok()) return phase2.status();

  out.result.best = phase2->maxfind.best;
  out.result.paid.expert = phase2->maxfind.paid_comparisons;
  out.result.issued.expert = phase2->maxfind.issued_comparisons;
  out.result.phase2_rounds = phase2->maxfind.rounds;
  out.expert_steps = phase2->logical_steps;
  MergePartial(phase2->partial, phase2->fault_status, &out.partial,
               &out.fault_status);
  CollectFaults(expert, &out.has_expert_faults, &out.expert_faults);
  return out;
}

Result<BatchedTopKResult> TopKBody(const std::vector<ElementId>& items,
                                   const Route& naive, const Route& expert,
                                   const TopKOptions& options,
                                   const char* run_label) {
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  if (options.k < 1 || options.k > static_cast<int64_t>(items.size())) {
    return Status::InvalidArgument("k must be in [1, |items|]");
  }
  if (options.filter.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  std::optional<TraceSpanScope> run_span;  // None for the sequential call.
  if (run_label != nullptr) run_span.emplace(TraceSpanKind::kRun, run_label);

  // Phase 1 with the inflated blind spot u' = u_n + k - 1 so every true
  // top-k element survives (see core/topk.h).
  FilterOptions filter = options.filter;
  filter.u_n = options.filter.u_n + options.k - 1;
  if (options.shared_cache != nullptr) {
    filter.shared_cache = options.shared_cache;
    filter.cache_class = options.naive_cache_class;
  }
  Result<BatchedFilterResult> filtered = FilterBody(items, filter, naive);
  if (!filtered.ok()) return filtered.status();

  BatchedTopKResult out;
  out.result.candidates = std::move(filtered->filter.candidates);
  out.result.paid.naive = filtered->filter.paid_comparisons;
  out.result.filter_rounds = filtered->filter.rounds;
  out.naive_steps = filtered->logical_steps;
  MergePartial(filtered->partial, filtered->fault_status, &out.partial,
               &out.fault_status);
  CollectFaults(naive, &out.has_naive_faults, &out.naive_faults);
  if (static_cast<int64_t>(out.result.candidates.size()) < options.k) {
    return Status::Internal(
        "phase 1 returned fewer candidates than k; the comparator violated "
        "the threshold-model contract");
  }

  // Phase 2: one expert all-play-all over the candidates (chunked when
  // TopKOptions::expert_chunk_pairs > 0); the k biggest winners in win
  // order. A partial filter only enlarges the candidate set, so the
  // tournament still ranks the true top-k. Against a shared cache, pairs
  // an earlier expert-class run already resolved are answered for free.
  Phase2Plan plan{Phase2Algorithm::kAllPlayAll};
  plan.two_maxfind = {false, options.shared_cache, options.expert_cache_class};
  plan.chunk_pairs = options.expert_chunk_pairs;
  TournamentResult tally;
  Result<BatchedMaxFindResult> phase2 =
      Phase2Body(out.result.candidates, expert, plan, &tally);
  if (!phase2.ok()) return phase2.status();
  out.result.paid.expert = phase2->maxfind.paid_comparisons;
  out.expert_steps = phase2->logical_steps;
  MergePartial(phase2->partial, phase2->fault_status, &out.partial,
               &out.fault_status);
  CollectFaults(expert, &out.has_expert_faults, &out.expert_faults);

  std::vector<ElementId> ranked = OrderByWins(out.result.candidates, tally);
  ranked.resize(static_cast<size_t>(options.k));
  out.result.top = std::move(ranked);
  return out;
}

// `Spec` is WorkerClassSpec, BatchedWorkerClassSpec or
// PipelinedWorkerClassSpec; `route_of` maps one to its Route.
template <typename Spec, typename RouteOf>
Result<BatchedMultilevelResult> MultilevelBody(
    const std::vector<ElementId>& items, const std::vector<Spec>& classes,
    RouteOf route_of, const MultilevelOptions& options,
    const char* run_label) {
  if (classes.empty()) {
    return Status::InvalidArgument("at least one worker class is required");
  }
  for (const Spec& spec : classes) {
    if (const Route route = route_of(spec);
        route.executor == nullptr && route.comparator == nullptr) {
      return Status::InvalidArgument(
          "worker class has a null comparator or executor");
    }
    if (spec.cost_per_comparison < 0.0) {
      return Status::InvalidArgument("cost_per_comparison must be >= 0");
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  std::optional<TraceSpanScope> run_span;  // None for the sequential call.
  if (run_label != nullptr) run_span.emplace(TraceSpanKind::kRun, run_label);

  BatchedMultilevelResult out;
  out.result.paid_per_class.assign(classes.size(), 0);
  out.steps_per_class.assign(classes.size(), 0);

  std::vector<ElementId> current = items;

  // Filtering levels: every class except the last. A partial level hands
  // its (oversized but max-preserving) survivor set to the next class. The
  // class index doubles as the cache class (multilevel.h).
  for (size_t level = 0; level + 1 < classes.size(); ++level) {
    const Spec& spec = classes[level];
    if (spec.u < 1) {
      return Status::InvalidArgument("worker class u must be >= 1");
    }
    FilterOptions filter = options.filter_template;
    filter.u_n = spec.u;
    if (options.shared_cache != nullptr) {
      filter.shared_cache = options.shared_cache;
      filter.cache_class = static_cast<int64_t>(level);
    }
    Result<BatchedFilterResult> filtered =
        FilterBody(current, filter, route_of(spec));
    if (!filtered.ok()) return filtered.status();
    out.result.paid_per_class[level] = filtered->filter.paid_comparisons;
    out.steps_per_class[level] = filtered->logical_steps;
    out.result.candidates_per_level.push_back(
        static_cast<int64_t>(filtered->filter.candidates.size()));
    MergePartial(filtered->partial, filtered->fault_status, &out.partial,
                 &out.fault_status);
    current = std::move(filtered->filter.candidates);
    if (current.empty()) {
      return Status::Internal("filter level returned an empty candidate set");
    }
  }

  // Final level: phase-2 max-finding with the most expert class, through
  // the same solver switch as Algorithm 1.
  const size_t last = classes.size() - 1;
  Phase2Plan plan{options.final_phase, options.two_maxfind, options.randomized,
                  options.final_speculate, options.final_chunk_pairs};
  if (options.shared_cache != nullptr) {
    plan.two_maxfind.shared_cache = options.shared_cache;
    plan.two_maxfind.cache_class = static_cast<int64_t>(last);
  }
  Result<BatchedMaxFindResult> phase2 =
      Phase2Body(current, route_of(classes[last]), plan);
  if (!phase2.ok()) return phase2.status();
  out.result.best = phase2->maxfind.best;
  out.result.paid_per_class[last] = phase2->maxfind.paid_comparisons;
  out.steps_per_class[last] = phase2->logical_steps;
  MergePartial(phase2->partial, phase2->fault_status, &out.partial,
               &out.fault_status);

  for (size_t i = 0; i < classes.size(); ++i) {
    out.result.total_cost +=
        static_cast<double>(out.result.paid_per_class[i]) *
        classes[i].cost_per_comparison;
  }
  return out;
}

}  // namespace

Result<FilterResult> FilterCandidates(const std::vector<ElementId>& items,
                                      const FilterOptions& options,
                                      Comparator* naive) {
  CROWDMAX_CHECK(naive != nullptr);
  Result<BatchedFilterResult> run =
      FilterBody(items, options, Route::Sequential(naive, options));
  if (!run.ok()) return run.status();
  return std::move(run->filter);
}

Result<BatchedFilterResult> BatchedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    BatchExecutor* executor) {
  CROWDMAX_CHECK(executor != nullptr);
  return FilterBody(items, options, Route::Batched(executor));
}

Result<BatchedFilterResult> PipelinedFilterCandidates(
    const std::vector<ElementId>& items, const FilterOptions& options,
    AsyncBatchExecutor* async, const BatchedPipelineOptions& pipeline) {
  CROWDMAX_CHECK(async != nullptr);
  FilterOptions filter = options;
  if (pipeline.shared_cache != nullptr) {
    filter.shared_cache = pipeline.shared_cache;
    filter.cache_class = pipeline.cache_class;
  }
  return FilterBody(items, filter,
                    Route::Pipelined(async, pipeline.max_in_flight));
}

Result<BatchedMaxFindResult> BatchedTwoMaxFind(
    const std::vector<ElementId>& items, BatchExecutor* executor,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(executor != nullptr);
  Phase2Plan plan;
  plan.two_maxfind = {true, shared_cache, cache_class};
  return Phase2Body(items, Route::Batched(executor), plan);
}

Result<BatchedMaxFindResult> PipelinedTwoMaxFind(
    const std::vector<ElementId>& items, AsyncBatchExecutor* async,
    const BatchedPipelineOptions& pipeline,
    const TwoMaxFindEngineOptions& engine_options,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(async != nullptr);
  if (pipeline.shared_cache != nullptr) {
    shared_cache = pipeline.shared_cache;
    cache_class = pipeline.cache_class;
  }
  Phase2Plan plan;
  plan.two_maxfind = {true, shared_cache, cache_class};
  plan.speculate = engine_options.speculate;
  return Phase2Body(items, Route::Pipelined(async, pipeline.max_in_flight),
                    plan);
}

Result<ExpertMaxResult> FindMaxWithExperts(const std::vector<ElementId>& items,
                                           Comparator* naive,
                                           Comparator* expert,
                                           const ExpertMaxOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  Result<BatchedExpertMaxResult> run =
      ExpertMaxBody(items, Route::Sequential(naive, options.filter),
                    Route::Sequential(expert), options, "expert_max");
  if (!run.ok()) return run.status();
  return std::move(run->result);
}

Result<BatchedExpertMaxResult> BatchedFindMaxWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const ExpertMaxOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  return ExpertMaxBody(items, Route::Batched(naive), Route::Batched(expert),
                       options, "batched_expert_max");
}

Result<BatchedExpertMaxResult> PipelinedFindMaxWithExperts(
    const std::vector<ElementId>& items, AsyncBatchExecutor* naive,
    BatchExecutor* expert, const ExpertMaxOptions& options,
    const BatchedPipelineOptions& pipeline) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  return ExpertMaxBody(items, Route::Pipelined(naive, pipeline.max_in_flight),
                       Route::Batched(expert), options, "batched_expert_max");
}

Result<TopKResult> FindTopKWithExperts(const std::vector<ElementId>& items,
                                       Comparator* naive, Comparator* expert,
                                       const TopKOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  Result<BatchedTopKResult> run =
      TopKBody(items, Route::Sequential(naive, options.filter),
               Route::Sequential(expert), options, nullptr);
  if (!run.ok()) return run.status();
  return std::move(run->result);
}

Result<BatchedTopKResult> BatchedFindTopKWithExperts(
    const std::vector<ElementId>& items, BatchExecutor* naive,
    BatchExecutor* expert, const TopKOptions& options) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  return TopKBody(items, Route::Batched(naive), Route::Batched(expert),
                  options, "batched_topk");
}

Result<BatchedTopKResult> PipelinedFindTopKWithExperts(
    const std::vector<ElementId>& items, AsyncBatchExecutor* naive,
    AsyncBatchExecutor* expert, const TopKOptions& options,
    const BatchedPipelineOptions& pipeline) {
  CROWDMAX_CHECK(naive != nullptr);
  CROWDMAX_CHECK(expert != nullptr);
  // The per-class cache wiring lives in `options`; pipeline.shared_cache
  // would force both classes into one cache class and is ignored.
  return TopKBody(items, Route::Pipelined(naive, pipeline.max_in_flight),
                  Route::Pipelined(expert, pipeline.max_in_flight), options,
                  "batched_topk");
}

Result<MultilevelResult> FindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<WorkerClassSpec>& classes,
    const MultilevelOptions& options) {
  Result<BatchedMultilevelResult> run = MultilevelBody(
      items, classes,
      [&options](const WorkerClassSpec& spec) {
        return Route::Sequential(spec.comparator, options.filter_template);
      },
      options, nullptr);
  if (!run.ok()) return run.status();
  return std::move(run->result);
}

Result<BatchedMultilevelResult> BatchedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<BatchedWorkerClassSpec>& classes,
    const MultilevelOptions& options) {
  return MultilevelBody(
      items, classes,
      [](const BatchedWorkerClassSpec& spec) {
        return Route::Batched(spec.executor);
      },
      options, "batched_multilevel");
}

Result<BatchedMultilevelResult> PipelinedFindMaxMultilevel(
    const std::vector<ElementId>& items,
    const std::vector<PipelinedWorkerClassSpec>& classes,
    const MultilevelOptions& options,
    const BatchedPipelineOptions& pipeline) {
  // The class index doubles as the cache class (multilevel.h), so
  // pipeline.shared_cache is ignored in favour of per-level wiring.
  return MultilevelBody(
      items, classes,
      [&pipeline](const PipelinedWorkerClassSpec& spec) {
        return Route::Pipelined(spec.async, pipeline.max_in_flight);
      },
      options, "batched_multilevel");
}

}  // namespace crowdmax
