#include "core/round_engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/checkpoint.h"
#include "core/pair_key.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kDriveTag = CheckpointTag("DRV ");
constexpr uint32_t kEngineTag = CheckpointTag("ENG ");
constexpr uint32_t kCacheTag = CheckpointTag("CACH");
constexpr uint32_t kSourceTag = CheckpointTag("SRC ");

// How many pairs ahead the memo walks prefetch their probe slot.
constexpr size_t kPrefetchAhead = 16;

// An executor-path miss holds its memo slot with a reservation while its
// answer is pending: kFirstReservation - ordinal, where the ordinal is the
// miss's position in the in-flight window (ResolveRound). Every
// reservation sits below kUnresolvedWinner, so no winner or parking can be
// read as one. The ordinal range is capped at the int32 value range.
constexpr ElementId kFirstReservation = kUnresolvedWinner - 1;
constexpr int64_t kMaxWindowMisses =
    int64_t{kFirstReservation} - std::numeric_limits<ElementId>::min() + 1;

ElementId ReservationOf(int64_t ordinal) {
  return static_cast<ElementId>(kFirstReservation - ordinal);
}

int64_t OrdinalOf(ElementId reservation) {
  return int64_t{kFirstReservation} - reservation;
}

// The serial-path tournament instrumentation AllPlayAll used to own: a
// size observation per spanned unit. Recorded only where the pre-engine
// serial code ran a spanned all-play-all, never per comparison.
void ObserveTournamentSize(int64_t size) {
  if (!MetricsEnabled()) return;
  static Histogram* sizes = MetricsRegistry::Default()->GetHistogram(
      "crowdmax.tournament.group_size", ExponentialBounds(12));
  sizes->Observe(size);
}

void ObservePipelineDepth(int64_t in_flight) {
  if (!MetricsEnabled()) return;
  static Counter* overlapped = MetricsRegistry::Default()->GetCounter(
      "crowdmax.pipeline.overlapped_rounds");
  static Gauge* depth =
      MetricsRegistry::Default()->GetGauge("crowdmax.pipeline.max_in_flight");
  if (in_flight > 1) overlapped->Increment();
  if (in_flight > depth->value()) depth->Set(in_flight);
}

void ObserveSpeculation(int64_t hits, int64_t mispredicts, int64_t wasted) {
  if (!MetricsEnabled()) return;
  static Counter* hit_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.hits");
  static Counter* miss_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.mispredicts");
  static Counter* wasted_counter = MetricsRegistry::Default()->GetCounter(
      "crowdmax.speculation.wasted_comparisons");
  if (hits > 0) hit_counter->Add(hits);
  if (mispredicts > 0) miss_counter->Add(mispredicts);
  if (wasted > 0) wasted_counter->Add(wasted);
}

// Memo size gauges: the peak entry count of any engine memo, and the pairs
// dropped by live-pair rebuilds. Wall-clock-free, but kept off AlgoTrace
// so trace bytes do not depend on the memo policy.
void ObserveMemo(int64_t entries, int64_t pruned) {
  if (!MetricsEnabled()) return;
  static Gauge* peak =
      MetricsRegistry::Default()->GetGauge("crowdmax.engine.memo_entries");
  static Counter* pruned_counter =
      MetricsRegistry::Default()->GetCounter("crowdmax.engine.memo_pruned");
  if (entries > peak->value()) peak->Set(entries);
  if (pruned > 0) pruned_counter->Add(pruned);
}

}  // namespace

int64_t SharedPairCache::ResolvedPairs(int64_t class_id) const {
  auto it = maps_.find(class_id);
  if (it == maps_.end()) return 0;
  int64_t resolved = 0;
  it->second.ForEach([&resolved](uint64_t /*key*/, ElementId winner) {
    if (winner != kUnresolvedWinner) ++resolved;
  });
  return resolved;
}

int64_t EngineRound::TotalPairs() const {
  int64_t total = 0;
  for (const RoundUnit& unit : units) {
    total += static_cast<int64_t>(unit.pairs.size());
  }
  return total;
}

RoundEngine::RoundEngine(Backend backend, Comparator* comparator,
                         BatchExecutor* executor, bool memoize,
                         int64_t threads, uint64_t seed,
                         SharedPairCache* shared_cache, int64_t cache_class)
    : backend_(backend),
      comparator_(comparator),
      executor_(executor),
      memoize_(memoize),
      cache_(shared_cache != nullptr ? shared_cache->ForClass(cache_class)
                                     : &owned_cache_),
      seeder_(seed),
      threads_(threads) {
  if (backend_ == Backend::kParallel) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
  if (comparator_ != nullptr) paid_base_ = comparator_->num_comparisons();
  if (executor_ != nullptr) {
    paid_base_ = executor_->comparisons();
    steps_base_ = executor_->logical_steps();
  }
}

std::unique_ptr<RoundEngine> RoundEngine::CreateSerial(
    Comparator* comparator, bool memoize, SharedPairCache* shared_cache,
    int64_t cache_class) {
  CROWDMAX_CHECK(comparator != nullptr);
  return std::unique_ptr<RoundEngine>(
      new RoundEngine(Backend::kSerial, comparator, nullptr,
                      // A shared cache only works through memoization;
                      // opting into sharing implies it.
                      memoize || shared_cache != nullptr, 0, 0, shared_cache,
                      cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreateParallel(
    Comparator* comparator, int64_t threads, uint64_t seed, bool memoize,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(comparator != nullptr);
  if (threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  // Probe forkability once, up front, so every later failure mode is a
  // clean Status instead of a surprise deep inside a round.
  if (comparator->Fork(0) == nullptr) {
    return Status::InvalidArgument(
        "comparator does not support Fork(); the parallel engine requires "
        "a forkable comparator (see comparator.h thread-safety contract)");
  }
  return std::unique_ptr<RoundEngine>(new RoundEngine(
      Backend::kParallel, comparator, nullptr,
      memoize || shared_cache != nullptr, threads, seed, shared_cache,
      cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreateBatched(
    BatchExecutor* executor, SharedPairCache* shared_cache,
    int64_t cache_class) {
  CROWDMAX_CHECK(executor != nullptr);
  return std::unique_ptr<RoundEngine>(
      new RoundEngine(Backend::kExecutor, nullptr, executor, /*memoize=*/true,
                      0, 0, shared_cache, cache_class));
}

Result<std::unique_ptr<RoundEngine>> RoundEngine::CreatePipelined(
    AsyncBatchExecutor* async, int64_t max_in_flight,
    SharedPairCache* shared_cache, int64_t cache_class) {
  CROWDMAX_CHECK(async != nullptr);
  if (max_in_flight < 1) {
    return Status::InvalidArgument("max_in_flight must be >= 1");
  }
  std::unique_ptr<RoundEngine> engine(
      new RoundEngine(Backend::kExecutor, nullptr, async->inner(),
                      /*memoize=*/true, 0, 0, shared_cache, cache_class));
  engine->async_ = async;
  engine->max_in_flight_ = max_in_flight;
  return engine;
}

Status RoundSource::SaveState(CheckpointWriter* /*writer*/) const {
  return Status::FailedPrecondition(
      "this RoundSource does not support checkpointing");
}

Status RoundSource::LoadState(CheckpointReader* /*reader*/) {
  return Status::FailedPrecondition(
      "this RoundSource does not support checkpointing");
}

Result<bool> RoundSource::SpeculateNextRound(EngineRound* /*round*/) {
  return Status::FailedPrecondition(
      "this RoundSource advertised CanSpeculateNextRound but does not "
      "implement SpeculateNextRound");
}

Result<std::string> RoundEngine::SerializeCheckpoint(
    const RoundSource* source, int64_t paid_start,
    const DriveResult& drive) const {
  CheckpointWriter writer;
  writer.WriteTag(kDriveTag);
  writer.WriteI64(paid_start);
  writer.WriteI64(drive.rounds_executed);
  writer.WriteTag(kEngineTag);
  writer.WriteI64(paid_base_);
  writer.WriteI64(steps_base_);
  writer.WriteI64(issued_);
  writer.WriteI64(cache_hits_);
  writer.WriteI64(overlapped_rounds_);
  writer.WriteI64(max_in_flight_observed_);
  // Speculation counters (DESIGN.md §15). Checkpoints happen only at
  // fully-drained boundaries, where no speculative round can be in flight
  // (confirmation turns them firm, cancellation empties the window), so
  // the counters are the only speculation state the engine owns here.
  writer.WriteI64(speculative_rounds_);
  writer.WriteI64(speculation_hits_);
  writer.WriteI64(speculation_mispredicts_);
  writer.WriteI64(speculation_wasted_);
  writer.WriteRngState(seeder_.state());
  // At a clean boundary the cache holds winners and kUnresolvedWinner
  // parkings only — never an in-flight reservation (RestoreCheckpoint
  // refuses anything else).
  writer.WriteTag(kCacheTag);
  SavePairTable(&writer, *cache_);
  Status stack = comparator_ != nullptr ? comparator_->SaveState(&writer)
                                        : executor_->SaveState(&writer);
  if (!stack.ok()) return stack;
  writer.WriteTag(kSourceTag);
  Status src = source->SaveState(&writer);
  if (!src.ok()) return src;
  return writer.Take();
}

Status RoundEngine::RestoreCheckpoint(RoundSource* source,
                                      const std::string& bytes,
                                      int64_t* paid_start,
                                      DriveResult* drive) {
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  if (!opened.ok()) return opened.status();
  CheckpointReader reader = std::move(opened).value();
  reader.ExpectTag(kDriveTag);
  *paid_start = reader.ReadI64();
  drive->rounds_executed = reader.ReadI64();
  reader.ExpectTag(kEngineTag);
  paid_base_ = reader.ReadI64();
  steps_base_ = reader.ReadI64();
  issued_ = reader.ReadI64();
  cache_hits_ = reader.ReadI64();
  overlapped_rounds_ = reader.ReadI64();
  max_in_flight_observed_ = reader.ReadI64();
  speculative_rounds_ = reader.ReadI64();
  speculation_hits_ = reader.ReadI64();
  speculation_mispredicts_ = reader.ReadI64();
  speculation_wasted_ = reader.ReadI64();
  seeder_.set_state(reader.ReadRngState());
  reader.ExpectTag(kCacheTag);
  LoadPairTable(&reader, cache_);
  if (!reader.status().ok()) return reader.status();
  // A memo value is served as the pair's winner, and one below
  // kUnresolvedWinner would read as an in-flight reservation: refuse any
  // value that is neither an endpoint of its key nor the parking.
  bool memo_valid = true;
  cache_->ForEach([&memo_valid](uint64_t key, ElementId winner) {
    memo_valid = memo_valid &&
                 (winner == kUnresolvedWinner ||
                  static_cast<uint64_t>(winner) == (key & 0xFFFFFFFFu) ||
                  static_cast<uint64_t>(winner) == (key >> 32));
  });
  if (!memo_valid) {
    cache_->Clear();
    return Status::FailedPrecondition(
        "checkpoint memo holds a value that is neither an endpoint of its "
        "pair nor the unresolved parking");
  }
  Status stack = comparator_ != nullptr ? comparator_->LoadState(&reader)
                                        : executor_->LoadState(&reader);
  if (!stack.ok()) return stack;
  reader.ExpectTag(kSourceTag);
  if (!reader.status().ok()) return reader.status();
  Status src = source->LoadState(&reader);
  if (!src.ok()) return src;
  return reader.Finish();
}

int64_t RoundEngine::paid() const {
  if (executor_ != nullptr) return executor_->comparisons() - paid_base_;
  return comparator_->num_comparisons() - paid_base_;
}

int64_t RoundEngine::logical_steps() const {
  if (executor_ == nullptr) return 0;
  return executor_->logical_steps() - steps_base_;
}

void RoundEngine::PruneMemo(const EngineRound& round) {
  if (round.live_items == nullptr || !memoize_ || cache_ != &owned_cache_ ||
      round.clear_round_cache) {
    return;
  }
  // Lemma-1 eviction is permanent, so a pair with a dead endpoint is never
  // asked again: dropping it changes no answer, counter or cache hit.
  ElementId max_id = -1;
  for (ElementId id : *round.live_items) max_id = std::max(max_id, id);
  live_mark_.assign(static_cast<size_t>(max_id + 1), 0);
  for (ElementId id : *round.live_items) {
    live_mark_[static_cast<size_t>(id)] = 1;
  }
  const auto live = [this](uint64_t id) {
    return id < live_mark_.size() && live_mark_[id] != 0;
  };
  const int64_t before = cache_->size();
  const int64_t pruned = cache_->Retain(
      [&live](uint64_t key, ElementId /*winner*/) {
        return live(key & 0xFFFFFFFFu) && live(key >> 32);
      },
      round.TotalPairs());
  ObserveMemo(before, pruned);
}

Result<RoundOutcome> RoundEngine::ExecuteSerial(const EngineRound& round) {
  RoundOutcome out;
  out.winners.resize(round.units.size());
  const int64_t paid_before = comparator_->num_comparisons();
  AlgoTrace* trace = CurrentTrace();
  VoteBatchComparator* batch = comparator_->AsVoteBatch();

  // Batch-path scratch, engine-owned and reused across units *and* rounds
  // (empty when batch == nullptr): steady-state rounds allocate nothing.
  std::vector<ComparisonPair>& misses = serial_misses_;
  std::vector<size_t>& miss_at = serial_miss_at_;  // pair index per miss
  std::vector<ElementId*>& miss_slots = serial_miss_slots_;  // memo slots
  std::vector<ElementId>& answers = serial_answers_;  // GenerateVotes output
  // In-unit duplicates: pair index and the first occurrence's memo slot.
  std::vector<std::pair<size_t, const ElementId*>>& deferred =
      serial_deferred_;

  for (size_t u = 0; u < round.units.size(); ++u) {
    const RoundUnit& unit = round.units[u];
    int64_t span_id = -1;
    if (unit.serial_span != nullptr) {
      if (trace != nullptr) {
        span_id = trace->BeginSpan(TraceSpanKind::kBatch, unit.serial_span);
      }
      if (unit.serial_span_size >= 0) {
        ObserveTournamentSize(unit.serial_span_size);
      }
    }
    std::vector<ElementId>& winners = out.winners[u];
    if (batch != nullptr) {
      // Batch-at-once unit execution, bit-identical to the per-call loop
      // below: misses are collected in first-occurrence order (the order
      // the per-call path would draw them), answered with one
      // GenerateVotes call, then written back. A duplicate of a pair whose
      // first occurrence is still unanswered counts as a cache hit — the
      // per-call path would find the first occurrence's fresh entry — and
      // is filled from its first occurrence's slot afterwards. One probe
      // per pair: the Reserve pins every slot pointer for the unit, so
      // answers are written straight through them.
      winners.resize(unit.pairs.size());
      if (memoize_) {
        misses.clear();
        miss_at.clear();
        miss_slots.clear();
        deferred.clear();
        cache_->Reserve(static_cast<int64_t>(unit.pairs.size()));
        for (size_t p = 0; p < unit.pairs.size(); ++p) {
          if (p + kPrefetchAhead < unit.pairs.size()) {
            const ComparisonPair& ahead = unit.pairs[p + kPrefetchAhead];
            cache_->Prefetch(PackPairKey(ahead.first, ahead.second));
          }
          const ComparisonPair& pair = unit.pairs[p];
          const uint64_t key = PackPairKey(pair.first, pair.second);
          bool reserved = false;
          ElementId* slot = cache_->Insert(key, -1, &reserved);
          if (!reserved && *slot == -1) {
            // Same pair again within this unit, first occurrence still in
            // the miss list.
            ++cache_hits_;
            deferred.emplace_back(p, slot);
          } else if (!reserved && *slot != kUnresolvedWinner) {
            winners[p] = *slot;
            ++cache_hits_;
          } else {
            // Fresh reservation, or an unresolved parking from an earlier
            // executor-backed phase: buy the pair this round.
            *slot = -1;
            misses.push_back(pair);
            miss_at.push_back(p);
            miss_slots.push_back(slot);
          }
        }
        answers.resize(misses.size());
        const int64_t produced = batch->GenerateVotes(misses, answers);
        CROWDMAX_CHECK(produced == static_cast<int64_t>(misses.size()));
        for (size_t m = 0; m < misses.size(); ++m) {
          const ElementId winner = answers[m];
          CROWDMAX_DCHECK(winner == misses[m].first ||
                          winner == misses[m].second);
          *miss_slots[m] = winner;
          winners[miss_at[m]] = winner;
        }
        for (const auto& [p, slot] : deferred) winners[p] = *slot;
      } else {
        answers.resize(unit.pairs.size());
        const int64_t produced = batch->GenerateVotes(unit.pairs, answers);
        CROWDMAX_CHECK(produced == static_cast<int64_t>(unit.pairs.size()));
        std::copy(answers.begin(), answers.end(), winners.begin());
      }
      out.issued += static_cast<int64_t>(unit.pairs.size());
    } else {
      winners.reserve(unit.pairs.size());
      for (const ComparisonPair& pair : unit.pairs) {
        ElementId winner;
        if (memoize_) {
          // An unresolved sentinel left by an earlier executor-backed phase
          // sharing this cache is a miss: the pair is bought (and the
          // sentinel overwritten) here.
          const uint64_t key = PackPairKey(pair.first, pair.second);
          ElementId* slot = cache_->Find(key);
          if (slot != nullptr && *slot != kUnresolvedWinner) {
            winner = *slot;
            ++cache_hits_;
          } else {
            winner = comparator_->Compare(pair.first, pair.second);
            cache_->Set(key, winner);
          }
        } else {
          winner = comparator_->Compare(pair.first, pair.second);
        }
        CROWDMAX_DCHECK(winner == pair.first || winner == pair.second);
        winners.push_back(winner);
        ++out.issued;
      }
    }
    if (span_id >= 0) trace->EndSpan(span_id);
  }

  out.paid_delta = comparator_->num_comparisons() - paid_before;
  issued_ += out.issued;
  return out;
}

Result<RoundOutcome> RoundEngine::ExecuteParallel(const EngineRound& round) {
  const int64_t num_units = static_cast<int64_t>(round.units.size());
  RoundOutcome out;
  out.winners.resize(round.units.size());
  if (num_units == 0) return out;

  // Seeds are drawn before dispatch, in unit order — the whole point: the
  // answers depend only on (unit contents, seed), never on the schedule.
  std::vector<uint64_t> seeds(round.units.size());
  for (int64_t u = 0; u < num_units; ++u) {
    seeds[static_cast<size_t>(u)] = seeder_.Fork();
  }

  // Engine-owned per-unit scratch, reused across rounds: each pool task
  // touches only its own slot (indexed by unit), so the buffers stay
  // fork-local and race-free. Grown, never shrunk, so steady-state rounds
  // allocate nothing.
  if (unit_scratch_.size() < round.units.size()) {
    unit_scratch_.resize(round.units.size());
  }

  // During the round the cache is read-only shared state; each task
  // writes only to its own pre-sized winners slot.
  std::vector<int64_t> unit_paid(round.units.size(), 0);
  pool_->ParallelFor(num_units, [&](int64_t u) {
    const RoundUnit& unit = round.units[static_cast<size_t>(u)];
    std::vector<ElementId>& winners = out.winners[static_cast<size_t>(u)];

    const std::unique_ptr<Comparator> fork =
        comparator_->Fork(seeds[static_cast<size_t>(u)]);
    CROWDMAX_CHECK(fork != nullptr);
    VoteBatchComparator* batch = fork->AsVoteBatch();

    if (batch != nullptr) {
      // Batch-at-once unit execution on the fork. The per-call parallel
      // path treats the cache as a read-only snapshot and does NOT dedupe
      // within a unit (each repeat is a fresh paid draw — Venetis votes),
      // so the miss list is simply every pair absent from the snapshot,
      // duplicates included, in pair order. One probe per pair: hits are
      // written at once, misses filled from the answers by position.
      winners.resize(unit.pairs.size());
      UnitScratch& scratch = unit_scratch_[static_cast<size_t>(u)];
      std::vector<ComparisonPair>& misses = scratch.misses;
      misses.clear();
      scratch.miss_at.clear();
      for (size_t p = 0; p < unit.pairs.size(); ++p) {
        const ComparisonPair& pair = unit.pairs[p];
        const ElementId* slot =
            memoize_
                ? std::as_const(*cache_).Find(
                      PackPairKey(pair.first, pair.second))
                : nullptr;
        if (slot != nullptr && *slot != kUnresolvedWinner) {
          winners[p] = *slot;
        } else {
          misses.push_back(pair);
          scratch.miss_at.push_back(p);
        }
      }
      std::vector<ElementId>& answers = scratch.answers;
      answers.assign(misses.size(), -1);
      const int64_t produced = batch->GenerateVotes(misses, answers);
      CROWDMAX_CHECK(produced == static_cast<int64_t>(misses.size()));
      for (size_t m = 0; m < misses.size(); ++m) {
        CROWDMAX_DCHECK(answers[m] == misses[m].first ||
                        answers[m] == misses[m].second);
        winners[scratch.miss_at[m]] = answers[m];
      }
    } else {
      winners.reserve(unit.pairs.size());
      for (const ComparisonPair& pair : unit.pairs) {
        ElementId winner;
        if (memoize_) {
          const ElementId* slot = std::as_const(*cache_).Find(
              PackPairKey(pair.first, pair.second));
          if (slot != nullptr && *slot != kUnresolvedWinner) {
            winner = *slot;
          } else {
            winner = fork->Compare(pair.first, pair.second);
          }
        } else {
          winner = fork->Compare(pair.first, pair.second);
        }
        CROWDMAX_DCHECK(winner == pair.first || winner == pair.second);
        winners.push_back(winner);
      }
    }
    unit_paid[static_cast<size_t>(u)] = fork->num_comparisons();
  });

  // Round barrier: merge the counter shards into the parent and the fresh
  // pair outcomes into the cache, in unit order.
  int64_t total_paid = 0;
  for (int64_t paid : unit_paid) total_paid += paid;
  comparator_->AddComparisons(total_paid);

  for (size_t u = 0; u < round.units.size(); ++u) {
    const RoundUnit& unit = round.units[u];
    out.issued += static_cast<int64_t>(unit.pairs.size());
    if (memoize_) {
      for (size_t p = 0; p < unit.pairs.size(); ++p) {
        bool inserted = false;
        ElementId* slot = cache_->Insert(
            PackPairKey(unit.pairs[p].first, unit.pairs[p].second),
            out.winners[u][p], &inserted);
        // A pre-existing unresolved sentinel (shared cache, earlier faulty
        // phase) was bought this round; overwrite it with the evidence.
        if (!inserted && *slot == kUnresolvedWinner) {
          *slot = out.winners[u][p];
        }
      }
    }
  }

  out.paid_delta = total_paid;
  issued_ += out.issued;
  cache_hits_ += out.issued - out.paid_delta;
  return out;
}

Status RoundEngine::ResolveRound(const EngineRound& round,
                                 int64_t source_round_index,
                                 RoundOutcome* out,
                                 std::vector<ComparisonPair>* misses,
                                 int64_t* base) {
  if (round.clear_round_cache) cache_->Clear();
  if (window_rounds_ == 0) window_misses_ = 0;
  if (window_misses_ + round.TotalPairs() > kMaxWindowMisses) {
    return Status::ResourceExhausted(
        "in-flight rounds would reserve more than 2^31 pairs; lower the "
        "pipeline depth");
  }
  ++window_rounds_;
  *base = window_misses_;
  misses->clear();
  out->winners.resize(round.units.size());

  // One Insert per pair. winners[] takes the slot value whatever it is —
  // an answer, or the reservation of this round's miss (its own or, for
  // an in-round duplicate, its first occurrence's) that StoreRound swaps
  // for the answer. A parking is bought again.
  for (size_t u = 0; u < round.units.size(); ++u) {
    const std::vector<ComparisonPair>& pairs = round.units[u].pairs;
    std::vector<ElementId>& winners = out->winners[u];
    winners.resize(pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (p + kPrefetchAhead < pairs.size()) {
        const ComparisonPair& ahead = pairs[p + kPrefetchAhead];
        cache_->Prefetch(PackPairKey(ahead.first, ahead.second));
      }
      const ComparisonPair& pair = pairs[p];
      const uint64_t key = PackPairKey(pair.first, pair.second);
      const int64_t next = *base + static_cast<int64_t>(misses->size());
      bool fresh = false;
      ElementId* slot = cache_->Insert(key, ReservationOf(next), &fresh);
      if (fresh || *slot == kUnresolvedWinner) {
        *slot = ReservationOf(next);
        misses->push_back(pair);
      } else if (*slot <= kFirstReservation &&
                 (OrdinalOf(*slot) < *base || OrdinalOf(*slot) >= next)) {
        StoreRound(*misses, *base, nullptr, out);
        return Status::Internal(
            "pipelined round depends on a pair still in flight (RoundPairKey " +
            std::to_string(key) + " = {" + std::to_string(pair.first) + ", " +
            std::to_string(pair.second) + "}, source round index " +
            std::to_string(source_round_index) +
            "); the RoundSource violated the CanPipelineNextRound "
            "disjointness rule");
      }
      winners[p] = *slot;
    }
    out->issued += static_cast<int64_t>(pairs.size());
  }
  window_misses_ += static_cast<int64_t>(misses->size());
  issued_ += out->issued;
  if (const int64_t hits =
          out->issued - static_cast<int64_t>(misses->size());
      hits > 0) {
    cache_hits_ += hits;
    if (AlgoTrace* trace = CurrentTrace()) trace->RecordCacheHits(hits);
  }
  return Status::OK();
}

void RoundEngine::StoreRound(const std::vector<ComparisonPair>& misses,
                             int64_t base,
                             const std::vector<BatchTaskResult>* results,
                             RoundOutcome* out) {
  CROWDMAX_CHECK(results == nullptr || results->size() == misses.size());
  miss_answers_.resize(misses.size());
  for (size_t m = 0; m < misses.size(); ++m) {
    ElementId winner = kUnresolvedWinner;
    if (results != nullptr && (*results)[m].answered) {
      winner = (*results)[m].winner;
      CROWDMAX_DCHECK(winner == misses[m].first || winner == misses[m].second);
    }
    miss_answers_[m] = winner;
    cache_->Set(PackPairKey(misses[m].first, misses[m].second), winner);
  }
  for (std::vector<ElementId>& winners : out->winners) {
    for (ElementId& winner : winners) {
      if (winner > kFirstReservation) continue;
      winner = miss_answers_[static_cast<size_t>(OrdinalOf(winner) - base)];
      if (winner == kUnresolvedWinner) ++out->unresolved;
    }
  }
  --window_rounds_;
}

template <typename Dispatch>
Status RoundEngine::SendRound(const EngineRound& round,
                              int64_t source_round_index, RoundOutcome* out,
                              std::vector<ComparisonPair>* misses,
                              int64_t* base, Dispatch&& dispatch) {
  AlgoTrace* trace = CurrentTrace();
  int64_t span_id = -1;
  if (round.executor_span != nullptr && trace != nullptr) {
    span_id = trace->BeginSpan(TraceSpanKind::kBatch, round.executor_span);
  }
  const int64_t paid_before = executor_->comparisons();
  Status status = ResolveRound(round, source_round_index, out, misses, base);
  if (status.ok()) {
    status = dispatch();
    if (!status.ok()) StoreRound(*misses, *base, nullptr, out);
    out->paid_delta = executor_->comparisons() - paid_before;
  }
  if (span_id >= 0) trace->EndSpan(span_id);
  return status;
}

Result<RoundOutcome> RoundEngine::ExecuteBatched(const EngineRound& round) {
  RoundOutcome out;
  int64_t base = 0;
  Status sent = SendRound(
      round, -1, &out, &round_misses_, &base, [&]() -> Status {
        Result<std::vector<BatchTaskResult>> results =
            executor_->TryExecuteBatch(round_misses_);
        // The non-pipelined drive sleeps out the simulated crowd round
        // trip here, answered or not — a rejected submission still cost
        // the latency. A no-op with the latency model off (the default).
        std::this_thread::sleep_for(std::chrono::microseconds(
            executor_->TakeSimulatedLatencyMicros()));
        if (!results.ok()) return results.status();
        StoreRound(round_misses_, base, &*results, &out);
        return Status::OK();
      });
  if (!sent.ok()) {
    // A transient executor fault reaches the source as a round of parked
    // pairs; anything else aborts the drive.
    if (sent.code() != StatusCode::kUnavailable) return sent;
    out.fault = sent;
  }
  return out;
}

Result<DriveResult> RoundEngine::Drive(RoundSource* source,
                                       const DriveOptions& options) {
  CROWDMAX_CHECK(source != nullptr);
  if (async_ != nullptr) return DrivePipelined(source, options);
  DriveResult drive;
  int64_t paid_start = paid();
  int64_t open_round_id = -1;
  AlgoTrace* trace = CurrentTrace();
  const auto close_round_span = [&] {
    if (open_round_id >= 0) {
      trace->EndSpan(open_round_id);
      open_round_id = -1;
    }
  };
  const auto fail = [&](Status status) -> Status {
    close_round_span();
    return status;
  };

  // A staged restore rebuilds the whole run — engine counters, cache,
  // comparator/executor stack, source — before the first round, so the
  // drive below continues exactly where the checkpointed one stopped.
  if (checkpoint_ != nullptr && checkpoint_->PendingRestore() != nullptr) {
    Status restored = RestoreCheckpoint(
        source, *checkpoint_->PendingRestore(), &paid_start, &drive);
    if (!restored.ok()) return restored;
    checkpoint_->MarkRestored();
  }

  while (true) {
    EngineRound round;
    Result<bool> more = source->NextRound(&round);
    if (!more.ok()) return fail(more.status());
    if (!*more) break;

    // Budget gate, at the round boundary: a round whose worst case would
    // exceed the cap never starts (memoization hits could make it cheaper,
    // but a guaranteed-affordable round is what the cap promises).
    if (options.max_comparisons > 0 &&
        (paid() - paid_start) + round.TotalPairs() > options.max_comparisons) {
      drive.stopped_by_budget = true;
      source->OnBudgetStop();
      break;
    }

    const int64_t open_round = backend_ == Backend::kExecutor
                                   ? round.open_round_executor
                                   : round.open_round_comparator;
    const bool close_round = backend_ == Backend::kExecutor
                                 ? round.close_round_executor
                                 : round.close_round_comparator;
    if (open_round > 0 && trace != nullptr) {
      CROWDMAX_CHECK(open_round_id < 0);
      open_round_id = trace->BeginRound(open_round);
    }

    PruneMemo(round);
    Result<RoundOutcome> outcome =
        backend_ == Backend::kSerial     ? ExecuteSerial(round)
        : backend_ == Backend::kParallel ? ExecuteParallel(round)
                                         : ExecuteBatched(round);
    if (!outcome.ok()) return fail(outcome.status());
    ObserveMemo(cache_->size(), 0);

    // Comparator-backend cell recording at the round barrier: every paid
    // comparison came back answered (faults live in the executor stack)
    // and the issued-minus-paid remainder was served by the memo cache.
    if (backend_ != Backend::kExecutor && round.record_round_cell &&
        trace != nullptr) {
      trace->RecordDispatched(outcome->paid_delta);
      trace->RecordOutcomes(outcome->paid_delta, 0, 0);
      if (outcome->issued > outcome->paid_delta) {
        trace->RecordCacheHits(outcome->issued - outcome->paid_delta);
      }
    }

    Status consumed = source->ConsumeOutcome(round, *outcome);
    if (close_round) close_round_span();
    if (!consumed.ok()) return fail(consumed);
    ++drive.rounds_executed;
    // Clean round boundary: no open trace span, no outstanding work. The
    // controller may snapshot here (cadence) or kill the run (chaos plan);
    // a kAborted from the plan propagates out like any drive error.
    if (checkpoint_ != nullptr && open_round_id < 0) {
      Status boundary = checkpoint_->OnRoundBoundary(
          [&] { return SerializeCheckpoint(source, paid_start, drive); });
      if (!boundary.ok()) return boundary;
    }
  }

  close_round_span();
  return drive;
}

// One pipelined round between submission and completion. `out` already
// carries the submission-time halves (issued, paid_delta, cache hits
// recorded, hits written into winners); completion stores the answers and
// fills the reserved winners, unresolved and fault. A speculative round
// sits in the window with only `round`, `handle` (an unconfirmed
// speculative handle) and `source_round_index` filled in — its
// deterministic halves run at confirmation, when SubmitPipelined is
// invoked on it a second time.
struct RoundEngine::PendingRound {
  EngineRound round;
  int64_t handle = -1;
  std::vector<ComparisonPair> misses;
  /// Window ordinal of misses[0] (ResolveRound's reservation base).
  int64_t base = 0;
  RoundOutcome out;
  bool speculative = false;
  /// Emission ordinal of this round within the drive (rounds consumed +
  /// position in the in-flight window at emission), for diagnostics.
  int64_t source_round_index = 0;
};

Status RoundEngine::SubmitPipelined(PendingRound* pending) {
  // Compute-at-submit: the adapter runs the inner executor synchronously
  // here (identical RNG draws, counters, transcript rows and trace cells
  // to the non-pipelined path) and banks only the latency. paid_delta is
  // therefore final at submission, which is what keeps the budget gate and
  // every counter bit-identical to the serial drive. A speculative round
  // being confirmed already holds its handle: the same deterministic half
  // runs now — at the exact point the synchronous drive would have
  // submitted it — and the adapter back-dates the deadline to the
  // speculative start, which is the whole wall-clock win.
  return SendRound(
      pending->round, pending->source_round_index, &pending->out,
      &pending->misses, &pending->base, [&]() -> Status {
        if (pending->handle >= 0) {
          return async_->ConfirmBatch(pending->handle, pending->misses);
        }
        Result<int64_t> handle = async_->SubmitBatchAsync(pending->misses);
        if (!handle.ok()) return handle.status();
        pending->handle = *handle;
        return Status::OK();
      });
}

Status RoundEngine::CompletePipelined(PendingRound* pending) {
  Result<std::vector<BatchTaskResult>> results =
      async_->Wait(pending->handle);
  StoreRound(pending->misses, pending->base,
             results.ok() ? &*results : nullptr, &pending->out);
  if (!results.ok()) {
    if (results.status().code() != StatusCode::kUnavailable) {
      return results.status();
    }
    pending->out.fault = results.status();
  }
  return Status::OK();
}

Result<DriveResult> RoundEngine::DrivePipelined(RoundSource* source,
                                                const DriveOptions& options) {
  DriveResult drive;
  int64_t paid_start = paid();
  int64_t open_round_id = -1;
  AlgoTrace* trace = CurrentTrace();
  std::deque<std::unique_ptr<PendingRound>> in_flight;

  const auto close_round_span = [&] {
    if (open_round_id >= 0) {
      trace->EndSpan(open_round_id);
      open_round_id = -1;
    }
  };
  // Abort-path cleanup: park every in-flight round's misses so a shared
  // cache is not left holding reservations, and cancel the async
  // handles — computed answers abandoned unconsumed are banked-answer
  // refunds the adapter accounts. Speculative rounds reserved nothing in
  // the cache and computed nothing, so cancellation alone unwinds them;
  // the source is told its speculation died with the drive.
  const auto abandon_in_flight = [&] {
    bool aborted_speculation = false;
    for (const auto& pending : in_flight) {
      if (pending->handle >= 0) {
        // Failure here is unreachable on the adapter (the handle is live);
        // on this abort path the refund count is dropped regardless.
        async_->CancelBatch(pending->handle);
      }
      if (pending->speculative) {
        aborted_speculation = true;
        continue;
      }
      StoreRound(pending->misses, pending->base, nullptr, &pending->out);
    }
    in_flight.clear();
    if (aborted_speculation) source->OnSpeculationAborted();
  };
  // Waits out the oldest in-flight round and delivers its outcome —
  // strictly in submission order, so the source sees the same callback
  // sequence as the serial drive. Never called on a speculative round:
  // the reconcile branch below turns the window firm (or cancels it)
  // before anything in it can retire.
  const auto complete_oldest = [&]() -> Status {
    PendingRound* pending = in_flight.front().get();
    CROWDMAX_CHECK(!pending->speculative);
    Status done = CompletePipelined(pending);
    if (!done.ok()) {
      in_flight.pop_front();
      return done;
    }
    Status consumed = source->ConsumeOutcome(pending->round, pending->out);
    const bool close_round = pending->round.close_round_executor;
    in_flight.pop_front();
    if (close_round) close_round_span();
    if (!consumed.ok()) return consumed;
    ++drive.rounds_executed;
    // Checkpoints only at fully-drained boundaries: nothing in flight and
    // no open trace span, so the serialized state has no half-submitted
    // rounds or cache reservations in it.
    if (checkpoint_ != nullptr && in_flight.empty() && open_round_id < 0) {
      Status boundary = checkpoint_->OnRoundBoundary(
          [&] { return SerializeCheckpoint(source, paid_start, drive); });
      if (!boundary.ok()) return boundary;
    }
    return Status::OK();
  };
  const auto drain = [&]() -> Status {
    while (!in_flight.empty()) {
      Status retired = complete_oldest();
      if (!retired.ok()) return retired;
    }
    return Status::OK();
  };
  // Every error exit: unwind the window, then close the round span.
  const auto fail = [&](Status status) -> Status {
    abandon_in_flight();
    close_round_span();
    return status;
  };
  const auto push_in_flight = [&](std::unique_ptr<PendingRound> pending) {
    in_flight.push_back(std::move(pending));
    const int64_t depth = static_cast<int64_t>(in_flight.size());
    if (depth > max_in_flight_observed_) max_in_flight_observed_ = depth;
    ObservePipelineDepth(depth);
  };

  if (checkpoint_ != nullptr && checkpoint_->PendingRestore() != nullptr) {
    Status restored = RestoreCheckpoint(
        source, *checkpoint_->PendingRestore(), &paid_start, &drive);
    if (!restored.ok()) return restored;
    checkpoint_->MarkRestored();
  }

  // Speculation is legal only on budget-free drives: the budget gate is
  // an emission-time predicate of the synchronous schedule, and a
  // speculative round has no emission point yet — rather than approximate
  // the gate, budget-gated drives degrade to firm pipelining
  // (DESIGN.md §15).
  const bool allow_speculation = options.max_comparisons == 0;

  while (true) {
    // The in-flight window is always a firm prefix followed by a
    // speculative suffix. The front turning speculative means every firm
    // outcome has been consumed: the prediction can be judged now.
    if (!in_flight.empty() && in_flight.front()->speculative) {
      const SpeculationVerdict verdict = source->ReconcileSpeculation();
      if (verdict == SpeculationVerdict::kConfirmed) {
        // Turn the whole window firm, in emission order. Each round's
        // deterministic half (cache resolution, batch span, executor
        // compute, paid accounting) runs here — the exact program point
        // where the synchronous drive would have submitted it — while its
        // latency deadline stays anchored at the speculative start.
        int64_t confirmed_rounds = 0;
        Status confirm_error = Status::OK();
        for (auto& pending : in_flight) {
          CROWDMAX_CHECK(pending->speculative);
          confirm_error = SubmitPipelined(pending.get());
          if (!confirm_error.ok()) break;
          pending->speculative = false;
          ++speculation_hits_;
          ++confirmed_rounds;
        }
        if (!confirm_error.ok()) return fail(confirm_error);
        ObserveSpeculation(confirmed_rounds, 0, 0);
        continue;
      }
      // Misprediction: cancel the whole window before anything in it runs,
      // charge the comparisons the rounds *would* have bought (deduped
      // against the cache and each other, the way submission would have
      // deduped them) as first-class wasted spend, and let the source roll
      // its emission bookkeeping back to consumed truth.
      int64_t wasted = 0;
      int64_t cancelled_rounds = 0;
      PairTable would_buy;
      for (const auto& pending : in_flight) {
        CROWDMAX_CHECK(pending->speculative);
        for (const RoundUnit& unit : pending->round.units) {
          for (const ComparisonPair& pair : unit.pairs) {
            const uint64_t key = PackPairKey(pair.first, pair.second);
            const ElementId* slot = cache_->Find(key);
            bool fresh = false;
            if (slot == nullptr || *slot == kUnresolvedWinner) {
              would_buy.Insert(key, 0, &fresh);
            }
            if (fresh) ++wasted;
          }
        }
        async_->CancelBatch(pending->handle);  // unconfirmed: nothing banked
        ++speculation_mispredicts_;
        ++cancelled_rounds;
      }
      in_flight.clear();
      source->OnSpeculationAborted();
      if (wasted > 0) {
        executor_->ChargeCancelledSpeculation(wasted);
        speculation_wasted_ += wasted;
      }
      ObserveSpeculation(0, cancelled_rounds, wasted);
      continue;
    }

    // Emission decision. Firm emission needs the window tail firm (a firm
    // round behind a speculative one would reorder the consume sequence);
    // speculative emission needs a source prediction and a budget-free
    // drive. When neither is legal, retire the oldest round — the source
    // needs an outcome (or the window is full) before anything new can go
    // out.
    const bool window_full =
        static_cast<int64_t>(in_flight.size()) >= max_in_flight_;
    const bool tail_speculative =
        !in_flight.empty() && in_flight.back()->speculative;
    const bool emit_firm =
        in_flight.empty() ||
        (!window_full && !tail_speculative && source->CanPipelineNextRound());
    const bool emit_speculative = !emit_firm && !window_full &&
                                  allow_speculation &&
                                  source->CanSpeculateNextRound();

    if (emit_speculative) {
      EngineRound round;
      Result<bool> offered = source->SpeculateNextRound(&round);
      if (!offered.ok()) return fail(offered.status());
      if (*offered) {
        // Speculative rounds may not open round spans or clear the cache:
        // both are effects of the synchronous schedule, which this round
        // has not joined yet.
        CROWDMAX_CHECK(round.open_round_executor == 0);
        CROWDMAX_CHECK(!round.clear_round_cache);
        auto pending = std::make_unique<PendingRound>();
        pending->speculative = true;
        pending->source_round_index =
            drive.rounds_executed + static_cast<int64_t>(in_flight.size());
        pending->round = std::move(round);
        Result<int64_t> handle = async_->SubmitSpeculativeBatch();
        if (!handle.ok()) return fail(handle.status());
        pending->handle = *handle;
        push_in_flight(std::move(pending));
        ++speculative_rounds_;
        ++overlapped_rounds_;  // a speculative round overlaps by definition
        continue;
      }
    }

    // Retire the oldest round whenever the pipeline is full or the source
    // needs an outcome (or declined to speculate) before it can emit again.
    if (!emit_firm) {
      Status retired = complete_oldest();
      if (!retired.ok()) return fail(retired);
      continue;
    }

    EngineRound round;
    Result<bool> more = source->NextRound(&round);
    if (!more.ok()) return fail(more.status());
    if (!*more) break;

    // Budget gate: paid() is already final for every submitted round
    // (compute-at-submit), so the gate evaluates exactly the serial
    // drive's predicate. In-flight rounds are drained before the source
    // hears about the stop, preserving its callback order.
    if (options.max_comparisons > 0 &&
        (paid() - paid_start) + round.TotalPairs() > options.max_comparisons) {
      Status drained = drain();
      if (!drained.ok()) return fail(drained);
      drive.stopped_by_budget = true;
      source->OnBudgetStop();
      break;
    }

    // A cache clear or a live-pair rebuild under in-flight rounds would
    // drop their reservations: drain first. (Pipelining sources only clear
    // or declare live ids at logical-round boundaries, where
    // CanPipelineNextRound already forced a drain, so this loop is a no-op
    // for them.)
    if (round.clear_round_cache || round.live_items != nullptr) {
      Status drained = drain();
      if (!drained.ok()) return fail(drained);
    }

    if (round.open_round_executor > 0 && trace != nullptr) {
      CROWDMAX_CHECK(open_round_id < 0);
      open_round_id = trace->BeginRound(round.open_round_executor);
    }
    const bool overlapped = !in_flight.empty();
    PruneMemo(round);

    auto pending = std::make_unique<PendingRound>();
    pending->source_round_index =
        drive.rounds_executed + static_cast<int64_t>(in_flight.size());
    pending->round = std::move(round);
    Status submitted = SubmitPipelined(pending.get());
    if (!submitted.ok()) return fail(submitted);
    push_in_flight(std::move(pending));
    ObserveMemo(cache_->size(), 0);
    if (overlapped) ++overlapped_rounds_;
  }

  Status drained = drain();
  if (!drained.ok()) return fail(drained);
  close_round_span();
  return drive;
}

}  // namespace crowdmax
