#include "core/filter_phase.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/checkpoint.h"
#include "core/round_engine.h"
#include "core/trace.h"

namespace crowdmax {

namespace {

constexpr uint32_t kFilterTag = CheckpointTag("FLT ");

Status ValidateFilterInput(const std::vector<ElementId>& items,
                           const FilterOptions& options) {
  if (options.u_n < 1) {
    return Status::InvalidArgument("u_n must be >= 1");
  }
  if (options.group_size_multiplier < 2) {
    return Status::InvalidArgument("group_size_multiplier must be >= 2");
  }
  if (options.max_comparisons < 0) {
    return Status::InvalidArgument("max_comparisons must be >= 0");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  std::vector<ElementId> sorted(items);
  std::sort(sorted.begin(), sorted.end());
  // A negative id is a sentinel, not an element: it would alias a pair key
  // (PackPairKey) instead of failing.
  if (!sorted.empty() && sorted.front() < 0) {
    return Status::InvalidArgument("negative element id in input");
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("duplicate element id in input");
  }
  return Status::OK();
}

// Element ids together with their input positions (indices into the run's
// `items`), which address the flat loss rows. Only the ids are part of the
// checkpoint; positions are recomputed on restore.
struct Roster {
  std::vector<ElementId> ids;
  std::vector<int32_t> pos;

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  void clear() {
    ids.clear();
    pos.clear();
  }
  void push_back(ElementId id, int32_t position) {
    ids.push_back(id);
    pos.push_back(position);
  }
  void Append(const Roster& from, size_t begin, size_t end) {
    ids.insert(ids.end(), from.ids.begin() + begin, from.ids.begin() + end);
    pos.insert(pos.end(), from.pos.begin() + begin, from.pos.begin() + end);
  }
};

// Algorithm 2 as a round generator. The source holds only algorithm state
// (survivor set, loss counters); every per-round mechanism — group
// dispatch, memoization, the max_comparisons budget gate, trace cells —
// lives in the engine.
class FilterRoundSource : public RoundSource {
 public:
  FilterRoundSource(const std::vector<ElementId>& items,
                    const FilterOptions& options, bool partial_evidence)
      : options_(options),
        partial_evidence_(partial_evidence),
        group_rounds_(options.pipeline_groups),
        items_(items),
        loss_stride_(LossStride(static_cast<int64_t>(items.size()),
                                options)) {
    current_.ids = items;
    current_.pos.resize(items.size());
    for (size_t p = 0; p < items.size(); ++p) {
      current_.pos[p] = static_cast<int32_t>(p);
    }
    if (options_.global_loss_counter) {
      // Rows are written before they are read, and a row's pages are only
      // touched once its element loses, so the arena is not zero-filled.
      loss_rows_ = std::make_unique_for_overwrite<ElementId[]>(
          items.size() * static_cast<size_t>(loss_stride_));
      loss_count_.assign(items.size(), 0);
    }
  }

  Result<bool> NextRound(EngineRound* round) override {
    if (done_) return false;
    if (!group_rounds_) {
      if (!Partition()) return false;
      round->units.reserve(groups_.size());
      for (const Roster& group : groups_) {
        round->units.push_back(MakeGroupUnit(group.ids));
      }
      round->open_round_comparator = result_.rounds + 1;
      round->open_round_executor = result_.rounds + 1;
      round->close_round_comparator = true;
      round->close_round_executor = true;
      round->record_round_cell = true;
      round->clear_round_cache = !options_.memoize;
      round->live_items = &current_.ids;
      return true;
    }

    // Group-granular emission: one engine round per group. The logical
    // round's trace span opens with the first group and closes with the
    // last group's consume, so the span shape matches the combined
    // emission. A freshly-partitioned logical round never overlaps the
    // previous one (CanPipelineNextRound went false at its last group, so
    // the engine drained the pipeline before calling here again).
    if (next_emit_ >= groups_.size()) {
      if (!Partition()) return false;
    }
    round->units.push_back(MakeGroupUnit(groups_[next_emit_].ids));
    if (next_emit_ == 0) {
      round->open_round_comparator = result_.rounds + 1;
      round->open_round_executor = result_.rounds + 1;
      round->clear_round_cache = !options_.memoize;
      round->live_items = &current_.ids;
    }
    if (next_emit_ + 1 == groups_.size()) {
      round->close_round_comparator = true;
      round->close_round_executor = true;
    }
    round->record_round_cell = true;
    ++next_emit_;
    return true;
  }

  bool CanPipelineNextRound() const override {
    // The remaining groups of a partitioned logical round are
    // latency-independent: their pair sets are disjoint (groups share no
    // element) and their content was fixed at partition time. The first
    // group of the *next* logical round depends on this round's survivor
    // selection, so emission stops pipelining at the round boundary.
    return group_rounds_ && !done_ && next_emit_ > 0 &&
           next_emit_ < groups_.size();
  }

  Status ConsumeOutcome(const EngineRound& /*round*/,
                        const RoundOutcome& outcome) override {
    const bool first = group_rounds_ ? next_consume_ == 0 : true;
    if (first) {
      result_.round_sizes.push_back(static_cast<int64_t>(current_.size()));
      ++result_.rounds;
      round_next_.clear();
      round_next_.ids.reserve(current_.size() / 2 + 1);
      round_next_.pos.reserve(current_.size() / 2 + 1);
      round_unresolved_ = 0;
      round_fault_ = Status::OK();
    }
    result_.issued_comparisons += outcome.issued;
    if (round_fault_.ok() && !outcome.fault.ok()) round_fault_ = outcome.fault;

    // Barrier work, single-threaded and in group order: tallies, loss
    // counters, survivor selection (once every group of the logical round
    // is in). No trace operations happen here — the pipelining legality
    // rule (c) that keeps interleaved consumes trace-silent.
    if (!group_rounds_) {
      for (size_t gi = 0; gi < groups_.size(); ++gi) {
        Status tallied = TallyGroup(groups_[gi], outcome.winners[gi]);
        if (!tallied.ok()) return tallied;
      }
      return FinishLogicalRound();
    }
    Status tallied = TallyGroup(groups_[next_consume_], outcome.winners[0]);
    if (!tallied.ok()) return tallied;
    ++next_consume_;
    if (next_consume_ == groups_.size()) return FinishLogicalRound();
    return Status::OK();
  }

  void OnBudgetStop() override { result_.stopped_by_budget = true; }

  // Full algorithm state, including the mid-logical-round cursors of
  // group-granular emission — a boundary between two groups of the same
  // logical round is a legal snapshot point (emission == consumption there,
  // since the engine only checkpoints with nothing in flight).
  Status SaveState(CheckpointWriter* writer) const override {
    writer->WriteTag(kFilterTag);
    writer->WriteIdVector(current_.ids);
    writer->WriteU64(static_cast<uint64_t>(groups_.size()));
    for (const Roster& group : groups_) writer->WriteIdVector(group.ids);
    writer->WriteIdVector(tail_.ids);
    writer->WriteU64(static_cast<uint64_t>(next_emit_));
    writer->WriteU64(static_cast<uint64_t>(next_consume_));
    writer->WriteIdVector(round_next_.ids);
    writer->WriteI64(round_unresolved_);
    writer->WriteStatus(round_fault_);
    // Loss rows in the canonical sorted-map-of-sorted-sets layout: every
    // element with at least one loss, by id, then its opponents, by id.
    std::vector<std::pair<ElementId, size_t>> losers;  // (id, position)
    for (size_t p = 0; p < loss_count_.size(); ++p) {
      if (loss_count_[p] > 0) losers.emplace_back(items_[p], p);
    }
    std::sort(losers.begin(), losers.end());
    writer->WriteU64(static_cast<uint64_t>(losers.size()));
    std::vector<ElementId> row;
    for (const auto& [id, p] : losers) {
      writer->WriteI64(id);
      const ElementId* begin = LossRow(p);
      row.assign(begin, begin + loss_count_[p]);
      std::sort(row.begin(), row.end());
      writer->WriteIdVector(row);
    }
    writer->WriteIdVector(result_.candidates);
    writer->WriteI64(result_.paid_comparisons);
    writer->WriteI64(result_.issued_comparisons);
    writer->WriteI64(result_.rounds);
    writer->WriteIdVector(result_.round_sizes);
    writer->WriteI64(result_.evicted_by_loss_counter);
    writer->WriteBool(result_.hit_empty_round);
    writer->WriteBool(result_.stopped_by_budget);
    writer->WriteBool(partial_);
    writer->WriteStatus(fault_status_);
    writer->WriteBool(done_);
    return Status::OK();
  }

  // Restores SaveState's bytes, refusing (typed, never by index or throw)
  // any id that is not one of this run's items and any cursor or loss row
  // that could not have been written by a run over them.
  Status LoadState(CheckpointReader* reader) override {
    std::unordered_map<int64_t, int32_t> position;
    position.reserve(items_.size());
    for (size_t p = 0; p < items_.size(); ++p) {
      position.emplace(items_[p], static_cast<int32_t>(p));
    }
    const auto refuse = [](const std::string& what) {
      return Status::FailedPrecondition(
          "checkpoint filter state does not fit this run: " + what);
    };
    // Reads an id vector and resolves every id to its input position.
    const auto read_roster = [&](Roster* roster) {
      roster->clear();
      const std::vector<int64_t> ids = reader->ReadIdVector();
      for (int64_t id : ids) {
        auto it = position.find(id);
        if (it == position.end()) return false;
        roster->push_back(static_cast<ElementId>(id), it->second);
      }
      return true;
    };

    reader->ExpectTag(kFilterTag);
    bool ids_known = read_roster(&current_);
    const uint64_t n_groups = reader->ReadU64();
    groups_.clear();
    for (uint64_t i = 0; i < n_groups && reader->status().ok(); ++i) {
      groups_.emplace_back();
      ids_known = read_roster(&groups_.back()) && ids_known;
    }
    ids_known = read_roster(&tail_) && ids_known;
    const uint64_t next_emit = reader->ReadU64();
    const uint64_t next_consume = reader->ReadU64();
    ids_known = read_roster(&round_next_) && ids_known;
    round_unresolved_ = reader->ReadI64();
    round_fault_ = reader->ReadStatus();
    if (!reader->status().ok()) return reader->status();
    if (!ids_known) return refuse("a survivor id is not in the input");
    // Checkpoints happen with nothing in flight: emission == consumption.
    if (next_emit != next_consume || next_emit > groups_.size()) {
      return refuse("group cursors out of range");
    }
    next_emit_ = static_cast<size_t>(next_emit);
    next_consume_ = static_cast<size_t>(next_consume);
    for (const Roster& group : groups_) {
      if (group.size() < 2) return refuse("a group has fewer than 2 ids");
    }

    const uint64_t n_losses = reader->ReadU64();
    if (n_losses > 0 && !options_.global_loss_counter) {
      return refuse("loss counters without global_loss_counter");
    }
    std::fill(loss_count_.begin(), loss_count_.end(), 0);
    int64_t previous_key = -1;
    for (uint64_t i = 0; i < n_losses && reader->status().ok(); ++i) {
      const int64_t key = reader->ReadI64();
      const uint64_t count = reader->ReadU64();
      if (!reader->status().ok()) break;
      auto it = position.find(key);
      if (it == position.end() || key <= previous_key) {
        return refuse("loss counter key " + std::to_string(key) +
                      " is not an input id in canonical order");
      }
      previous_key = key;
      if (count > static_cast<uint64_t>(loss_stride_)) {
        return refuse("loss row longer than u_n + group size - 1");
      }
      ElementId* row = LossRow(static_cast<size_t>(it->second));
      int64_t previous_opponent = -1;
      for (uint64_t k = 0; k < count; ++k) {
        const int64_t opponent = reader->ReadI64();
        if (!reader->status().ok()) break;
        if (position.count(opponent) == 0 || opponent <= previous_opponent) {
          return refuse("loss opponent " + std::to_string(opponent) +
                        " is not an input id in canonical order");
        }
        previous_opponent = opponent;
        row[k] = static_cast<ElementId>(opponent);
      }
      loss_count_[static_cast<size_t>(it->second)] =
          static_cast<int32_t>(count);
    }
    reader->ReadIdVector(&result_.candidates);
    result_.paid_comparisons = reader->ReadI64();
    result_.issued_comparisons = reader->ReadI64();
    result_.rounds = reader->ReadI64();
    reader->ReadIdVector(&result_.round_sizes);
    result_.evicted_by_loss_counter = reader->ReadI64();
    result_.hit_empty_round = reader->ReadBool();
    result_.stopped_by_budget = reader->ReadBool();
    partial_ = reader->ReadBool();
    fault_status_ = reader->ReadStatus();
    done_ = reader->ReadBool();
    return reader->status();
  }

  FilterEngineRun Finish(int64_t paid_delta) {
    FilterEngineRun run;
    result_.candidates = std::move(current_.ids);
    result_.paid_comparisons = paid_delta;
    run.filter = std::move(result_);
    run.partial = partial_;
    run.fault_status = fault_status_;
    return run;
  }

 private:
  /// Width of one loss row. An element stays live only while it has lost
  /// to at most u_n distinct opponents, and one logical round adds at most
  /// g - 1 more (its group's other members), so a row never holds more
  /// than u_n + g - 1 — nor more than the n - 1 other items.
  static int64_t LossStride(int64_t n, const FilterOptions& options) {
    int64_t stride = std::max<int64_t>(n - 1, 0);
    if (options.u_n < n && options.group_size_multiplier < n) {
      stride = std::min(stride, options.u_n * options.group_size_multiplier +
                                    options.u_n - 1);
    }
    return stride;
  }

  ElementId* LossRow(size_t position) const {
    return loss_rows_.get() + position * static_cast<size_t>(loss_stride_);
  }

  /// Partitions the survivors into this logical round's groups (only the
  /// final group can be short; with at most u_n elements it advances
  /// untouched, since a tournament could not eliminate anyone anyway —
  /// everyone keeps at least |G| - u_n <= 0 wins). Returns false when
  /// fewer than 2*u_n survivors remain (the loop exit).
  bool Partition() {
    const int64_t u_n = options_.u_n;
    const int64_t g = options_.group_size_multiplier * u_n;
    const int64_t n_cur = static_cast<int64_t>(current_.size());
    if (n_cur < 2 * u_n) return false;
    groups_.clear();
    tail_.clear();
    for (int64_t start = 0; start < n_cur; start += g) {
      const int64_t m = std::min(g, n_cur - start);
      const size_t begin = static_cast<size_t>(start);
      const size_t end = static_cast<size_t>(start + m);
      if (m <= u_n) {
        tail_.Append(current_, begin, end);
      } else {
        groups_.emplace_back();
        groups_.back().Append(current_, begin, end);
      }
    }
    next_emit_ = 0;
    next_consume_ = 0;
    return true;
  }

  static RoundUnit MakeGroupUnit(const std::vector<ElementId>& group) {
    RoundUnit unit;
    unit.pairs.reserve(group.size() * (group.size() - 1) / 2);
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        unit.pairs.push_back({group[i], group[j]});
      }
    }
    return unit;
  }

  /// Tallies one group's winners and appends its survivors to the round's
  /// pending set. An unresolved pair is missing evidence: it eliminates
  /// neither element (both tally the win) and the engine re-issues it
  /// next round.
  Status TallyGroup(const Roster& group,
                    const std::vector<ElementId>& winners) {
    const int64_t u_n = options_.u_n;
    const bool count_losses = options_.global_loss_counter;
    std::vector<int64_t> wins(group.size(), 0);
    // Row lengths before this group: the group's members are distinct, so
    // a loss can only repeat an opponent from an earlier round.
    if (count_losses) {
      known_losses_.resize(group.size());
      for (size_t i = 0; i < group.size(); ++i) {
        known_losses_[i] = loss_count_[static_cast<size_t>(group.pos[i])];
      }
    }
    size_t t = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j, ++t) {
        const ElementId winner = winners[t];
        if (winner == kUnresolvedWinner) {
          ++round_unresolved_;
          ++wins[i];
          ++wins[j];
          continue;
        }
        const size_t loser = winner == group.ids[i] ? j : i;
        ++wins[loser == j ? i : j];
        if (count_losses && !RecordLoss(static_cast<size_t>(group.pos[loser]),
                                        known_losses_[loser], winner)) {
          // Unreachable from a fresh run (see LossStride); a restored state
          // whose rows or survivors do not fit together ends here.
          return Status::FailedPrecondition(
              "loss row of element " + std::to_string(group.ids[loser]) +
              " overflowed; restored filter state is inconsistent");
        }
      }
    }
    // Keep elements with at least |G| - u_n wins (equivalently, fewer
    // than u_n losses inside the group).
    const int64_t keep_threshold = static_cast<int64_t>(group.size()) - u_n;
    for (size_t i = 0; i < group.size(); ++i) {
      if (wins[i] >= keep_threshold) {
        round_next_.push_back(group.ids[i], group.pos[i]);
      }
    }
    return Status::OK();
  }

  /// Adds `opponent` to the loss row at `position` unless it is among the
  /// row's first `known` entries. False when the row is full.
  bool RecordLoss(size_t position, int32_t known, ElementId opponent) {
    ElementId* row = LossRow(position);
    if (std::find(row, row + known, opponent) != row + known) return true;
    int32_t& count = loss_count_[position];
    if (count >= loss_stride_) return false;
    row[count++] = opponent;
    return true;
  }

  /// Survivor selection at the logical-round barrier, identical for both
  /// emission granularities.
  Status FinishLogicalRound() {
    const int64_t u_n = options_.u_n;
    round_next_.Append(tail_, 0, tail_.size());

    if (options_.global_loss_counter) {
      // Evict elements that have lost to more than u_n distinct opponents
      // in total; by Lemma 1 they cannot be the maximum.
      size_t kept = 0;
      for (size_t i = 0; i < round_next_.size(); ++i) {
        if (loss_count_[static_cast<size_t>(round_next_.pos[i])] > u_n) {
          continue;
        }
        round_next_.ids[kept] = round_next_.ids[i];
        round_next_.pos[kept] = round_next_.pos[i];
        ++kept;
      }
      result_.evicted_by_loss_counter +=
          static_cast<int64_t>(round_next_.size() - kept);
      round_next_.ids.resize(kept);
      round_next_.pos.resize(kept);
    }

    // With an underestimated u_n a round can eliminate everyone (no group
    // member reaches |G| - u_n wins). Degrade gracefully: keep the
    // pre-round survivors instead of returning an empty set.
    if (round_next_.empty()) {
      result_.hit_empty_round = true;
      done_ = true;
      return Status::OK();
    }

    if (round_next_.size() >= current_.size()) {
      if (!partial_evidence_ ||
          (round_unresolved_ == 0 && round_fault_.ok())) {
        // Lemma 2 guarantees strict shrinkage while |L_i| >= 2*u_n with
        // full evidence; a violation means a broken answer contract.
        if (!partial_evidence_) {
          CROWDMAX_CHECK(round_next_.size() < current_.size());
        }
        return Status::Internal(
            "batched filter made no progress with full evidence; executor "
            "answers are inconsistent");
      }
      // Faults withheld too much evidence to shrink the pool: stop and
      // report the survivors so far. The conservative tally never evicts
      // without a counted loss, so the maximum is still among them.
      partial_ = true;
      fault_status_ =
          round_fault_.ok()
              ? Status::Unavailable(
                    "filter round made no progress: " +
                    std::to_string(round_unresolved_) +
                    " comparisons unresolved after executor recovery")
              : round_fault_;
      done_ = true;
      return Status::OK();
    }
    current_ = std::move(round_next_);
    round_next_.clear();
    return Status::OK();
  }

  const FilterOptions options_;
  const bool partial_evidence_;
  const bool group_rounds_;
  // The run's input; positions index into it. Outlives the source.
  const std::vector<ElementId>& items_;
  const int64_t loss_stride_;
  Roster current_;
  std::vector<Roster> groups_;
  Roster tail_;
  // Group-granular emission cursors into groups_ (emission may run ahead
  // of consumption while groups are in flight on a pipelined engine).
  size_t next_emit_ = 0;
  size_t next_consume_ = 0;
  // Logical-round accumulators, reset at each round's first consume.
  Roster round_next_;
  int64_t round_unresolved_ = 0;
  Status round_fault_ = Status::OK();
  // Appendix A, optimization 2, as one flat arena: the row at an element's
  // input position holds the distinct opponents it has lost to, across all
  // rounds, in arrival order; loss_count_ holds the row lengths. Rows of
  // eliminated elements stay (the checkpoint carries them), but never grow.
  std::unique_ptr<ElementId[]> loss_rows_;
  std::vector<int32_t> loss_count_;
  std::vector<int32_t> known_losses_;  // TallyGroup scratch.
  FilterResult result_;
  bool partial_ = false;
  Status fault_status_ = Status::OK();
  bool done_ = false;
};

}  // namespace

Result<FilterEngineRun> RunFilterOnEngine(const std::vector<ElementId>& items,
                                          const FilterOptions& options,
                                          RoundEngine* engine) {
  CROWDMAX_CHECK(engine != nullptr);
  if (Status status = ValidateFilterInput(items, options); !status.ok()) {
    return status;
  }
  // One phase span covers every backend, so serial, parallel and batched
  // runs produce identically-shaped traces.
  TraceSpanScope phase_span("filter", TraceWorkerClass::kNaive);

  FilterRoundSource source(items, options, engine->SupportsPartialEvidence());
  DriveOptions drive_options;
  drive_options.max_comparisons = options.max_comparisons;
  const int64_t paid_before = engine->paid();
  Result<DriveResult> drive = engine->Drive(&source, drive_options);
  if (!drive.ok()) return drive.status();
  return source.Finish(engine->paid() - paid_before);
}

int64_t FilterComparisonUpperBound(int64_t n, int64_t u_n) {
  return 4 * n * u_n;
}

}  // namespace crowdmax
