// Bench-side tracing for the end-to-end benchmark.
//
// The benchmark measures crowdmax as a library: it never edits src/. Layer
// times come from decorators that sit on the library's public extension
// points and open a span around every call they forward:
//
//   TracedComparator     Comparator + VoteBatchComparator (vote generation)
//   TracedBatchExecutor  BatchExecutor (executor dispatch, one batch each)
//
// plus a span the benchmark opens around each query call. Spans are kept
// in memory and written out when the run ends (Tracer::WriteJsonLines).
// A span's self time is its duration minus the time its children cover;
// all spans of one query share the query id. The decorators forward every
// answer and every paid-comparison count unchanged, which the benchmark
// proves on each traced run by comparing results with an untraced run.

#ifndef CROWDMAX_PERF_TRACING_H_
#define CROWDMAX_PERF_TRACING_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/batched.h"
#include "core/comparator.h"

namespace crowdmax::perf {

/// One timed call at a layer boundary.
struct Span {
  int64_t parent = -1;  // Index of the enclosing span, -1 for a root.
  int64_t query = -1;   // Query id shared by every span of one query.
  const char* name = "";
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t items = 0;  // Pairs, votes or tasks the call handled.
};

/// In-memory span recorder for one thread. Not thread-safe: the traced
/// workloads drive the library from the calling thread only.
class Tracer {
 public:
  void set_query(int64_t query) { query_ = query; }

  int64_t Begin(const char* name, int64_t items) {
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{open_.empty() ? -1 : open_.back(), query_, name,
                          NowNanos(), 0, items});
    open_.push_back(id);
    return id;
  }

  void End(int64_t id, int64_t items) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNanos();
    span.items = items;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false if the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << ",\"name\":\"" << s.name
          << "\",\"begin_ns\":" << s.begin_ns << ",\"end_ns\":" << s.end_ns
          << ",\"items\":" << s.items << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  int64_t query_ = -1;
};

/// RAII span; `items` may be updated before the scope closes.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t items)
      : tracer_(tracer), id_(tracer->Begin(name, items)), items_(items) {}
  ~SpanScope() { tracer_->End(id_, items_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_items(int64_t items) { items_ = items; }

 private:
  Tracer* tracer_;
  int64_t id_;
  int64_t items_;
};

inline constexpr const char* kQuerySpan = "query";
inline constexpr const char* kVotesSpan = "worker_model.generate_votes";
inline constexpr const char* kCompareSpan = "worker_model.compare";
inline constexpr const char* kBatchSpan = "batched.execute_batch";

/// Times vote generation of a worker model. Answers come from the inner
/// comparator; this object charges the same count to its own counter,
/// which is the one the round engine reads.
class TracedComparator final : public Comparator, public VoteBatchComparator {
 public:
  TracedComparator(Comparator* inner, Tracer* tracer)
      : inner_(inner), inner_batch_(inner->AsVoteBatch()), tracer_(tracer) {}

  VoteBatchComparator* AsVoteBatch() override {
    return inner_batch_ != nullptr ? this : nullptr;
  }

  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override {
    SpanScope span(tracer_, kVotesSpan, static_cast<int64_t>(pairs.size()));
    const int64_t answered = inner_batch_->GenerateVotes(pairs, out);
    AddComparisons(answered);
    span.set_items(answered);
    return answered;
  }

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    SpanScope span(tracer_, kCompareSpan, 1);
    return inner_->Compare(a, b);
  }

  Comparator* inner_;
  VoteBatchComparator* inner_batch_;
  Tracer* tracer_;
};

/// Times executor dispatch: one span per batch submitted to the inner
/// executor. The inner executor records the trace cells and carries the
/// fault and latency state; this decorator only forwards.
class TracedBatchExecutor final : public BatchExecutor {
 public:
  TracedBatchExecutor(BatchExecutor* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const FaultReport* fault_report() const override {
    return inner_->fault_report();
  }
  int64_t TakeSimulatedLatencyMicros() override {
    return inner_->TakeSimulatedLatencyMicros();
  }

 private:
  std::vector<ElementId> DoExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    SpanScope span(tracer_, kBatchSpan, static_cast<int64_t>(tasks.size()));
    return inner_->ExecuteBatch(tasks);
  }
  Result<std::vector<BatchTaskResult>> DoTryExecuteBatch(
      const std::vector<ComparisonPair>& tasks) override {
    SpanScope span(tracer_, kBatchSpan, static_cast<int64_t>(tasks.size()));
    return inner_->TryExecuteBatch(tasks);
  }
  bool RecordsTraceCells() const override { return false; }

  BatchExecutor* inner_;
  Tracer* tracer_;
};

}  // namespace crowdmax::perf

#endif  // CROWDMAX_PERF_TRACING_H_
