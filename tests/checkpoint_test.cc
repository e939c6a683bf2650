// The checkpoint format contract (core/checkpoint.h): typed round trips,
// canonical serialization of unordered containers, the sticky-error
// reader, the magic/version forward-compat gate, the hex transport codec,
// and the CheckpointController snapshot/crash/resume lifecycle. The golden
// suite pins the version-2 byte format itself: a checkpoint captured by an
// older build of this code must keep restoring bit-identically (the file
// tests/golden/checkpoint_v2.hex is regenerated only on deliberate format
// bumps, together with kCheckpointVersion — v2 added the engine's
// speculation counters and the executor's cancelled-comparison tally).

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/pair_table.h"
#include "core/round_engine.h"
#include "datasets/instances.h"

namespace crowdmax {
namespace {

Instance MakeInstance(int64_t n, uint64_t seed) {
  Result<Instance> instance = UniformInstance(n, seed);
  CROWDMAX_CHECK(instance.ok());
  return std::move(instance).value();
}

TEST(CheckpointFormatTest, TypedFieldsRoundTrip) {
  CheckpointWriter writer;
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteU64(0xFFFFFFFFFFFFFFFFull);
  writer.WriteI64(-42);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteDouble(0.1);
  writer.WriteString("hello checkpoint");
  writer.WriteString("");
  writer.WriteStatus(Status::OK());
  writer.WriteStatus(Status::Unavailable("crowd down").WithRetryAfter(7));
  const std::array<uint64_t, 5> rng_state = {1, 2, 3, 4, 0xABCDull};
  writer.WriteRngState(rng_state);
  writer.WriteIdVector(std::vector<int>{3, -1, 7});
  writer.WriteIdVector(std::vector<int64_t>{1LL << 40});

  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(reader.ReadI64(), -42);
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_FALSE(reader.ReadBool());
  EXPECT_EQ(reader.ReadDouble(), 0.1);
  EXPECT_EQ(reader.ReadString(), "hello checkpoint");
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadStatus().ok());
  Status fault = reader.ReadStatus();
  EXPECT_EQ(fault.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault.retry_after_steps(), 7);
  EXPECT_EQ(reader.ReadRngState(), rng_state);
  std::vector<int> ints;
  reader.ReadIdVector(&ints);
  EXPECT_EQ(ints, (std::vector<int>{3, -1, 7}));
  std::vector<int64_t> wide;
  reader.ReadIdVector(&wide);
  EXPECT_EQ(wide, (std::vector<int64_t>{1LL << 40}));
  EXPECT_TRUE(reader.Finish().ok()) << reader.Finish().ToString();
}

TEST(CheckpointFormatTest, UnorderedContainersSerializeCanonically) {
  // Same logical contents inserted in different orders must produce the
  // same bytes — the property golden captures depend on.
  std::unordered_map<uint64_t, int64_t> a, b;
  a[9] = 1;
  a[2] = 5;
  a[7] = -3;
  b[7] = -3;
  b[9] = 1;
  b[2] = 5;
  std::unordered_set<int> sa{4, 1, 8}, sb{8, 4, 1};

  CheckpointWriter wa, wb;
  wa.WriteSortedMap(a);
  wa.WriteSortedSet(sa);
  wb.WriteSortedMap(b);
  wb.WriteSortedSet(sb);
  EXPECT_EQ(wa.bytes(), wb.bytes());

  Result<CheckpointReader> opened = CheckpointReader::Open(wa.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  std::unordered_map<uint64_t, int64_t> map_back;
  reader.ReadSortedMap(&map_back);
  EXPECT_EQ(map_back, a);
  std::unordered_set<int> set_back;
  reader.ReadSortedSet(&set_back);
  EXPECT_EQ(set_back, sa);
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(CheckpointFormatTest, OpenRejectsBadMagic) {
  std::string bytes = CheckpointWriter().bytes();
  bytes[0] = 'X';  // Corrupt the magic.
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos);
}

TEST(CheckpointFormatTest, OpenRejectsNewerVersionTyped) {
  // A version-3 header written by a future build: today's reader must
  // refuse with a typed status, never misparse.
  std::string bytes = CheckpointWriter().bytes();
  bytes[4] = '\x03';  // Version field, little-endian low byte.
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("newer than the supported"),
            std::string::npos);
}

TEST(CheckpointFormatTest, OpenRejectsTruncatedHeader) {
  Result<CheckpointReader> opened = CheckpointReader::Open("CMK");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointFormatTest, TagMismatchLatchesStickyError) {
  CheckpointWriter writer;
  writer.WriteTag(CheckpointTag("AAAA"));
  writer.WriteI64(123);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  reader.ExpectTag(CheckpointTag("BBBB"));
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  // Sticky: later reads return zero values and the error survives Finish.
  EXPECT_EQ(reader.ReadI64(), 0);
  EXPECT_FALSE(reader.Finish().ok());
}

TEST(CheckpointFormatTest, TruncationLatchesStickyError) {
  CheckpointWriter writer;
  writer.WriteU32(1);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadU64(), 0u);  // Only 4 bytes remain.
  EXPECT_FALSE(reader.status().ok());
  EXPECT_FALSE(reader.Finish().ok());
}

// Length prefixes larger than the bytes left — up to the full 64-bit
// range, where an unchecked `pos + n` would wrap — latch the typed
// truncation error and read as empty; nothing is allocated for them.
TEST(CheckpointFormatTest, OversizedLengthsLatchTruncation) {
  for (const uint64_t length :
       {uint64_t{9}, uint64_t{1} << 61, ~uint64_t{0}}) {
    CheckpointWriter writer;
    writer.WriteU64(length);
    writer.WriteI64(7);  // 8 bytes: one id or 8 chars, not `length`.
    Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
    ASSERT_TRUE(opened.ok());
    CheckpointReader strings = *opened;
    EXPECT_EQ(strings.ReadString(), "") << length;
    EXPECT_EQ(strings.status().code(), StatusCode::kFailedPrecondition);
    CheckpointReader ids = *opened;
    std::vector<int32_t> narrow;
    ids.ReadIdVector(&narrow);
    EXPECT_TRUE(narrow.empty()) << length;
    EXPECT_EQ(ids.status().code(), StatusCode::kFailedPrecondition);
    CheckpointReader wide = *opened;
    EXPECT_TRUE(wide.ReadIdVector().empty()) << length;
    EXPECT_NE(wide.status().message().find("truncated"), std::string::npos);
  }
}

TEST(CheckpointFormatTest, FinishFlagsTrailingBytes) {
  CheckpointWriter writer;
  writer.WriteI64(1);
  writer.WriteI64(2);
  Result<CheckpointReader> opened = CheckpointReader::Open(writer.bytes());
  ASSERT_TRUE(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  EXPECT_EQ(reader.ReadI64(), 1);
  Status finish = reader.Finish();
  EXPECT_EQ(finish.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(finish.message().find("trailing bytes"), std::string::npos);
}

TEST(CheckpointHexTest, RoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  Result<std::string> back = CheckpointFromHex(CheckpointToHex(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
}

TEST(CheckpointHexTest, IgnoresWhitespaceAcceptsUppercase) {
  Result<std::string> back = CheckpointFromHex("4D 4b\n0A\tfF");
  ASSERT_TRUE(back.ok());
  std::string expected{'\x4D', '\x4B', '\x0A'};
  expected.push_back(static_cast<char>(0xFF));
  EXPECT_EQ(*back, expected);
}

TEST(CheckpointHexTest, RejectsBadDigitsTyped) {
  Result<std::string> bad = CheckpointFromHex("zz");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointControllerTest, SnapshotsOnCadence) {
  CheckpointController controller;
  controller.set_snapshot_every_rounds(3);
  int64_t serialized = 0;
  auto serialize = [&]() -> Result<std::string> {
    ++serialized;
    return std::string("snap") + std::to_string(serialized);
  };
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
  }
  // Boundaries 3 and 6 snapshot; serialization is lazy otherwise.
  EXPECT_EQ(serialized, 2);
  EXPECT_EQ(controller.snapshots_taken(), 2);
  EXPECT_EQ(controller.boundaries_seen(), 7);
  EXPECT_TRUE(controller.has_checkpoint());
  EXPECT_EQ(controller.checkpoint(), "snap2");
  EXPECT_FALSE(controller.crashed());
}

TEST(CheckpointControllerTest, ArmedCrashSnapshotsThenAborts) {
  CheckpointController controller;
  controller.set_snapshot_every_rounds(100);  // Cadence never fires.
  controller.ArmCrashAtBoundary(2);
  auto serialize = []() -> Result<std::string> { return std::string("s"); };
  EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
  Status crash = controller.OnRoundBoundary(serialize);
  EXPECT_EQ(crash.code(), StatusCode::kAborted);
  EXPECT_NE(crash.message().find("round boundary 2"), std::string::npos);
  // The crash is recoverable by construction: a snapshot was taken first.
  EXPECT_TRUE(controller.crashed());
  EXPECT_TRUE(controller.has_checkpoint());
  // Boundaries after the armed one do not crash again.
  EXPECT_TRUE(controller.OnRoundBoundary(serialize).ok());
}

TEST(CheckpointControllerTest, RestoreLifecycle) {
  CheckpointController controller;
  EXPECT_EQ(controller.PendingRestore(), nullptr);
  controller.ResumeFrom("bytes");
  ASSERT_NE(controller.PendingRestore(), nullptr);
  EXPECT_EQ(*controller.PendingRestore(), "bytes");
  controller.MarkRestored();
  EXPECT_EQ(controller.PendingRestore(), nullptr);
  EXPECT_EQ(controller.restores(), 1);
}

// --- the golden format suite ----------------------------------------------

// A small, fully deterministic run whose first-round-boundary checkpoint is
// the committed golden capture: filter over a fixed uniform instance with
// an oracle comparator and a memoizing serial engine. Nothing here draws
// from RNG streams, so the checkpoint bytes depend only on the format.
struct GoldenRun {
  Instance instance;
  FilterOptions options;
  std::vector<ElementId> items;
};

GoldenRun MakeGoldenRun() {
  GoldenRun run{MakeInstance(24, /*seed=*/7), FilterOptions(), {}};
  run.options.u_n = 2;
  run.options.memoize = true;
  run.options.global_loss_counter = true;
  for (int i = 0; i < run.instance.size(); ++i) run.items.push_back(i);
  return run;
}

std::string CaptureGoldenCheckpoint(const GoldenRun& run) {
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  CheckpointController controller;
  controller.ArmCrashAtBoundary(1);
  engine->set_checkpoint(&controller);
  Result<FilterEngineRun> crashed =
      RunFilterOnEngine(run.items, run.options, engine.get());
  CROWDMAX_CHECK(!crashed.ok() &&
                 crashed.status().code() == StatusCode::kAborted);
  CROWDMAX_CHECK(controller.has_checkpoint());
  return controller.checkpoint();
}

std::string GoldenPath() {
  return std::string(CROWDMAX_GOLDEN_DIR) + "/checkpoint_v2.hex";
}

TEST(CheckpointGoldenTest, CapturedBytesMatchCommittedGolden) {
  const std::string hex = CheckpointToHex(CaptureGoldenCheckpoint(MakeGoldenRun()));
  if (std::getenv("CROWDMAX_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << hex << "\n";
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << GoldenPath()
      << " missing; run with CROWDMAX_WRITE_GOLDEN=1 to regenerate";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  EXPECT_EQ(hex, golden)
      << "checkpoint byte format drifted; if deliberate, bump "
         "kCheckpointVersion and regenerate with CROWDMAX_WRITE_GOLDEN=1";
}

TEST(CheckpointGoldenTest, CommittedGoldenStillRestores) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << GoldenPath()
      << " missing; run with CROWDMAX_WRITE_GOLDEN=1 to regenerate";
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<std::string> bytes = CheckpointFromHex(buffer.str());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  const GoldenRun run = MakeGoldenRun();

  // The uninterrupted baseline.
  OracleComparator baseline_comparator(&run.instance);
  std::unique_ptr<RoundEngine> baseline_engine =
      RoundEngine::CreateSerial(&baseline_comparator, /*memoize=*/true);
  Result<FilterEngineRun> baseline =
      RunFilterOnEngine(run.items, run.options, baseline_engine.get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // A fresh stack resumed from the committed capture must finish the run
  // bit-identically — the forward-compat contract in action.
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  CheckpointController controller;
  controller.ResumeFrom(*bytes);
  engine->set_checkpoint(&controller);
  Result<FilterEngineRun> resumed =
      RunFilterOnEngine(run.items, run.options, engine.get());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(controller.restores(), 1);
  EXPECT_EQ(resumed->filter.candidates, baseline->filter.candidates);
  EXPECT_EQ(resumed->filter.paid_comparisons,
            baseline->filter.paid_comparisons);
  EXPECT_EQ(resumed->filter.issued_comparisons,
            baseline->filter.issued_comparisons);
  EXPECT_EQ(resumed->filter.rounds, baseline->filter.rounds);
  EXPECT_EQ(comparator.num_comparisons(),
            baseline_comparator.num_comparisons());
}

// Byte offsets of fields in a checkpoint of the golden run.
struct GoldenOffsets {
  size_t first_memo_value = 0;   // value of the first CACH entry
  size_t first_loss_key = 0;     // first loss-counter key of the filter
  size_t candidates_length = 0;  // length word of the filter's candidates
};

// Re-encodes `bytes` (a checkpoint of the golden run) field by field up to
// the filter's candidates and records the offsets of the fields the
// corruption tests overwrite: the re-encoding's length at each. The
// re-encoded prefix must equal the original, which pins the walk to the
// real layout.
GoldenOffsets WalkGolden(const GoldenRun& run, const std::string& bytes) {
  Result<CheckpointReader> opened = CheckpointReader::Open(bytes);
  CROWDMAX_CHECK(opened.ok());
  CheckpointReader reader = std::move(opened).value();
  CheckpointWriter writer;
  GoldenOffsets offsets;
  const auto copy_tag = [&] { writer.WriteTag(reader.ReadU32()); };
  const auto copy_i64 = [&](int count) {
    for (int i = 0; i < count; ++i) writer.WriteI64(reader.ReadI64());
  };
  const auto copy_ids = [&] { writer.WriteIdVector(reader.ReadIdVector()); };
  copy_tag();  // DRV
  copy_i64(2);
  copy_tag();  // ENG
  copy_i64(10);
  writer.WriteRngState(reader.ReadRngState());
  copy_tag();  // CACH
  offsets.first_memo_value = writer.bytes().size() + 16;  // count, key
  PairTable memo;
  LoadPairTable(&reader, &memo);
  SavePairTable(&writer, memo);
  CROWDMAX_CHECK(memo.size() > 0);
  OracleComparator comparator(&run.instance);
  CROWDMAX_CHECK(comparator.LoadState(&reader).ok());
  CROWDMAX_CHECK(comparator.SaveState(&writer).ok());
  copy_tag();  // SRC
  copy_tag();  // FLT
  copy_ids();  // survivors
  const uint64_t groups = reader.ReadU64();
  writer.WriteU64(groups);
  for (uint64_t g = 0; g < groups; ++g) copy_ids();
  copy_ids();  // tail
  writer.WriteU64(reader.ReadU64());  // next_emit
  writer.WriteU64(reader.ReadU64());  // next_consume
  copy_ids();  // round_next
  copy_i64(1);
  writer.WriteStatus(reader.ReadStatus());
  const uint64_t losers = reader.ReadU64();
  writer.WriteU64(losers);
  CROWDMAX_CHECK(reader.status().ok() && losers > 0);
  offsets.first_loss_key = writer.bytes().size();
  for (uint64_t l = 0; l < losers; ++l) {
    copy_i64(1);  // key
    const uint64_t count = reader.ReadU64();
    writer.WriteU64(count);
    copy_i64(static_cast<int>(count));
  }
  offsets.candidates_length = writer.bytes().size();
  CROWDMAX_CHECK(reader.status().ok());
  CROWDMAX_CHECK(bytes.compare(0, writer.bytes().size(), writer.bytes()) == 0);
  return offsets;
}

size_t FirstLossKeyOffset(const GoldenRun& run, const std::string& bytes) {
  return WalkGolden(run, bytes).first_loss_key;
}

void OverwriteI64(std::string* bytes, size_t offset, int64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>(static_cast<uint64_t>(value) >> (8 * i));
  }
}

TEST(CheckpointGoldenTest, CorruptLossCounterIdsRefusedTyped) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << GoldenPath() << " missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<std::string> golden = CheckpointFromHex(buffer.str());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const GoldenRun run = MakeGoldenRun();
  const size_t key_at = FirstLossKeyOffset(run, *golden);

  // The loss key itself, then the first opponent of its row (past the
  // row's length word), each set to ids the run's 24 items do not have.
  for (const size_t offset : {key_at, key_at + 16}) {
    for (const int64_t bad_id : {int64_t{24}, int64_t{-1}, int64_t{1} << 40}) {
      std::string bytes = *golden;
      OverwriteI64(&bytes, offset, bad_id);
      OracleComparator comparator(&run.instance);
      std::unique_ptr<RoundEngine> engine =
          RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
      CheckpointController controller;
      controller.ResumeFrom(bytes);
      engine->set_checkpoint(&controller);
      Result<FilterEngineRun> resumed =
          RunFilterOnEngine(run.items, run.options, engine.get());
      ASSERT_FALSE(resumed.ok()) << "offset " << offset << " id " << bad_id;
      EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition)
          << resumed.status().ToString();
      EXPECT_EQ(controller.restores(), 0);
    }
  }
}

std::string ReadGoldenBytes() {
  std::ifstream in(GoldenPath());
  CROWDMAX_CHECK(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<std::string> golden = CheckpointFromHex(buffer.str());
  CROWDMAX_CHECK(golden.ok());
  return *golden;
}

// Resumes the golden run from `bytes` on a fresh stack.
Result<FilterEngineRun> ResumeGoldenRun(const GoldenRun& run,
                                        const std::string& bytes,
                                        CheckpointController* controller) {
  OracleComparator comparator(&run.instance);
  std::unique_ptr<RoundEngine> engine =
      RoundEngine::CreateSerial(&comparator, /*memoize=*/true);
  controller->ResumeFrom(bytes);
  engine->set_checkpoint(controller);
  return RunFilterOnEngine(run.items, run.options, engine.get());
}

// A corrupted length word must not drive an allocation: the reader bounds
// it by the bytes left and latches the typed truncation error, and the
// process lives to report it.
TEST(CheckpointGoldenTest, CorruptCandidatesLengthRefusedTyped) {
  const std::string golden = ReadGoldenBytes();
  const GoldenRun run = MakeGoldenRun();
  std::string bytes = golden;
  OverwriteI64(&bytes, WalkGolden(run, golden).candidates_length,
               int64_t{1} << 61);
  CheckpointController controller;
  Result<FilterEngineRun> resumed = ResumeGoldenRun(run, bytes, &controller);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition)
      << resumed.status().ToString();
  EXPECT_NE(resumed.status().ToString().find("truncated"), std::string::npos)
      << resumed.status().ToString();
  EXPECT_EQ(controller.restores(), 0);
}

// A restored memo value is served as its pair's winner, so anything but
// an endpoint of the pair or the unresolved parking is refused — notably
// values below kUnresolvedWinner, which would read as in-flight
// reservations.
TEST(CheckpointGoldenTest, CorruptMemoValueRefusedTyped) {
  const std::string golden = ReadGoldenBytes();
  const GoldenRun run = MakeGoldenRun();
  const size_t value_at = WalkGolden(run, golden).first_memo_value;
  uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    key |= static_cast<uint64_t>(
               static_cast<unsigned char>(golden[value_at - 8 + i]))
           << (8 * i);
  }
  ElementId outsider = 0;
  while (static_cast<uint64_t>(outsider) == (key & 0xFFFFFFFFu) ||
         static_cast<uint64_t>(outsider) == (key >> 32)) {
    ++outsider;
  }
  for (const int64_t bad : {int64_t{outsider}, int64_t{-1}, int64_t{-3},
                            int64_t{-1000}}) {
    std::string bytes = golden;
    OverwriteI64(&bytes, value_at, bad);
    CheckpointController controller;
    Result<FilterEngineRun> resumed = ResumeGoldenRun(run, bytes, &controller);
    ASSERT_FALSE(resumed.ok()) << "value " << bad;
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition)
        << resumed.status().ToString();
    EXPECT_EQ(controller.restores(), 0);
  }
  // The parking and both endpoints stay accepted.
  for (const int64_t good : {int64_t{kUnresolvedWinner},
                             static_cast<int64_t>(key & 0xFFFFFFFFu),
                             static_cast<int64_t>(key >> 32)}) {
    std::string bytes = golden;
    OverwriteI64(&bytes, value_at, good);
    CheckpointController controller;
    Result<FilterEngineRun> resumed = ResumeGoldenRun(run, bytes, &controller);
    EXPECT_TRUE(resumed.ok()) << "value " << good << ": "
                              << resumed.status().ToString();
  }
}

}  // namespace
}  // namespace crowdmax
