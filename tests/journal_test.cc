// witjournal tests: record framing, the fail-closed journal scan, the
// fsync-barrier durability model, and the corruption fuzz sweep (truncated,
// bit-flipped and garbage tails must never replay past the valid prefix —
// and a corrupt length prefix must never trigger an unbounded allocation).

#include "src/durability/journal.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/os/fault.h"
#include "src/os/memfs.h"

namespace witdur {
namespace {

const witos::Credentials kRoot{};
constexpr const char* kPath = "/journal.wal";

// Cycles over the live kinds 1..kMaxJournalRecordKind.
JournalRecord SampleRecord(uint64_t i) {
  JournalRecord record;
  record.kind = static_cast<JournalRecordKind>(1 + (i % kMaxJournalRecordKind));
  record.time_ns = 1000 + i;
  record.nums = {i, i * 31, i * 1009};
  record.strs = {"host" + std::to_string(i % 3), "TKT-" + std::to_string(i)};
  return record;
}

std::string Slurp(witos::MemFs* fs, const std::string& path) {
  auto content = fs->SlurpForTest(path);
  return content.ok() ? *content : std::string();
}

// --- framing -----------------------------------------------------------------

TEST(JournalRecordTest, EncodeDecodeRoundTrip) {
  JournalRecord record;
  record.kind = JournalRecordKind::kCertIssue;
  record.lsn = 42;
  record.time_ns = 123456789;
  record.nums = {7, 0, ~0ull};
  record.strs = {"alice", "host0", "TKT-1", "T-1"};

  const std::string frame = EncodeRecord(record);
  // Frame = magic(4) + checksum(8) + len(4) + payload.
  ASSERT_GT(frame.size(), 16u);
  auto decoded = DecodeRecordPayload(std::string_view(frame).substr(16));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->lsn, record.lsn);
  EXPECT_EQ(decoded->time_ns, record.time_ns);
  EXPECT_EQ(decoded->nums, record.nums);
  EXPECT_EQ(decoded->strs, record.strs);
}

TEST(JournalRecordTest, DecodeRejectsUnknownKindAndTrailingGarbage) {
  JournalRecord record = SampleRecord(1);
  std::string payload = EncodeRecord(record).substr(16);

  // Unknown kind (the leading varint).
  std::string bad_kind = payload;
  bad_kind[0] = '\xff';
  bad_kind[1] = '\xff';
  EXPECT_FALSE(DecodeRecordPayload(bad_kind).ok());
  // The first kind WJL4 retired (9, a WJL3 deploy_stage record).
  ASSERT_EQ(static_cast<uint8_t>(payload[0]), 2u);
  std::string retired = payload;
  retired[0] = static_cast<char>(kMaxJournalRecordKind + 1);
  ASSERT_EQ(retired[0], 9);
  EXPECT_FALSE(DecodeRecordPayload(retired).ok());

  // Trailing garbage after a well-formed record.
  EXPECT_FALSE(DecodeRecordPayload(payload + "x").ok());

  // Truncation anywhere inside the payload.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeRecordPayload(std::string_view(payload).substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

// Payload integers are varints: one that runs past 64 bits, a count larger
// than the bytes left, or a string length past the end rejects the payload
// before anything is allocated for it.
TEST(JournalRecordTest, DecodeRejectsOverlongVarintsAndCounts) {
  auto bytes = [](std::initializer_list<int> values) {
    std::string out;
    for (int v : values) {
      out += static_cast<char>(v);
    }
    return out;
  };
  // kind 4, lsn 1, time 0, no numbers, no strings: the minimal good record.
  ASSERT_TRUE(DecodeRecordPayload(bytes({4, 1, 0, 0, 0})).ok());
  // An lsn whose tenth byte carries more than bit 63.
  EXPECT_FALSE(
      DecodeRecordPayload(bytes({4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2,
                                 0, 0, 0}))
          .ok());
  // An eleven-byte varint.
  EXPECT_FALSE(DecodeRecordPayload(bytes({4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                          0x80, 0x80, 0, 0, 0, 0}))
                   .ok());
  // 200 numbers claimed, two bytes left.
  EXPECT_FALSE(DecodeRecordPayload(bytes({4, 1, 0, 0xc8, 0x01, 0, 0})).ok());
  // A 127-byte string claimed, three bytes present.
  EXPECT_FALSE(DecodeRecordPayload(bytes({4, 1, 0, 0, 1, 0x7f, 'a', 'b', 'c'})).ok());
}

// --- writer + scan -----------------------------------------------------------

TEST(JournalWriterTest, AppendScanRoundTrip) {
  auto fs = std::make_shared<witos::MemFs>();
  JournalWriter writer(fs, {});
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(i)).ok());
  }
  EXPECT_EQ(writer.records_appended(), 10u);

  JournalScan scan = ScanJournal(fs.get(), kPath);
  EXPECT_TRUE(scan.clean) << scan.error;
  ASSERT_EQ(scan.records.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(scan.records[i].lsn, i + 1);  // lsn stamped by the writer
    EXPECT_EQ(scan.records[i].strs, SampleRecord(i).strs);
  }
  EXPECT_EQ(scan.valid_bytes, scan.total_bytes);
}

TEST(JournalWriterTest, MissingFileScansCleanAndEmpty) {
  auto fs = std::make_shared<witos::MemFs>();
  JournalScan scan = ScanJournal(fs.get(), "/nonexistent.wal");
  EXPECT_TRUE(scan.clean);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.total_bytes, 0u);
}

TEST(JournalWriterTest, ReopenContinuesWhereTheFileEnds) {
  auto fs = std::make_shared<witos::MemFs>();
  {
    JournalWriter writer(fs, {});
    ASSERT_TRUE(writer.Append(SampleRecord(0)).ok());
    ASSERT_TRUE(writer.Append(SampleRecord(1)).ok());
  }
  JournalWriter reopened(fs, {});
  reopened.set_next_lsn(3);
  ASSERT_TRUE(reopened.Append(SampleRecord(2)).ok());
  JournalScan scan = ScanJournal(fs.get(), kPath);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].lsn, 3u);
}

TEST(JournalWriterTest, CrashDropsEverythingPastTheLastBarrier) {
  auto fs = std::make_shared<witos::MemFs>();
  JournalWriter::Options options;
  options.barrier_interval = 0;  // explicit barriers only
  JournalWriter writer(fs, options);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(i)).ok());
  }
  ASSERT_TRUE(writer.Barrier().ok());
  for (uint64_t i = 3; i < 5; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(i)).ok());
  }

  // Crash: seal, then discard the unsynced tail.
  writer.Seal();
  EXPECT_TRUE(writer.sealed());
  EXPECT_EQ(writer.Append(SampleRecord(9)).error(), witos::Err::kPipe);
  ASSERT_TRUE(writer.DropUnsyncedTail().ok());

  JournalScan scan = ScanJournal(fs.get(), kPath);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.records.size(), 3u);  // the two unsynced records are gone
}

TEST(JournalWriterTest, PerRecordBarrierIntervalMakesEveryAppendDurable) {
  auto fs = std::make_shared<witos::MemFs>();
  JournalWriter writer(fs, {});  // barrier_interval = 1
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(writer.Append(SampleRecord(i)).ok());
  }
  EXPECT_EQ(writer.durable_bytes(), writer.bytes_appended());
  writer.Seal();
  ASSERT_TRUE(writer.DropUnsyncedTail().ok());
  EXPECT_EQ(ScanJournal(fs.get(), kPath).records.size(), 4u);
}

TEST(JournalWriterTest, FilesystemErrorFailStopsTheWriter) {
  auto lower = std::make_shared<witos::MemFs>();
  auto plan = std::make_shared<witos::FaultPlan>();
  plan->FailNthOp(witos::FaultOpKind::kWrite, 2, witos::Err::kIo);
  auto faulty = std::make_shared<witos::ErrorInjectingVfs>(lower, plan);

  JournalWriter writer(faulty, {});
  ASSERT_TRUE(writer.Append(SampleRecord(0)).ok());
  EXPECT_EQ(writer.Append(SampleRecord(1)).error(), witos::Err::kIo);
  EXPECT_TRUE(writer.sealed());
  EXPECT_EQ(writer.errors(), 1u);
  // Fail-stop: everything after the hole is refused, not silently skipped.
  EXPECT_EQ(writer.Append(SampleRecord(2)).error(), witos::Err::kIo);
}

TEST(JournalWriterTest, TruncateAllKeepsTheLsnSequence) {
  auto fs = std::make_shared<witos::MemFs>();
  JournalWriter writer(fs, {});
  ASSERT_TRUE(writer.Append(SampleRecord(0)).ok());
  ASSERT_TRUE(writer.Append(SampleRecord(1)).ok());
  ASSERT_TRUE(writer.TruncateAll().ok());
  ASSERT_TRUE(writer.Append(SampleRecord(2)).ok());
  JournalScan scan = ScanJournal(fs.get(), kPath);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].lsn, 3u);  // lsn 3: the sequence survived the truncate
}

// --- corruption fuzzing ------------------------------------------------------

class JournalFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_shared<witos::MemFs>();
    JournalWriter writer(fs_, {});
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer.Append(SampleRecord(i)).ok());
      frame_end_.push_back(writer.bytes_appended());
    }
    bytes_ = Slurp(fs_.get(), kPath);
    ASSERT_EQ(bytes_.size(), frame_end_.back());
  }

  // Replaces the journal with `content` and scans it.
  JournalScan ScanBytes(const std::string& content) {
    auto fresh = std::make_shared<witos::MemFs>();
    fresh->ProvisionFile(kPath, content);
    return ScanJournal(fresh.get(), kPath);
  }

  size_t WholeFramesBefore(size_t cut) const {
    size_t count = 0;
    while (count < frame_end_.size() && frame_end_[count] <= cut) {
      ++count;
    }
    return count;
  }

  std::shared_ptr<witos::MemFs> fs_;
  std::vector<uint64_t> frame_end_;  // cumulative end offset of each frame
  std::string bytes_;
};

// Truncate at every byte boundary: the scan must return exactly the whole
// frames before the cut, flag the torn tail, and never read past it.
TEST_F(JournalFuzzTest, TruncationAtEveryByteFailsClosed) {
  for (size_t cut = 0; cut <= bytes_.size(); ++cut) {
    JournalScan scan = ScanBytes(bytes_.substr(0, cut));
    const size_t whole = WholeFramesBefore(cut);
    EXPECT_EQ(scan.records.size(), whole) << "cut at " << cut;
    const bool at_boundary = cut == 0 || frame_end_[whole > 0 ? whole - 1 : 0] == cut;
    EXPECT_EQ(scan.clean, at_boundary) << "cut at " << cut;
    EXPECT_LE(scan.valid_bytes, cut);
    for (size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].lsn, i + 1);
    }
  }
}

// Flip one bit in every byte: replay stops at (or before) the corrupted
// frame — whatever survives is a valid prefix with intact checksums.
TEST_F(JournalFuzzTest, BitFlipAnywhereNeverReplaysCorruptRecords) {
  for (size_t pos = 0; pos < bytes_.size(); ++pos) {
    std::string mutated = bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    JournalScan scan = ScanBytes(mutated);
    EXPECT_FALSE(scan.clean) << "flip at " << pos;
    // The flipped byte lives in frame k; every record up to k-1 must still
    // decode identically, and nothing at or past k may appear.
    const size_t frame = WholeFramesBefore(pos);  // frames fully before pos
    EXPECT_LE(scan.records.size(), frame) << "flip at " << pos;
    for (size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].strs, SampleRecord(i).strs);
    }
  }
}

// A garbage tail after valid frames: the prefix replays, the tail is
// rejected with a reason.
TEST_F(JournalFuzzTest, GarbageTailIsRejected) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  std::string garbage;
  for (int i = 0; i < 256; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    garbage.push_back(static_cast<char>(state >> 56));
  }
  JournalScan scan = ScanBytes(bytes_ + garbage);
  EXPECT_FALSE(scan.clean);
  EXPECT_FALSE(scan.error.empty());
  EXPECT_EQ(scan.records.size(), frame_end_.size());
  EXPECT_EQ(scan.valid_bytes, bytes_.size());
}

// A corrupt length prefix claiming a huge payload must be bounds-checked
// against the bytes actually present — never allocated.
TEST_F(JournalFuzzTest, OversizedLengthPrefixDoesNotAllocate) {
  std::string frame;
  for (int shift = 0; shift < 32; shift += 8) {  // magic, little-endian
    frame.push_back(static_cast<char>((kJournalMagic >> shift) & 0xff));
  }
  frame.append(8, '\0');                    // checksum (wrong, but len is checked first)
  frame.append("\xff\xff\xff\xff", 4);      // len = 4 GiB
  frame.append("short", 5);
  JournalScan scan = ScanBytes(bytes_ + frame);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.records.size(), frame_end_.size());
  // The frame passed the magic check and stopped at the length bound.
  EXPECT_EQ(scan.error.rfind("truncated frame body", 0), 0u) << scan.error;

  // Same claim as the very first frame of an otherwise-empty journal.
  JournalScan empty_scan = ScanBytes(frame);
  EXPECT_FALSE(empty_scan.clean);
  EXPECT_TRUE(empty_scan.records.empty());
  EXPECT_EQ(empty_scan.error.rfind("truncated frame body", 0), 0u) << empty_scan.error;
}

// Inner-frame corruption (not a torn tail): everything after the bad frame
// is rejected even if it is intact — replaying around a hole would reorder
// history.
TEST_F(JournalFuzzTest, InteriorCorruptionEndsTheValidPrefix) {
  std::string mutated = bytes_;
  const size_t inside_frame2 = static_cast<size_t>(frame_end_[1]) + 20;
  ASSERT_LT(inside_frame2, static_cast<size_t>(frame_end_[2]));
  mutated[inside_frame2] = static_cast<char>(mutated[inside_frame2] ^ 0x40);
  JournalScan scan = ScanBytes(mutated);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.records.size(), 2u);  // frames 0 and 1 only
}

}  // namespace
}  // namespace witdur
