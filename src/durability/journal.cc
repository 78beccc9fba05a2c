#include "src/durability/journal.h"

#include <string_view>

#include "src/broker/wire.h"
#include "src/os/audit.h"

namespace witdur {

namespace {

const witos::Credentials kJournalCred{};  // the journal daemon runs as root

// Payload integers are LEB128 varints: most of a record's numbers (kinds,
// counts, events, pids, string lengths) are small, and the journal holds
// every evidence record the machines write.
void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// Consumes one varint from the front of `in`; EINVAL when it is truncated
// or overflows 64 bits.
witos::Result<uint64_t> GetVarint(std::string_view* in) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64 && !in->empty(); shift += 7) {
    const auto byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    if (shift == 63 && byte > 1) {
      return witos::Err::kInval;
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
  }
  return witos::Err::kInval;
}

}  // namespace

std::string JournalRecordKindName(JournalRecordKind kind) {
  switch (kind) {
    case JournalRecordKind::kCheckpointHeader:
      return "checkpoint_header";
    case JournalRecordKind::kBindTicket:
      return "bind_ticket";
    case JournalRecordKind::kUnbindTicket:
      return "unbind_ticket";
    case JournalRecordKind::kLogAppend:
      return "log_append";
    case JournalRecordKind::kEpochSeal:
      return "epoch_seal";
    case JournalRecordKind::kCertIssue:
      return "cert_issue";
    case JournalRecordKind::kCertRevoke:
      return "cert_revoke";
    case JournalRecordKind::kRecoveryMark:
      return "recovery_mark";
  }
  return "?";
}

std::string EncodeRecord(const JournalRecord& record) {
  std::string payload;
  payload.reserve(32 + 10 * record.nums.size() + 5 * record.strs.size());
  PutVarint(&payload, static_cast<uint64_t>(record.kind));
  PutVarint(&payload, record.lsn);
  PutVarint(&payload, record.time_ns);
  PutVarint(&payload, record.nums.size());
  for (uint64_t num : record.nums) {
    PutVarint(&payload, num);
  }
  PutVarint(&payload, record.strs.size());
  for (const std::string& str : record.strs) {
    PutVarint(&payload, str.size());
    payload += str;
  }

  witbroker::WireWriter frame;
  frame.PutU32(kJournalMagic);
  frame.PutU64(witos::Fnv1a(payload));
  frame.PutString(payload);  // the u32 length prefix
  return frame.Take();
}

witos::Result<JournalRecord> DecodeRecordPayload(std::string_view payload) {
  JournalRecord record;
  WITOS_ASSIGN_OR_RETURN(uint64_t kind, GetVarint(&payload));
  if (kind < 1 || kind > kMaxJournalRecordKind) {
    return witos::Err::kInval;
  }
  record.kind = static_cast<JournalRecordKind>(kind);
  WITOS_ASSIGN_OR_RETURN(record.lsn, GetVarint(&payload));
  WITOS_ASSIGN_OR_RETURN(record.time_ns, GetVarint(&payload));
  // Bound each count against the bytes actually present before reserving
  // (every number and every string prefix takes at least one byte): a
  // corrupt count must cost at most the frame it lies in, never a
  // multi-GB allocation.
  WITOS_ASSIGN_OR_RETURN(uint64_t num_count, GetVarint(&payload));
  if (num_count > payload.size()) {
    return witos::Err::kInval;
  }
  record.nums.reserve(num_count);
  for (uint64_t i = 0; i < num_count; ++i) {
    WITOS_ASSIGN_OR_RETURN(uint64_t num, GetVarint(&payload));
    record.nums.push_back(num);
  }
  WITOS_ASSIGN_OR_RETURN(uint64_t str_count, GetVarint(&payload));
  if (str_count > payload.size()) {
    return witos::Err::kInval;
  }
  record.strs.reserve(str_count);
  for (uint64_t i = 0; i < str_count; ++i) {
    WITOS_ASSIGN_OR_RETURN(uint64_t size, GetVarint(&payload));
    if (size > payload.size()) {
      return witos::Err::kInval;
    }
    record.strs.emplace_back(payload.substr(0, size));
    payload.remove_prefix(size);
  }
  if (!payload.empty()) {
    return witos::Err::kInval;  // trailing bytes: not a record we wrote
  }
  return record;
}

JournalScan ScanJournal(witos::Filesystem* fs, const std::string& path) {
  JournalScan scan;
  witos::Result<witos::Stat> stat = fs->GetAttr(path, kJournalCred);
  if (!stat.ok()) {
    return scan;  // no journal yet — a fresh volume, not a corruption
  }
  scan.total_bytes = stat->size;
  std::string data;
  witos::Result<size_t> read =
      fs->ReadAt(path, 0, static_cast<size_t>(stat->size), &data, kJournalCred);
  if (!read.ok()) {
    scan.clean = false;
    scan.error = "journal unreadable";
    return scan;
  }

  witbroker::WireReader reader(data);
  auto reject = [&](const std::string& why) {
    scan.clean = false;
    scan.error = why;
  };
  while (reader.Remaining() > 0) {
    uint64_t frame_start = data.size() - reader.Remaining();
    witos::Result<uint32_t> magic = reader.GetU32();
    if (!magic.ok() || *magic != kJournalMagic) {
      reject("bad frame magic at offset " + std::to_string(frame_start));
      break;
    }
    witos::Result<uint64_t> checksum = reader.GetU64();
    if (!checksum.ok()) {
      reject("truncated frame header at offset " + std::to_string(frame_start));
      break;
    }
    // GetString validates the length prefix against Remaining() before
    // allocating — the unbounded-allocation guard for the frame body.
    witos::Result<std::string> payload = reader.GetString();
    if (!payload.ok()) {
      reject("truncated frame body at offset " + std::to_string(frame_start));
      break;
    }
    if (witos::Fnv1a(*payload) != *checksum) {
      reject("checksum mismatch at offset " + std::to_string(frame_start));
      break;
    }
    witos::Result<JournalRecord> record = DecodeRecordPayload(*payload);
    if (!record.ok()) {
      reject("malformed record at offset " + std::to_string(frame_start));
      break;
    }
    scan.records.push_back(std::move(*record));
    scan.valid_bytes = data.size() - reader.Remaining();
  }
  return scan;
}

JournalWriter::JournalWriter(std::shared_ptr<witos::Filesystem> fs, Options options)
    : fs_(std::move(fs)), options_(std::move(options)) {
  uint32_t flags = witos::kOpenRead | witos::kOpenWrite | witos::kOpenCreate;
  if (options_.truncate) {
    flags |= witos::kOpenTrunc;
  }
  witos::Result<witos::Stat> stat = fs_->Open(options_.path, flags, 0600, kJournalCred);
  if (!stat.ok()) {
    sealed_ = true;
    seal_reason_ = stat.error();
    ++errors_;
    return;
  }
  // Everything already on disk at restart survived the crash by definition.
  offset_ = stat->size;
  durable_offset_ = stat->size;
}

witos::Status JournalWriter::Append(JournalRecord record) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (sealed_) {
    return seal_reason_;
  }
  record.lsn = next_lsn_;
  std::string frame = EncodeRecord(record);
  witos::Result<size_t> wrote = fs_->WriteAt(options_.path, offset_, frame, kJournalCred);
  if (!wrote.ok() || *wrote != frame.size()) {
    // Fail-stop: a hole in the record stream is worse than no stream — seal
    // so the caller sees a dead journal, not a silently forked history.
    sealed_ = true;
    seal_reason_ = wrote.ok() ? witos::Err::kIo : wrote.error();
    ++errors_;
    if (metric_errors_ != nullptr) {
      metric_errors_->Increment();
    }
    return seal_reason_;
  }
  ++next_lsn_;
  ++records_;
  ++since_barrier_;
  offset_ += frame.size();
  if (metric_records_ != nullptr) {
    metric_records_->Increment();
  }
  if (options_.barrier_interval != 0 && since_barrier_ >= options_.barrier_interval) {
    return BarrierLocked();
  }
  return witos::Status::Ok();
}

witos::Status JournalWriter::BarrierLocked() {
  if (sealed_) {
    return seal_reason_;
  }
  durable_offset_ = offset_;
  since_barrier_ = 0;
  ++barriers_;
  if (metric_barriers_ != nullptr) {
    metric_barriers_->Increment();
  }
  return witos::Status::Ok();
}

witos::Status JournalWriter::Barrier() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return BarrierLocked();
}

void JournalWriter::Seal() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  sealed_ = true;
  seal_reason_ = witos::Err::kPipe;
}

bool JournalWriter::sealed() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return sealed_;
}

witos::Status JournalWriter::DropUnsyncedTail() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (durable_offset_ == offset_) {
    return witos::Status::Ok();
  }
  WITOS_RETURN_IF_ERROR(fs_->Truncate(options_.path, durable_offset_, kJournalCred));
  offset_ = durable_offset_;
  return witos::Status::Ok();
}

witos::Status JournalWriter::TruncateAll() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (sealed_) {
    return seal_reason_;
  }
  WITOS_RETURN_IF_ERROR(fs_->Truncate(options_.path, 0, kJournalCred));
  offset_ = 0;
  durable_offset_ = 0;
  since_barrier_ = 0;
  return witos::Status::Ok();
}

uint64_t JournalWriter::next_lsn() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return next_lsn_;
}

void JournalWriter::set_next_lsn(uint64_t lsn) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (lsn > next_lsn_) {
    next_lsn_ = lsn;
  }
}

uint64_t JournalWriter::records_appended() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return records_;
}

uint64_t JournalWriter::bytes_appended() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return offset_;
}

uint64_t JournalWriter::durable_bytes() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return durable_offset_;
}

uint64_t JournalWriter::barriers() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return barriers_;
}

uint64_t JournalWriter::errors() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return errors_;
}

void JournalWriter::EnableMetrics(witobs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_records_ = nullptr;
    metric_barriers_ = nullptr;
    metric_errors_ = nullptr;
    return;
  }
  registry->SetHelp("watchit_journal_records_total", "Records appended to the write-ahead journal");
  registry->SetHelp("watchit_journal_barriers_total", "Journal fsync barriers");
  registry->SetHelp("watchit_journal_errors_total",
                    "Journal append failures (each seals the writer)");
  metric_records_ = registry->GetCounter("watchit_journal_records_total");
  metric_barriers_ = registry->GetCounter("watchit_journal_barriers_total");
  metric_errors_ = registry->GetCounter("watchit_journal_errors_total");
  mu_.EnableMetrics(registry);
}

}  // namespace witdur
