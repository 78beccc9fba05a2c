// Adversarial-input tests for the broker wire format (paper §5.4): the
// broker parses frames sent by a *hostile superuser* inside the perforated
// container, so the decoder must survive arbitrary bytes. A deterministic
// byte-mutation fuzz loop (fixed seeds, syzkaller-style mutations: bit
// flips, truncation, splicing, length-prefix stomps) runs over every RPC
// message type; decoding must never crash, never allocate based on an
// unvalidated length prefix, and anything it accepts must round-trip
// losslessly. The same holds for the broker record codec, which writes the
// frame's attacker-chosen fields into the machine's evidence chain.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/broker/rpc.h"
#include "src/broker/wire.h"

namespace witbroker {
namespace {

constexpr int kMutationsPerType = 12000;

std::string PackU32(uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

// --- Hostile length-prefix regressions --------------------------------------

TEST(WireHardeningTest, HugeStringLengthPrefixIsRejectedWithoutAllocating) {
  // A 4-byte header claiming a ~4 GB string backed by 3 bytes of payload.
  std::string buf = PackU32(0xffffffffu) + "abc";
  WireReader reader(buf);
  auto s = reader.GetString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), witos::Err::kInval);
}

TEST(WireHardeningTest, HugeListCountIsRejectedWithoutAllocating) {
  // Pre-fix, GetStringList reserved `count` strings before reading a single
  // element: 0xffffffff * sizeof(std::string) ≈ 137 GB, an instant
  // allocation-size abort under ASan. The count must be capped against the
  // bytes remaining (each element costs at least a 4-byte prefix).
  std::string buf = PackU32(0xffffffffu) + PackU32(0) + PackU32(0);
  WireReader reader(buf);
  auto list = reader.GetStringList();
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.error(), witos::Err::kInval);
}

TEST(WireHardeningTest, ListCountJustAboveRemainingIsRejected) {
  // 3 claimed elements but only enough bytes for 2 empty ones.
  std::string buf = PackU32(3) + PackU32(0) + PackU32(0);
  WireReader reader(buf);
  EXPECT_FALSE(reader.GetStringList().ok());
}

TEST(WireHardeningTest, ExactFitListStillDecodes) {
  WireWriter writer;
  writer.PutStringList({"a", "", "bc"});
  WireReader reader(writer.data());
  auto list = reader.GetStringList();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, (std::vector<std::string>{"a", "", "bc"}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireHardeningTest, TruncatedInnerStringIsRejected) {
  // Valid count, but the second element's body is cut short.
  std::string buf = PackU32(2) + PackU32(1) + "x" + PackU32(5) + "ab";
  WireReader reader(buf);
  EXPECT_FALSE(reader.GetStringList().ok());
}

// --- Deterministic mutation fuzz over every RPC message type ----------------

// Applies one random mutation to `data` (which may change its length).
std::string Mutate(std::string data, std::mt19937& rng) {
  std::uniform_int_distribution<int> kind_dist(0, 5);
  auto pos_in = [&rng](size_t size) {
    return std::uniform_int_distribution<size_t>(0, size - 1)(rng);
  };
  std::uniform_int_distribution<int> byte_dist(0, 255);
  switch (kind_dist(rng)) {
    case 0:  // flip one bit
      if (!data.empty()) {
        size_t i = pos_in(data.size());
        data[i] = static_cast<char>(data[i] ^ (1 << (byte_dist(rng) % 8)));
      }
      break;
    case 1:  // overwrite one byte
      if (!data.empty()) {
        data[pos_in(data.size())] = static_cast<char>(byte_dist(rng));
      }
      break;
    case 2:  // truncate
      if (!data.empty()) {
        data.resize(pos_in(data.size()));
      }
      break;
    case 3: {  // insert a few random bytes
      size_t at = data.empty() ? 0 : pos_in(data.size());
      std::string junk;
      for (int i = 0; i < 1 + byte_dist(rng) % 7; ++i) {
        junk += static_cast<char>(byte_dist(rng));
      }
      data.insert(at, junk);
      break;
    }
    case 4:  // duplicate a slice (splice)
      if (data.size() >= 2) {
        size_t a = pos_in(data.size());
        size_t b = pos_in(data.size());
        if (a > b) {
          std::swap(a, b);
        }
        data.insert(pos_in(data.size()), data.substr(a, b - a));
      }
      break;
    case 5:  // stomp a 4-byte window with an extreme length prefix
      if (data.size() >= 4) {
        size_t at = pos_in(data.size() - 3);
        uint32_t v = (byte_dist(rng) % 2 == 0) ? 0xffffffffu : 0x7fffffffu;
        for (int i = 0; i < 4; ++i) {
          data[at + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
        }
      }
      break;
  }
  return data;
}

std::vector<std::string> BatchRequestCorpus() {
  std::vector<std::string> corpus;
  RpcBatchRequest minimal;
  corpus.push_back(minimal.Serialize());
  RpcBatchRequest typical;
  typical.ops = {{"ps", {}},
                 {"read_file", {"/var/log/syslog"}},
                 {"net_allow", {"10.1.2.3", "443"}}};
  corpus.push_back(typical.Serialize());
  RpcBatchRequest wide;
  wide.ops.assign(32, {std::string(60, 'm'), {std::string(17, 'a'), "x"}});
  corpus.push_back(wide.Serialize());
  return corpus;
}

std::vector<std::string> BatchResponseCorpus() {
  std::vector<std::string> corpus;
  RpcBatchResponse empty;
  corpus.push_back(empty.Serialize());
  RpcBatchResponse mixed;
  RpcResponse granted;
  granted.ok = true;
  granted.payload = "mounted:/var/log";
  RpcResponse denied;
  denied.err = witos::Err::kPerm;
  mixed.responses = {granted, denied, granted};
  corpus.push_back(mixed.Serialize());
  return corpus;
}

bool ResponsesEqual(const RpcResponse& a, const RpcResponse& b) {
  return a.ok == b.ok && a.err == b.err && a.payload == b.payload;
}

bool BatchRequestsEqual(const RpcBatchRequest& a, const RpcBatchRequest& b) {
  if (a.ops.size() != b.ops.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].method != b.ops[i].method || a.ops[i].args != b.ops[i].args) {
      return false;
    }
  }
  return true;
}

bool BatchResponsesEqual(const RpcBatchResponse& a, const RpcBatchResponse& b) {
  if (a.responses.size() != b.responses.size()) {
    return false;
  }
  for (size_t i = 0; i < a.responses.size(); ++i) {
    if (!ResponsesEqual(a.responses[i], b.responses[i])) {
      return false;
    }
  }
  return true;
}

TEST(WireFuzzTest, RpcBatchRequestSurvivesSeededMutationStorm) {
  auto corpus = BatchRequestCorpus();
  std::mt19937 rng(0x5EED0005);
  std::uniform_int_distribution<size_t> pick(0, corpus.size() - 1);
  std::uniform_int_distribution<int> depth_dist(1, 4);
  size_t accepted = 0;
  for (int i = 0; i < kMutationsPerType; ++i) {
    std::string mutated = corpus[pick(rng)];
    int depth = depth_dist(rng);
    for (int d = 0; d < depth; ++d) {
      mutated = Mutate(std::move(mutated), rng);
    }
    auto decoded = RpcBatchRequest::Deserialize(mutated);
    if (!decoded.ok()) {
      continue;
    }
    ++accepted;
    auto redecoded = RpcBatchRequest::Deserialize(decoded->Serialize());
    ASSERT_TRUE(redecoded.ok()) << "iteration " << i;
    EXPECT_TRUE(BatchRequestsEqual(*decoded, *redecoded)) << "iteration " << i;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WireFuzzTest, RpcBatchResponseSurvivesSeededMutationStorm) {
  auto corpus = BatchResponseCorpus();
  std::mt19937 rng(0x5EED0006);
  std::uniform_int_distribution<size_t> pick(0, corpus.size() - 1);
  std::uniform_int_distribution<int> depth_dist(1, 4);
  size_t accepted = 0;
  for (int i = 0; i < kMutationsPerType; ++i) {
    std::string mutated = corpus[pick(rng)];
    int depth = depth_dist(rng);
    for (int d = 0; d < depth; ++d) {
      mutated = Mutate(std::move(mutated), rng);
    }
    auto decoded = RpcBatchResponse::Deserialize(mutated);
    if (!decoded.ok()) {
      continue;
    }
    ++accepted;
    auto redecoded = RpcBatchResponse::Deserialize(decoded->Serialize());
    ASSERT_TRUE(redecoded.ok()) << "iteration " << i;
    EXPECT_TRUE(BatchResponsesEqual(*decoded, *redecoded)) << "iteration " << i;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WireFuzzTest, PureGarbageBuffersNeverCrashAnyDecoder) {
  std::mt19937 rng(0x5EED0003);
  std::uniform_int_distribution<size_t> len_dist(0, 96);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < kMutationsPerType; ++i) {
    std::string garbage;
    size_t len = len_dist(rng);
    garbage.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      garbage += static_cast<char>(byte_dist(rng));
    }
    (void)RpcBatchRequest::Deserialize(garbage);
    (void)RpcBatchResponse::Deserialize(garbage);
  }
}

// --- Frame-header hostility -------------------------------------------------

// A headerless v1 request frame: the body alone, method first.
std::string HeaderlessRequestFrame() {
  WireWriter v1;
  v1.PutString("ps");
  v1.PutStringList({"-a"});
  v1.PutU32(0);
  v1.PutU32(42);
  v1.PutString("TKT-1");
  v1.PutString("alice");
  return v1.Take();
}

// A headerless v1 response frame: ok flag, errno-name string, payload.
std::string HeaderlessResponseFrame() {
  WireWriter v1;
  v1.PutBool(false);
  v1.PutString("EACCES");
  v1.PutString("");
  return v1.Take();
}

// A version 2 batch-request frame: the identity header (uid, caller pid,
// ticket, admin) the sender used to choose, then one op.
std::string V2RequestFrame() {
  WireWriter v2;
  v2.PutU32(kRpcMagic);
  v2.PutU32(2);
  v2.PutU32(static_cast<uint32_t>(RpcFrameKind::kBatchRequest));
  v2.PutU32(0);
  v2.PutU32(42);
  v2.PutString("TKT-BROAD");
  v2.PutString("alice");
  v2.PutU32(1);
  v2.PutString("install");
  v2.PutStringList({"netcat"});
  return v2.Take();
}

// A well-headed frame of the retired single-op kind `kind` (1 = request,
// 2 = response) with a plausible body behind it.
std::string RetiredKindFrame(uint32_t kind) {
  WireWriter frame;
  frame.PutU32(kRpcMagic);
  frame.PutU32(kRpcVersion);
  frame.PutU32(kind);
  if (kind == 1) {
    frame.PutString("ps");
    frame.PutStringList({});
    frame.PutU32(0);
    frame.PutU32(42);
    frame.PutString("TKT-1");
    frame.PutString("alice");
  } else {
    frame.PutBool(true);
    frame.PutU32(0);
    frame.PutString("PID...");
  }
  return frame.Take();
}

void ExpectBothDecodersReject(const std::string& frame) {
  auto request = RpcBatchRequest::Deserialize(frame);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.error(), witos::Err::kInval);
  auto response = RpcBatchResponse::Deserialize(frame);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kInval);
}

TEST(WireHardeningTest, TruncatedBatchOpCountIsRejected) {
  // A batch claiming 1000 sub-requests backed by zero body bytes: the count
  // must be capped against Remaining() before any reserve.
  RpcBatchRequest batch;
  std::string frame = batch.Serialize();
  // Stomp the trailing count field (last 4 bytes of an empty-ops frame).
  std::string stomped = frame.substr(0, frame.size() - 4) + PackU32(1000);
  EXPECT_FALSE(RpcBatchRequest::Deserialize(stomped).ok());

  RpcBatchResponse responses;
  std::string resp_frame = responses.Serialize();
  std::string resp_stomped = resp_frame.substr(0, resp_frame.size() - 4) + PackU32(0xffffffu);
  EXPECT_FALSE(RpcBatchResponse::Deserialize(resp_stomped).ok());
}

TEST(WireHardeningTest, VersionSkewIsRejectedNotMisparsed) {
  // Magic says "this is a WIT2 frame", version says 4: the parser must not
  // touch it.
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}};
  std::string frame = batch.Serialize();
  std::string skewed = frame;
  skewed[4] = 4;  // version field little-endian low byte
  auto decoded = RpcBatchRequest::Deserialize(skewed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error(), witos::Err::kInval);

  // A version 2 frame, which carried the sender's claimed identity, is
  // refused at the header, and so is a version 3 body relabelled 2.
  ExpectBothDecodersReject(V2RequestFrame());
  std::string relabelled = frame;
  relabelled[4] = 2;
  ExpectBothDecodersReject(relabelled);

  RpcBatchResponse responses;
  responses.responses.push_back({});
  std::string resp_skewed = responses.Serialize();
  resp_skewed[4] = 9;
  ExpectBothDecodersReject(resp_skewed);

  // Headerless v1 frames are no version at all: there is no fallback.
  ExpectBothDecodersReject(HeaderlessRequestFrame());
  ExpectBothDecodersReject(HeaderlessResponseFrame());
}

TEST(WireHardeningTest, FrameKindConfusionIsRejected) {
  // A well-formed batch-request frame handed to the batch-response decoder
  // (and vice versa) must be rejected at the header, not misparsed.
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}};
  auto as_response = RpcBatchResponse::Deserialize(batch.Serialize());
  ASSERT_FALSE(as_response.ok());
  EXPECT_EQ(as_response.error(), witos::Err::kInval);
  RpcBatchResponse responses;
  responses.responses.push_back({});
  auto as_request = RpcBatchRequest::Deserialize(responses.Serialize());
  ASSERT_FALSE(as_request.ok());
  EXPECT_EQ(as_request.error(), witos::Err::kInval);

  // The retired single-op kinds, well-headed or not, decode nowhere.
  ExpectBothDecodersReject(RetiredKindFrame(1));
  ExpectBothDecodersReject(RetiredKindFrame(2));
}

TEST(WireFuzzTest, ValidMessagesAlwaysRoundTrip) {
  // Structured generator: random but well-formed messages must decode to
  // exactly themselves (the fuzz loops above check the converse direction).
  std::mt19937 rng(0x5EED0004);
  std::uniform_int_distribution<int> byte_dist(32, 126);
  std::uniform_int_distribution<size_t> len_dist(0, 40);
  std::uniform_int_distribution<size_t> list_dist(0, 8);
  auto rand_string = [&]() {
    std::string s;
    size_t len = len_dist(rng);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>(byte_dist(rng));
    }
    return s;
  };
  for (int i = 0; i < 2000; ++i) {
    RpcBatchResponse responses;
    size_t nresponses = list_dist(rng);
    for (size_t r = 0; r < nresponses; ++r) {
      RpcResponse resp;
      resp.ok = rng() % 2 == 0;
      resp.err = static_cast<witos::Err>(rng() % static_cast<uint32_t>(witos::kErrCodeCount));
      resp.payload = rand_string();
      responses.responses.push_back(std::move(resp));
    }
    auto decoded_resp = RpcBatchResponse::Deserialize(responses.Serialize());
    ASSERT_TRUE(decoded_resp.ok()) << "iteration " << i;
    EXPECT_TRUE(BatchResponsesEqual(responses, *decoded_resp)) << "iteration " << i;

    RpcBatchRequest batch;
    size_t nops = list_dist(rng);
    for (size_t o = 0; o < nops; ++o) {
      RpcOp op;
      op.method = rand_string();
      size_t nop_args = list_dist(rng);
      for (size_t a = 0; a < nop_args; ++a) {
        op.args.push_back(rand_string());
      }
      batch.ops.push_back(std::move(op));
    }
    auto decoded_batch = RpcBatchRequest::Deserialize(batch.Serialize());
    ASSERT_TRUE(decoded_batch.ok()) << "iteration " << i;
    EXPECT_TRUE(BatchRequestsEqual(batch, *decoded_batch)) << "iteration " << i;
  }
}

// --- The broker record codec -------------------------------------------------

// The evidence record the broker writes for `request`.
witos::AuditRecord BrokerRecord(const RpcRequest& request, const std::string& ticket_class,
                                bool granted) {
  witos::AuditRecord record;
  record.time_ns = 777;
  record.event = granted ? witos::AuditEvent::kBrokerRequest : witos::AuditEvent::kBrokerDenied;
  record.detail = EncodeBrokerDetail(request, ticket_class, granted);
  return record;
}

void ExpectRoundTrip(const RpcRequest& request, const std::string& ticket_class, bool granted) {
  const witos::AuditRecord record = BrokerRecord(request, ticket_class, granted);
  std::optional<BrokerEvent> event = DecodeBrokerRecord(record);
  ASSERT_TRUE(event.has_value()) << record.detail;
  EXPECT_EQ(event->admin, request.admin);
  EXPECT_EQ(event->ticket_id, request.ticket_id);
  EXPECT_EQ(event->ticket_class, ticket_class);
  EXPECT_EQ(event->verb, request.method);
  EXPECT_EQ(event->args, request.args);
  EXPECT_EQ(event->granted, granted);
  EXPECT_EQ(event->time_ns, record.time_ns);
  // The detail stays one line of five or more space-separated tokens.
  EXPECT_EQ(record.detail.find('\n'), std::string::npos);
}

RpcRequest Ordinary() {
  RpcRequest request;
  request.admin = "alice";
  request.ticket_id = "TKT";
  request.method = "install";
  request.args = {"netcat"};
  return request;
}

TEST(BrokerRecordCodecTest, OrdinaryNamesPrintAsTheyAre) {
  EXPECT_EQ(EncodeBrokerDetail(Ordinary(), "T-6", true), "GRANT alice TKT [T-6] install netcat");
  RpcRequest ps = Ordinary();
  ps.method = "ps";
  ps.args.clear();
  EXPECT_EQ(EncodeBrokerDetail(ps, "", false), "DENY alice TKT [] ps");
  ExpectRoundTrip(ps, "", false);
}

TEST(BrokerRecordCodecTest, HostileFieldsRoundTrip) {
  const std::vector<std::string> hostile = {
      "",
      " ",
      "two words",
      "[T-6]",
      "]",
      "[",
      "%",
      "%41",
      "100%",
      "line\nbreak",
      "\r\t\x01\x7f",
      std::string("nul\0byte", 8),
      "GRANT alice TKT [T-6] install netcat",
      "\xc3\xbc" "n" "\xc3\xaf" "c" "\xc3\xb8" "d" "\xc3\xa9",  // UTF-8
      std::string(64 * 1024, 'x') + " [y] %z\n",
  };
  for (const std::string& value : hostile) {
    SCOPED_TRACE(value.substr(0, 40));
    RpcRequest request = Ordinary();
    request.admin = value;
    ExpectRoundTrip(request, "T-6", true);
    request = Ordinary();
    request.ticket_id = value;
    ExpectRoundTrip(request, "T-6", false);
    ExpectRoundTrip(Ordinary(), value, true);
    request = Ordinary();
    request.method = value;
    ExpectRoundTrip(request, "T-6", false);
    request = Ordinary();
    request.args = {value};
    ExpectRoundTrip(request, "T-6", true);
    request.args = {value, "", value};
    ExpectRoundTrip(request, "T-6", true);
  }
  RpcRequest no_args = Ordinary();
  no_args.args.clear();
  ExpectRoundTrip(no_args, "T-6", true);
  RpcRequest one_empty_arg = Ordinary();
  one_empty_arg.args = {""};
  ExpectRoundTrip(one_empty_arg, "T-6", true);
  EXPECT_NE(EncodeBrokerDetail(no_args, "T-6", true),
            EncodeBrokerDetail(one_empty_arg, "T-6", true));
}

TEST(BrokerRecordCodecTest, SeededRandomFieldsRoundTrip) {
  std::mt19937 rng(20170801);
  const std::string specials = " []%\n\r\t\x00\x7f";
  auto rand_field = [&] {
    std::string field;
    for (size_t n = rng() % 12; n > 0; --n) {
      field += rng() % 3 == 0 ? specials[rng() % specials.size()]
                              : static_cast<char>(rng() % 256);
    }
    return field;
  };
  for (int i = 0; i < 3000; ++i) {
    RpcRequest request;
    request.admin = rand_field();
    request.ticket_id = rand_field();
    request.method = rand_field();
    for (size_t n = rng() % 4; n > 0; --n) {
      request.args.push_back(rand_field());
    }
    ExpectRoundTrip(request, rand_field(), rng() % 2 == 0);
  }
}

// Only what the encoder writes decodes: other events, a verdict that
// contradicts the record's event, and every non-canonical spelling are not
// broker records.
TEST(BrokerRecordCodecTest, RecordsTheEncoderDidNotWriteAreNotBrokerRecords) {
  witos::AuditRecord genuine = BrokerRecord(Ordinary(), "T-6", true);
  ASSERT_TRUE(DecodeBrokerRecord(genuine).has_value());
  witos::AuditRecord other_event = genuine;
  other_event.event = witos::AuditEvent::kSessionEvent;
  EXPECT_FALSE(DecodeBrokerRecord(other_event).has_value());
  witos::AuditRecord wrong_verdict = genuine;
  wrong_verdict.event = witos::AuditEvent::kBrokerDenied;
  EXPECT_FALSE(DecodeBrokerRecord(wrong_verdict).has_value());

  for (const char* detail : {
           "",
           "GRANT",
           "GRANT alice TKT [T-6]",
           "GRANT alice TKT T-6 install netcat",
           "GRANT alice  TKT [T-6] install netcat",
           "GRANT alice TKT [T-6] install netcat ",
           "GRANT al%69ce TKT [T-6] install netcat",
           "GRANT alice TKT [T-6] install net%2acat",
           "GRANT alice TKT [T-6] install %4",
           "GRANT alice TKT [T-6] install %zz",
           "GRANT alice TKT [[T-6]] install netcat",
           "GRANT alice TKT [%] install netcat",
           "grant alice TKT [T-6] install netcat",
       }) {
    witos::AuditRecord forged = genuine;
    forged.detail = detail;
    EXPECT_FALSE(DecodeBrokerRecord(forged).has_value()) << detail;
  }

  // Byte mutations of genuine records: whatever still decodes must be
  // exactly what the encoder writes for the decoded fields.
  std::mt19937 rng(6);
  RpcRequest hostile = Ordinary();
  hostile.admin = "mal lory%";
  hostile.args = {"", "[x]", "a\nb"};
  const std::vector<witos::AuditRecord> seeds = {genuine, BrokerRecord(hostile, "", false)};
  for (int i = 0; i < kMutationsPerType; ++i) {
    witos::AuditRecord mutated = seeds[static_cast<size_t>(i) % seeds.size()];
    mutated.detail = Mutate(mutated.detail, rng);
    std::optional<BrokerEvent> event = DecodeBrokerRecord(mutated);
    if (!event.has_value()) {
      continue;
    }
    RpcRequest request;
    request.admin = event->admin;
    request.ticket_id = event->ticket_id;
    request.method = event->verb;
    request.args = event->args;
    ASSERT_EQ(EncodeBrokerDetail(request, event->ticket_class, event->granted), mutated.detail);
  }
}

}  // namespace
}  // namespace witbroker
