#include "src/broker/rpc.h"

#include "src/os/audit.h"

namespace witbroker {

namespace {

// Every sub-request costs at least two 4-byte length prefixes (method +
// empty arg list), so a claimed count above remaining/8 is unsatisfiable.
constexpr size_t kMinOpBytes = 8;
// Every sub-response costs at least ok + err + payload prefix (3 u32s).
constexpr size_t kMinSubResponseBytes = 12;

void PutFrameHeader(WireWriter* writer, RpcFrameKind kind) {
  writer->PutU32(kRpcMagic);
  writer->PutU32(kRpcVersion);
  writer->PutU32(static_cast<uint32_t>(kind));
}

// Consumes and validates a frame header, requiring `expected` kind. A
// headerless frame, version skew and kind confusion (including the retired
// single-op kinds) are all rejected as EINVAL.
witos::Status ReadFrameHeader(WireReader* reader, RpcFrameKind expected) {
  WITOS_ASSIGN_OR_RETURN(uint32_t magic, reader->GetU32());
  if (magic != kRpcMagic) {
    return witos::Err::kInval;
  }
  WITOS_ASSIGN_OR_RETURN(uint32_t version, reader->GetU32());
  if (version != kRpcVersion) {
    return witos::Err::kInval;
  }
  WITOS_ASSIGN_OR_RETURN(uint32_t kind, reader->GetU32());
  if (kind != static_cast<uint32_t>(expected)) {
    return witos::Err::kInval;
  }
  return witos::Status::Ok();
}

// An error code that crossed the wire: anything outside the enum range is a
// hostile or corrupted frame, not a new errno.
bool ValidErrCode(uint32_t raw) {
  return raw < static_cast<uint32_t>(witos::kErrCodeCount);
}

}  // namespace

void RpcResponse::SerializeBody(WireWriter* writer) const {
  writer->PutBool(ok);
  writer->PutU32(static_cast<uint32_t>(err));
  writer->PutString(payload);
}

witos::Result<RpcResponse> RpcResponse::DeserializeBody(WireReader* reader) {
  RpcResponse resp;
  WITOS_ASSIGN_OR_RETURN(resp.ok, reader->GetBool());
  WITOS_ASSIGN_OR_RETURN(uint32_t raw_err, reader->GetU32());
  if (!ValidErrCode(raw_err)) {
    return witos::Err::kInval;
  }
  resp.err = static_cast<witos::Err>(raw_err);
  WITOS_ASSIGN_OR_RETURN(resp.payload, reader->GetString());
  return resp;
}

std::string RpcBatchRequest::Serialize() const {
  WireWriter writer;
  PutFrameHeader(&writer, RpcFrameKind::kBatchRequest);
  writer.PutU32(static_cast<uint32_t>(ops.size()));
  for (const RpcOp& op : ops) {
    writer.PutString(op.method);
    writer.PutStringList(op.args);
  }
  return writer.Take();
}

witos::Result<RpcBatchRequest> RpcBatchRequest::Deserialize(std::string_view data) {
  WireReader reader(data);
  WITOS_RETURN_IF_ERROR(ReadFrameHeader(&reader, RpcFrameKind::kBatchRequest));
  RpcBatchRequest batch;
  WITOS_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  if (static_cast<size_t>(count) > reader.Remaining() / kMinOpBytes) {
    return witos::Err::kInval;  // unsatisfiable count: reject before reserving
  }
  batch.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RpcOp op;
    WITOS_ASSIGN_OR_RETURN(op.method, reader.GetString());
    WITOS_ASSIGN_OR_RETURN(op.args, reader.GetStringList());
    batch.ops.push_back(std::move(op));
  }
  if (!reader.AtEnd()) {
    return witos::Err::kInval;
  }
  return batch;
}

std::string RpcBatchResponse::Serialize() const {
  WireWriter writer;
  PutFrameHeader(&writer, RpcFrameKind::kBatchResponse);
  writer.PutU32(static_cast<uint32_t>(responses.size()));
  for (const RpcResponse& resp : responses) {
    resp.SerializeBody(&writer);
  }
  return writer.Take();
}

witos::Result<RpcBatchResponse> RpcBatchResponse::Deserialize(std::string_view data) {
  WireReader reader(data);
  WITOS_RETURN_IF_ERROR(ReadFrameHeader(&reader, RpcFrameKind::kBatchResponse));
  RpcBatchResponse batch;
  WITOS_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  if (static_cast<size_t>(count) > reader.Remaining() / kMinSubResponseBytes) {
    return witos::Err::kInval;
  }
  batch.responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WITOS_ASSIGN_OR_RETURN(RpcResponse resp, RpcResponse::DeserializeBody(&reader));
    batch.responses.push_back(std::move(resp));
  }
  if (!reader.AtEnd()) {
    return witos::Err::kInval;
  }
  return batch;
}

void RpcChannel::EnableEncryption(uint64_t shared_secret) {
  encrypted_ = true;
  key_ = shared_secret;
}

void RpcChannel::EnableMetrics(witobs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    frames_total_ = nullptr;
    batch_size_hist_ = nullptr;
    ticket_wire_bytes_ = nullptr;
    return;
  }
  registry->SetHelp("watchit_rpc_frames_total",
                    "Broker RPC frames crossing the wire (request + response)");
  registry->SetHelp("watchit_rpc_batch_size", "Sub-operations per batched broker RPC frame");
  registry->SetHelp("watchit_rpc_ticket_wire_bytes",
                    "Bytes on wire of the most recent batched broker call (one per ticket "
                    "on the serving path)");
  frames_total_ = registry->GetCounter("watchit_rpc_frames_total");
  batch_size_hist_ = registry->GetHistogram("watchit_rpc_batch_size");
  ticket_wire_bytes_ = registry->GetGauge("watchit_rpc_ticket_wire_bytes");
}

namespace {

// Deterministic keystream from (key, nonce): iterated FNV over a counter.
void ApplyKeystream(std::string* data, uint64_t key, uint64_t nonce) {
  uint64_t state = key ^ (nonce * 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  while (i < data->size()) {
    state = witos::Fnv1a(std::string_view(reinterpret_cast<const char*>(&state), 8));
    for (int b = 0; b < 8 && i < data->size(); ++b, ++i) {
      (*data)[i] = static_cast<char>((*data)[i] ^ static_cast<char>((state >> (8 * b)) & 0xff));
    }
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *out += static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint64_t ReadU64(std::string_view data) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data[static_cast<size_t>(i)]))
             << (8 * i);
  }
  return value;
}

}  // namespace

std::string RpcChannel::Seal(const std::string& plaintext) {
  uint64_t nonce = ++nonce_;
  uint64_t mac = witos::Fnv1a(plaintext, key_ ^ nonce);
  std::string body = plaintext;
  ApplyKeystream(&body, key_, nonce);
  std::string frame;
  AppendU64(&frame, nonce);
  frame += body;
  AppendU64(&frame, mac);
  return frame;
}

witos::Result<std::string> RpcChannel::Open(const std::string& frame) const {
  if (frame.size() < 16) {
    return witos::Err::kIo;
  }
  uint64_t nonce = ReadU64(frame);
  std::string body = frame.substr(8, frame.size() - 16);
  uint64_t mac = ReadU64(std::string_view(frame).substr(frame.size() - 8));
  ApplyKeystream(&body, key_, nonce);
  if (witos::Fnv1a(body, key_ ^ nonce) != mac) {
    return witos::Err::kIo;  // authentication failure: drop the frame
  }
  return body;
}

witos::Result<std::string> RpcChannel::Transit(std::string frame) {
  if (encrypted_) {
    frame = Seal(frame);
  }
  if (corrupt_next_) {
    if (corrupt_skip_ > 0) {
      --corrupt_skip_;
    } else {
      corrupt_next_ = false;
      frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 0x40);
    }
  }
  bytes_on_wire_ += frame.size();
  last_call_wire_bytes_ += frame.size();
  ++frames_;
  if (frames_total_ != nullptr) {
    frames_total_->Increment();
  }
  if (encrypted_) {
    return Open(frame);
  }
  return frame;
}

witos::Result<RpcBatchResponse> RpcChannel::CallBatch(witos::Pid caller,
                                                      const RpcBatchRequest& request) {
  if (batch_handler_ == nullptr) {
    // The broker process is gone — ContainIT treats this as a fatal event.
    return witos::Err::kConnRefused;
  }
  ++calls_;
  last_call_wire_bytes_ = 0;
  if (batch_size_hist_ != nullptr) {
    batch_size_hist_->Observe(request.ops.size());
  }
  // Atomicity: any failure between here and the final Deserialize returns
  // through WITOS_ASSIGN_OR_RETURN before a single sub-response is
  // delivered, and a failure on the request leg (e.g. a corrupted frame
  // rejected by the MAC) happens before the server handler ever runs.
  WITOS_ASSIGN_OR_RETURN(std::string frame, Transit(request.Serialize()));
  WITOS_ASSIGN_OR_RETURN(RpcBatchRequest decoded, RpcBatchRequest::Deserialize(frame));
  RpcBatchResponse response = batch_handler_(caller, decoded);
  WITOS_ASSIGN_OR_RETURN(std::string response_frame, Transit(response.Serialize()));
  WITOS_ASSIGN_OR_RETURN(RpcBatchResponse decoded_response,
                         RpcBatchResponse::Deserialize(response_frame));
  if (ticket_wire_bytes_ != nullptr) {
    ticket_wire_bytes_->Set(static_cast<int64_t>(last_call_wire_bytes_));
  }
  return decoded_response;
}

}  // namespace witbroker
