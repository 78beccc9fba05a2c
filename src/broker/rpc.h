// The client-server RPC channel between a perforated container and the
// permission broker (paper §5.4). Requests cross a real serialization
// boundary (TLV wire format) even though transport is in-process, so that
// malformed or truncated frames are exercised like they would be over
// TCP/IP + gRPC.
//
// Wire protocol: one frame pair. Every request is a batch frame
// (`RpcBatchRequest`) carrying N sub-operations, verbs and args only,
// answered by one `RpcBatchResponse`; a single request is a batch of one.
// Every frame starts with a magic+version+kind header, errors cross the
// wire as typed witos::Err codes, and a frame is sealed/MACed once however
// many ops it carries. No frame says who is asking: the caller's pid
// travels beside it, as every witos::Kernel syscall takes its caller.

#ifndef SRC_BROKER_RPC_H_
#define SRC_BROKER_RPC_H_

#include <functional>
#include <string>
#include <vector>

#include "src/broker/wire.h"
#include "src/obs/metrics.h"
#include "src/os/result.h"
#include "src/os/types.h"

namespace witbroker {

// Frame header: "WIT2" little-endian magic, then version, then kind.
inline constexpr uint32_t kRpcMagic = 0x32544957;  // "WIT2"
inline constexpr uint32_t kRpcVersion = 3;

// Kinds 1 and 2 were the retired single-op frames; decoders reject them.
enum class RpcFrameKind : uint32_t {
  kBatchRequest = 3,
  kBatchResponse = 4,
};

// One op as the broker sees it: a sub-request with the caller's binding
// applied. In-memory only — it never crosses the wire.
struct RpcRequest {
  std::string method;
  std::vector<std::string> args;
  std::string ticket_id;  // the ticket bound to the caller's session
  std::string admin;      // the admin the ticket was deployed for
};

struct RpcResponse {
  bool ok = false;
  witos::Err err = witos::Err::kOk;  // typed error code when !ok
  std::string payload;               // method-specific result

  // Body (de)serialization, framed by RpcBatchResponse.
  void SerializeBody(WireWriter* writer) const;
  static witos::Result<RpcResponse> DeserializeBody(WireReader* reader);
};

// One sub-operation of a batch: just the verb and its arguments.
struct RpcOp {
  std::string method;
  std::vector<std::string> args;
};

// N sub-requests in one frame: the whole ticket's broker traffic,
// serialized once, sealed once.
struct RpcBatchRequest {
  std::vector<RpcOp> ops;

  std::string Serialize() const;
  static witos::Result<RpcBatchRequest> Deserialize(std::string_view data);
};

// Positional responses: responses[i] answers ops[i]. Delivery is atomic —
// a batch frame that fails authentication or parsing produces *no* sub-
// responses, never a partial prefix.
struct RpcBatchResponse {
  std::vector<RpcResponse> responses;

  std::string Serialize() const;
  static witos::Result<RpcBatchResponse> Deserialize(std::string_view data);
};

// One endpoint (the broker server) bound to a transport. A call serializes
// the batch, traverses the "wire", and deserializes the response.
//
// `caller` is the calling process's host pid, the kernel's stamp on the
// call (the SO_PEERCRED analogue): it reaches the handler as given and is
// never serialized, sealed, counted or corrupted.
//
// Transport encryption (paper §5.4: "If one wishes to further secure the
// communication between the perforated container and the permission broker,
// one can employ SSL"): with EnableEncryption, every frame is sealed with a
// keystream derived from the shared secret plus a MAC over the plaintext.
// The seal gives confidentiality and turns corrupted ciphertext into a
// failed call. It carries no identity, and nothing detects a replayed frame
// (Open keeps no nonce window). A batch pays the seal/MAC cost once.
class RpcChannel {
 public:
  using BatchHandler = std::function<RpcBatchResponse(witos::Pid, const RpcBatchRequest&)>;

  void BindBatch(BatchHandler handler) { batch_handler_ = std::move(handler); }

  // One frame out, one frame back, regardless of ops.size(). Atomic: any
  // transport/authentication/framing failure yields an error Result and no
  // sub-operation executes or is answered. ECONNREFUSED when no server is
  // bound (the broker process is gone).
  witos::Result<RpcBatchResponse> CallBatch(witos::Pid caller, const RpcBatchRequest& request);

  void EnableEncryption(uint64_t shared_secret);
  bool encrypted() const { return encrypted_; }

  // Wires the channel into the observability layer:
  // watchit_rpc_frames_total (frames crossing the wire, by direction),
  // watchit_rpc_batch_size (ops per batch frame) and
  // watchit_rpc_ticket_wire_bytes (bytes on wire of the most recent batch
  // call — with the serving path flushing once per ticket, this is the
  // per-ticket wire cost).
  void EnableMetrics(witobs::MetricsRegistry* registry);

  // Test hook: flip a byte of the next frame in transit (a meddling
  // man-in-the-middle). `skip_frames` lets the MITM wait — 1 skips the
  // request leg and corrupts the response frame of the next call.
  void CorruptNextFrameForTest(int skip_frames = 0) {
    corrupt_next_ = true;
    corrupt_skip_ = skip_frames;
  }

  uint64_t bytes_on_wire() const { return bytes_on_wire_; }
  // CallBatch invocations made while a server was bound.
  uint64_t calls() const { return calls_; }
  // Wire frames sent in either direction (2 per successful call: request +
  // response) — the number batching exists to shrink.
  uint64_t frames() const { return frames_; }

 private:
  // Seal/Open: keystream XOR + appended 8-byte MAC over the plaintext.
  // The nonce makes every frame's keystream distinct (no keystream reuse).
  std::string Seal(const std::string& plaintext);
  witos::Result<std::string> Open(const std::string& frame) const;

  // Transport bookkeeping for each leg of a call: seal, corrupt (test
  // hook), count bytes+frames, open.
  witos::Result<std::string> Transit(std::string frame);

  BatchHandler batch_handler_;
  bool encrypted_ = false;
  uint64_t key_ = 0;
  uint64_t nonce_ = 0;
  bool corrupt_next_ = false;
  int corrupt_skip_ = 0;
  uint64_t bytes_on_wire_ = 0;
  uint64_t calls_ = 0;
  uint64_t frames_ = 0;
  uint64_t last_call_wire_bytes_ = 0;  // both legs of the call in progress

  // Observability wiring (all null when metrics are disabled).
  witobs::Counter* frames_total_ = nullptr;
  witobs::Histogram* batch_size_hist_ = nullptr;
  witobs::Gauge* ticket_wire_bytes_ = nullptr;
};

}  // namespace witbroker

#endif  // SRC_BROKER_RPC_H_
