// Transport encryption on the broker channel (paper §5.4's SSL note).

#include <gtest/gtest.h>

#include "src/broker/rpc.h"

namespace witbroker {
namespace {

// Answers every op with "echo:<method>".
RpcChannel::BatchHandler EchoHandler() {
  return [](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    RpcBatchResponse out;
    for (const RpcOp& op : batch.ops) {
      RpcResponse resp;
      resp.ok = true;
      resp.payload = "echo:" + op.method;
      out.responses.push_back(std::move(resp));
    }
    return out;
  };
}

// The calling process's pid, which travels beside every frame.
constexpr witos::Pid kCaller = 42;

// One op as its own batch, the way BrokerClient::Request sends it.
RpcBatchRequest OneOp(const std::string& method, std::vector<std::string> args = {}) {
  RpcBatchRequest batch;
  batch.ops = {{method, std::move(args)}};
  return batch;
}

TEST(RpcCryptoTest, EncryptedCallRoundTrips) {
  RpcChannel channel;
  channel.BindBatch(EchoHandler());
  channel.EnableEncryption(0x5ec23e7);
  EXPECT_TRUE(channel.encrypted());
  RpcBatchRequest request = OneOp("ps");
  auto response = channel.CallBatch(kCaller, request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->responses.size(), 1u);
  EXPECT_EQ(response->responses[0].payload, "echo:ps");
}

TEST(RpcCryptoTest, CiphertextDiffersFromPlaintextLength) {
  RpcChannel plain;
  plain.BindBatch(EchoHandler());
  RpcChannel encrypted;
  encrypted.BindBatch(EchoHandler());
  encrypted.EnableEncryption(42);
  RpcBatchRequest request = OneOp("kill", {"7"});
  ASSERT_TRUE(plain.CallBatch(kCaller, request).ok());
  ASSERT_TRUE(encrypted.CallBatch(kCaller, request).ok());
  // Nonce + MAC add 16 bytes per frame (two frames per call).
  EXPECT_EQ(encrypted.bytes_on_wire(), plain.bytes_on_wire() + 32);
}

TEST(RpcCryptoTest, TamperedFrameRejected) {
  RpcChannel channel;
  bool handler_ran = false;
  channel.BindBatch([&handler_ran](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    handler_ran = true;
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    return out;
  });
  channel.EnableEncryption(99);
  channel.CorruptNextFrameForTest();
  auto response = channel.CallBatch(kCaller, OneOp("ps"));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // The MITM-corrupted request never reached the broker.
  EXPECT_FALSE(handler_ran);
}

TEST(RpcCryptoTest, UnencryptedCorruptionBreaksFraming) {
  // Without encryption, a flipped byte may corrupt fields silently or break
  // framing — the MAC is what turns tampering into a hard failure.
  RpcChannel channel;
  channel.BindBatch(EchoHandler());
  channel.CorruptNextFrameForTest();
  RpcBatchRequest request = OneOp("read_file", {"/var/log/syslog"});
  (void)channel.CallBatch(kCaller, request);  // may succeed with garbled fields — no MAC
  SUCCEED();
}

TEST(RpcCryptoTest, CorruptedBatchFrameFailsAtomically) {
  // Regression: a corrupted batch frame must fail the WHOLE batch — the
  // handler never runs and the caller sees an error Result, never a partial
  // sub-response vector.
  RpcChannel channel;
  size_t handled_ops = 0;
  channel.BindBatch([&handled_ops](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    handled_ops += batch.ops.size();
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    return out;
  });
  channel.EnableEncryption(99);
  channel.CorruptNextFrameForTest();
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}, {"kill", {"7"}}, {"reboot", {}}};
  auto response = channel.CallBatch(kCaller, batch);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // Zero of the three sub-ops executed: no partial state on the broker.
  EXPECT_EQ(handled_ops, 0u);

  // The channel itself stays usable; the next batch goes through whole.
  auto retry = channel.CallBatch(kCaller, batch);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->responses.size(), 3u);
  EXPECT_EQ(handled_ops, 3u);
}

TEST(RpcCryptoTest, CorruptedBatchResponseLegAlsoFailsWhole) {
  // Corruption on the response leg: the ops DID execute on the broker, but
  // the client still must not see a partial or garbled sub-response vector
  // — the whole batch reports one transport error.
  RpcChannel channel;
  size_t handled_ops = 0;
  channel.BindBatch([&handled_ops](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    handled_ops += batch.ops.size();
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    for (auto& resp : out.responses) {
      resp.ok = true;
    }
    return out;
  });
  channel.EnableEncryption(7);
  // Skip the clean request frame; flip a byte of the response frame.
  channel.CorruptNextFrameForTest(/*skip_frames=*/1);
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}, {"kill", {"7"}}};
  auto response = channel.CallBatch(kCaller, batch);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // The broker side did run — corruption happened on the way back.
  EXPECT_EQ(handled_ops, 2u);
}

TEST(RpcCryptoTest, OneSealPerBatchAmortizesCrypto) {
  // N ops in a batch pay ONE nonce+MAC per direction; N singleton calls pay
  // N of each. 16 bytes overhead per frame, 2 frames per call.
  RpcChannel batched;
  batched.BindBatch([](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    return out;
  });
  batched.EnableEncryption(1);
  RpcChannel plain_batched;
  plain_batched.BindBatch([](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    return out;
  });
  RpcBatchRequest batch;
  batch.ops = {{"ps", {}}, {"kill", {"7"}}, {"read_file", {"/etc/motd"}}, {"reboot", {}}};
  ASSERT_TRUE(batched.CallBatch(kCaller, batch).ok());
  ASSERT_TRUE(plain_batched.CallBatch(kCaller, batch).ok());
  // +32 bytes total for the whole 4-op batch, not +32 per op.
  EXPECT_EQ(batched.bytes_on_wire(), plain_batched.bytes_on_wire() + 32);
  EXPECT_EQ(batched.frames(), 2u);
}

TEST(RpcCryptoTest, CallerTravelsBesideTheFrame) {
  // The caller is the kernel's stamp on the call, not frame bytes: the
  // handler sees it as given, it adds nothing to the wire, and neither the
  // seal nor a corrupted frame can change it.
  for (bool encrypted : {false, true}) {
    RpcChannel channel;
    std::vector<witos::Pid> seen;
    channel.BindBatch([&seen](witos::Pid caller, const RpcBatchRequest& batch) {
      seen.push_back(caller);
      RpcBatchResponse out;
      out.responses.resize(batch.ops.size());
      return out;
    });
    if (encrypted) {
      channel.EnableEncryption(11);
    }
    const RpcBatchRequest request = OneOp("ps");
    ASSERT_TRUE(channel.CallBatch(7, request).ok());
    const uint64_t one_call = channel.bytes_on_wire();
    ASSERT_TRUE(channel.CallBatch(70000, request).ok());
    EXPECT_EQ(channel.bytes_on_wire(), 2 * one_call);
    if (!encrypted) {
      // A flipped byte in the middle of "ps"'s frame: the frame may still
      // parse, and its caller is still the one the kernel stamped.
      channel.CorruptNextFrameForTest();
      (void)channel.CallBatch(7, request);
    }
    for (witos::Pid caller : seen) {
      EXPECT_TRUE(caller == 7 || caller == 70000);
    }
    EXPECT_GE(seen.size(), 2u);
  }
}

TEST(RpcCryptoTest, FramesUseFreshNonces) {
  RpcChannel channel;
  std::vector<std::string> seen_methods;
  channel.BindBatch([&seen_methods](witos::Pid /*caller*/, const RpcBatchRequest& batch) {
    RpcBatchResponse out;
    for (const RpcOp& op : batch.ops) {
      seen_methods.push_back(op.method);
      out.responses.push_back({true, witos::Err::kOk, ""});
    }
    return out;
  });
  channel.EnableEncryption(7);
  const RpcBatchRequest request = OneOp("ps");
  // Two identical requests: both must decrypt correctly despite distinct
  // keystreams (no keystream reuse).
  ASSERT_TRUE(channel.CallBatch(kCaller, request).ok());
  ASSERT_TRUE(channel.CallBatch(kCaller, request).ok());
  EXPECT_EQ(seen_methods, (std::vector<std::string>{"ps", "ps"}));
}

}  // namespace
}  // namespace witbroker
