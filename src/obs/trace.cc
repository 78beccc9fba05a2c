#include "src/obs/trace.h"

#include <map>

#include "src/obs/metrics.h"

namespace witobs {

// One ring buffer per (tracer, thread). The owning thread is the only
// writer; Snapshot() readers take the buffer mutex, which the writer holds
// only for the duration of one record copy.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(size_t capacity) : ring(capacity) {}

  mutable std::mutex mu;
  std::vector<SpanRecord> ring;
  size_t next = 0;      // ring write cursor
  size_t size = 0;      // valid records in the ring
  uint64_t dropped = 0;  // overwritten records

  // Open RAII spans — touched only by the owning thread, never by readers.
  uint32_t open_spans = 0;
  uint64_t thread_id = 0;

  void Push(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mu);
    if (size == ring.size()) {
      ++dropped;  // overwrite the oldest
    } else {
      ++size;
    }
    ring[next] = std::move(record);
    next = (next + 1) % ring.size();
  }
};

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};
std::atomic<uint64_t> g_next_thread_id{1};

uint64_t LocalThreadId() {
  thread_local uint64_t id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::map<uint64_t, std::shared_ptr<Tracer::ThreadBuffer>>& Tracer::LocalBuffers() {
  thread_local std::map<uint64_t, std::shared_ptr<ThreadBuffer>> buffers;
  return buffers;
}

Tracer::Tracer(size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  auto& local = LocalBuffers();
  auto it = local.find(id_);
  if (it != local.end()) {
    return it->second.get();
  }
  auto buffer = std::make_shared<ThreadBuffer>(capacity_);
  buffer->thread_id = LocalThreadId();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(buffer);
  }
  local.emplace(id_, buffer);
  return buffer.get();
}

uint64_t Tracer::Now() const {
  uint64_t (*clock)() = clock_.load(std::memory_order_relaxed);
  return clock != nullptr ? clock() : MonotonicNowNs();
}

void Tracer::SetClockForTest(uint64_t (*now_ns)()) {
  clock_.store(now_ns, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    size_t start = buffer->size == buffer->ring.size()
                       ? buffer->next  // full ring: oldest is at the cursor
                       : 0;
    for (size_t i = 0; i < buffer->size; ++i) {
      out.push_back(buffer->ring[(start + i) % buffer->ring.size()]);
    }
  }
  return out;
}

uint64_t Tracer::dropped() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  uint64_t n = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    n += buffer->dropped;
  }
  return n;
}

uint64_t Tracer::total_recorded() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  uint64_t n = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    n += buffer->size + buffer->dropped;
  }
  return n;
}

void Tracer::RecordSpan(SpanRecord record) {
  ThreadBuffer* buffer = LocalBuffer();
  if (record.thread_id == 0) {
    record.thread_id = buffer->thread_id;
  }
  buffer->Push(std::move(record));
}

void Tracer::Clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->next = 0;
    buffer->size = 0;
    buffer->dropped = 0;
  }
}

Span::Span(Tracer* tracer, const char* name, std::string correlation_id)
    : tracer_(tracer), name_(name), correlation_id_(std::move(correlation_id)) {
  if (tracer_ == nullptr) {
    return;
  }
  buffer_ = tracer_->LocalBuffer();
  depth_ = buffer_->open_spans++;
  start_ns_ = tracer_->Now();
}

Span::~Span() {
  if (tracer_ == nullptr || buffer_ == nullptr) {
    return;
  }
  uint64_t end_ns = tracer_->Now();
  --buffer_->open_spans;
  SpanRecord record;
  record.name = name_;
  record.correlation_id = std::move(correlation_id_);
  record.start_ns = start_ns_;
  record.duration_ns = end_ns - start_ns_;
  record.depth = depth_;
  record.thread_id = buffer_->thread_id;
  buffer_->Push(std::move(record));
}

}  // namespace witobs
