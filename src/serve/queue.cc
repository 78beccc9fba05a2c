#include "src/serve/queue.h"

#include <algorithm>

namespace witserve {

TicketQueue::TicketQueue(Options options)
    : mu_(options.lock_name.empty() ? "serve.queue" : options.lock_name) {
  size_t capacity = std::max<size_t>(options.capacity, 1);
  high_ = options.high_watermark == 0 ? capacity : std::min(options.high_watermark, capacity);
  high_ = std::max<size_t>(high_, 1);
  low_ = options.low_watermark == 0 ? high_ / 2 : options.low_watermark;
  low_ = std::min(low_, high_ - 1);  // must sit strictly below high to damp flapping
}

witos::Status TicketQueue::TryPush(ServeJob job) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (closed_) {
    return witos::Err::kPipe;
  }
  if (!admitting_ && jobs_.size() <= low_) {
    admitting_ = true;  // drained past the low watermark: reopen
  }
  if (admitting_ && jobs_.size() >= high_) {
    admitting_ = false;  // reached the high watermark: close
  }
  if (!admitting_) {
    ++rejected_;
    return witos::Err::kBusy;
  }
  jobs_.push_back(std::move(job));
  ++accepted_;
  peak_ = std::max(peak_, jobs_.size());
  return witos::Status::Ok();
}

bool TicketQueue::TryPop(ServeJob* out) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (jobs_.empty()) {
    return false;
  }
  *out = std::move(jobs_.front());
  jobs_.pop_front();
  return true;
}

bool TicketQueue::TrySteal(ServeJob* out) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (jobs_.empty()) {
    return false;
  }
  *out = std::move(jobs_.back());
  jobs_.pop_back();
  return true;
}

void TicketQueue::Close() {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  closed_ = true;
}

bool TicketQueue::closed() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return closed_;
}

size_t TicketQueue::depth() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return jobs_.size();
}

size_t TicketQueue::peak_depth() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return peak_;
}

bool TicketQueue::admitting() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return admitting_;
}

uint64_t TicketQueue::accepted() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return accepted_;
}

uint64_t TicketQueue::rejected() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return rejected_;
}

}  // namespace witserve
