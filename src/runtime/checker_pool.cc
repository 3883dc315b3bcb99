#include "runtime/checker_pool.h"

#include <algorithm>

namespace paradet::runtime {

CheckerPool::CheckerPool(unsigned threads, std::size_t capacity, WorkFn work,
                         AbsorbFn absorb)
    : threads_(std::max(1u, threads)),
      capacity_(std::max<std::size_t>(1, capacity)),
      work_(std::move(work)),
      absorb_(std::move(absorb)),
      done_(capacity_, 0) {
  workers_.reserve(threads_);
  for (unsigned w = 0; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  absorber_ = std::thread([this] { absorber_loop(); });
}

CheckerPool::~CheckerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  absorber_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  absorber_.join();
}

void CheckerPool::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_ == nullptr) error_ = std::move(error);
  }
  worker_cv_.notify_all();
  absorber_cv_.notify_all();
  producer_cv_.notify_all();
}

template <typename Ready>
void CheckerPool::wait_producer(Ready ready) {
  std::unique_lock<std::mutex> lock(mutex_);
  producer_cv_.wait(lock, [&] { return error_ != nullptr || ready(); });
  if (error_ != nullptr) std::rethrow_exception(error_);
}

void CheckerPool::wait_slot(std::uint64_t ticket) {
  wait_producer([&] { return absorbed_ + capacity_ > ticket; });
}

void CheckerPool::publish(std::uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_ != nullptr) std::rethrow_exception(error_);
    published_ = ticket + 1;
  }
  worker_cv_.notify_one();
}

void CheckerPool::wait_absorbed(std::uint64_t ticket) {
  wait_producer([&] { return absorbed_ > ticket; });
}

void CheckerPool::drain() {
  wait_producer([&] { return absorbed_ >= published_; });
}

void CheckerPool::worker_loop(unsigned worker) {
  try {
    for (;;) {
      std::uint64_t ticket;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        worker_cv_.wait(lock, [&] {
          return error_ != nullptr || stop_ || claimed_ < published_;
        });
        // Published work is still drained after stop (the destructor's
        // contract), so stop only exits once nothing is left to claim.
        if (error_ != nullptr || claimed_ == published_) return;
        ticket = claimed_++;
      }
      work_(ticket, worker);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done_[ticket % capacity_] = ticket + 1;
      }
      absorber_cv_.notify_one();
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

void CheckerPool::absorber_loop() {
  try {
    for (std::uint64_t ticket = 0;; ++ticket) {
      std::uint64_t& done = done_[ticket % capacity_];
      {
        std::unique_lock<std::mutex> lock(mutex_);
        absorber_cv_.wait(lock, [&] {
          return error_ != nullptr || done == ticket + 1 ||
                 (stop_ && published_ <= ticket);
        });
        // Failed, or stopped with every published ticket absorbed.
        if (error_ != nullptr || done != ticket + 1) return;
      }
      absorb_(ticket);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done = 0;
        absorbed_ = ticket + 1;
      }
      producer_cv_.notify_all();
    }
  } catch (...) {
    fail(std::current_exception());
  }
}

unsigned CheckerPool::bounded(unsigned requested, unsigned host_jobs) {
  if (requested == 0) return 0;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (host_jobs == 0) host_jobs = hw;  // resolve_jobs(0) == all cores.
  // Each run may use (workers + absorber) threads on top of its own main
  // thread; keep host_jobs concurrent runs from oversubscribing the host.
  const unsigned per_run = hw / host_jobs;
  const unsigned budget = per_run > 0 ? per_run - 1 : 0;
  return std::min(requested, budget);
}

}  // namespace paradet::runtime
