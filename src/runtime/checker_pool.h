// Bounded ticket pipeline for concurrent checker replay.
//
// The segment pipeline (sim/segment_pipeline) splits each sealed segment's
// processing into a thread-safe *work* half (functional replay, pure over
// an immutable snapshot) and an order-dependent *absorb* half (timing walk
// over shared icache state, detection bookkeeping). CheckerPool runs the
// two halves on a worker pool plus one absorber thread:
//
//   producer ──publish(t)──▶ [workers: claim tickets in order,
//                             run work(t, worker) in any order]
//                                   │ per-slot done word
//                                   ▼
//                            [absorber: absorb(0), absorb(1), … strictly
//                             in ticket order]
//
// Tickets are dense 0..n-1 ordinals. Capacity bounds the number of
// published-but-not-absorbed tickets, giving backpressure: wait_slot()
// blocks the producer until slot `ticket % capacity` is free again.
//
// All pipeline state sits behind one mutex, and each role (workers,
// absorber, producer) waits on its own condition variable. The work and
// absorb callbacks run outside the lock. A ticket costs a few uncontended
// lock round trips, which is small next to the replay it carries:
// sim::SegmentPipeline coalesces sealed segments into tickets of
// thousands of instructions (see CheckerExec::batch).
//
// Exceptions from work/absorb are captured once and rethrown from the
// producer-side calls (publish/wait_slot/wait_absorbed/drain); the pool
// then refuses further tickets.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace paradet::runtime {

class CheckerPool {
 public:
  /// work(ticket, worker): thread-safe half, runs on any of `threads`
  /// workers; `worker` in [0, threads) selects per-thread scratch state.
  /// absorb(ticket): order-dependent half, called from the absorber thread
  /// strictly in ticket order.
  using WorkFn = std::function<void(std::uint64_t ticket, unsigned worker)>;
  using AbsorbFn = std::function<void(std::uint64_t ticket)>;

  /// Spawns `threads` workers (>= 1) plus one absorber. `capacity` bounds
  /// in-flight tickets (>= 1).
  CheckerPool(unsigned threads, std::size_t capacity, WorkFn work,
              AbsorbFn absorb);
  ~CheckerPool();

  CheckerPool(const CheckerPool&) = delete;
  CheckerPool& operator=(const CheckerPool&) = delete;

  /// Blocks until slot `ticket % capacity` is free (i.e. ticket - capacity
  /// has been absorbed). Call before writing the ticket's input into the
  /// shared slot. Rethrows any captured pipeline failure.
  void wait_slot(std::uint64_t ticket);

  /// Makes `ticket` visible to workers. Tickets must be published densely
  /// in order: 0, 1, 2, … Rethrows any captured pipeline failure.
  void publish(std::uint64_t ticket);

  /// Blocks until absorb(ticket) has returned. Rethrows failures.
  void wait_absorbed(std::uint64_t ticket);

  /// Blocks until every published ticket has been absorbed. Rethrows
  /// failures. The pool stays usable afterwards.
  void drain();

  unsigned threads() const { return threads_; }
  std::size_t capacity() const { return capacity_; }

  /// Thread budget policy: how many checker worker threads a single run
  /// should spawn so that `host_jobs` concurrent runs (campaign --jobs)
  /// plus their absorbers cannot oversubscribe the host. Returns
  /// min(requested, max(0, hardware_concurrency / host_jobs - 1));
  /// 0 means "run inline" (no pool). `requested` == 0 always maps to 0.
  static unsigned bounded(unsigned requested, unsigned host_jobs);

 private:
  /// Blocks the producer until `ready()` holds or a failure is captured,
  /// then rethrows the failure if there is one.
  template <typename Ready>
  void wait_producer(Ready ready);

  void worker_loop(unsigned worker);
  void absorber_loop();
  void fail(std::exception_ptr error);

  const unsigned threads_;
  const std::size_t capacity_;
  WorkFn work_;
  AbsorbFn absorb_;

  std::mutex mutex_;  // guards every member below up to the threads
  std::condition_variable worker_cv_;    // claimed_ < published_
  std::condition_variable absorber_cv_;  // the next slot's done word
  std::condition_variable producer_cv_;  // absorbed_ progress
  std::uint64_t published_ = 0;  // tickets visible to workers
  std::uint64_t claimed_ = 0;    // next ticket a worker takes
  std::uint64_t absorbed_ = 0;   // tickets absorbed, in order
  /// Per slot: ticket+1 once its work half is done, 0 while empty. Storing
  /// the ticket rather than a flag makes slot reuse across ring laps
  /// self-checking.
  std::vector<std::uint64_t> done_;
  bool stop_ = false;
  std::exception_ptr error_;

  std::vector<std::thread> workers_;
  std::thread absorber_;
};

}  // namespace paradet::runtime
