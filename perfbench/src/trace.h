// Span recorder for the benchmark's traced run. A span is (name, start,
// end, parent, work): it wraps one call into a simulator layer, made from
// the benchmark's own code, and `work` carries the count done inside it
// (instructions, accesses, tickets). Spans stay in memory; the per-layer
// metrics are derived from them when the run ends. The untraced run passes
// a null Tracer, and a Scope over a null Tracer reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace paradet::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal: the layer call.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top.
    std::uint64_t work = 0;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Opens a span on the calling thread and returns its index. Its parent
  /// is the thread's innermost open span or, on a thread with none (a
  /// campaign worker), `fallback_parent`.
  std::int64_t open(const char* name, std::int64_t fallback_parent) {
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t parent = current_ >= 0 ? current_ : fallback_parent;
    spans_.push_back(Span{name, start, start, parent, 0});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }

  /// Closes span `index`; `previous` becomes the thread's innermost span.
  void close(std::int64_t index, std::int64_t previous, std::uint64_t work) {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = end;
    span.work = work;
    current_ = previous;
  }

  /// The calling thread's innermost open span, -1 when it has none.
  static std::int64_t current() { return current_; }

  /// All spans recorded so far (call once the traced threads have joined).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  /// Innermost open span of the calling thread.
  static thread_local std::int64_t current_;
};

inline thread_local std::int64_t Tracer::current_ = -1;

/// RAII span over a possibly-null Tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t fallback_parent = -1)
      : tracer_(tracer),
        previous_(Tracer::current()),
        index_(tracer ? tracer->open(name, fallback_parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_, previous_, work_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t index() const { return index_; }
  void set_work(std::uint64_t work) { work_ = work; }

 private:
  Tracer* tracer_;
  std::int64_t previous_;
  std::int64_t index_;
  std::uint64_t work_ = 0;
};

}  // namespace paradet::perfbench
