// Lightweight contention telemetry any wrapper can carry.
//
// The response engine (src/response/) needs the *live* side of the
// contention signal — "how many threads are blocked on this lock right
// now?" — to escalate a misuse verdict while the damage radius is
// non-zero; lockstat and the metrics registry want the cumulative
// side. ContentionProbe keeps both: a live waiter gauge and the
// cumulative contended-acquire count, at a cost the hot path can ignore
// (callers only touch the probe when they are about to block, i.e.
// when they are already losing; the uncontended path pays nothing).
#pragma once

#include <atomic>
#include <cstdint>

namespace resilock {

struct ContentionSnapshot {
  std::uint32_t waiters = 0;                 // blocked right now
  std::uint64_t contended_acquisitions = 0;  // cumulative
};

class ContentionProbe {
 public:
  // Bracket a blocking wait: begin before handing control to the base
  // protocol's acquire, end once the lock is granted.
  void begin_wait() noexcept {
    contended_.fetch_add(1, std::memory_order_relaxed);
    waiters_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::uint32_t waiters() const noexcept {
    return waiters_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended_total() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }

  ContentionSnapshot snapshot() const noexcept {
    return {waiters(), contended_total()};
  }

  // Resets the cumulative count only; the waiter gauge is live state.
  void reset() noexcept {
    contended_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<std::uint64_t> contended_{0};
};

}  // namespace resilock
