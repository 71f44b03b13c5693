// Reentrant lock wrapper. Paper §3.9.
//
// Owner + depth over any PlainLock: re-acquisition by the owner bumps the
// depth, release by the owner decrements it, and — as in OpenJDK's
// ReentrantLock and glibc's PTHREAD_MUTEX_ERRORCHECK — release by a
// non-owner is refused with an error. Ownership checking is inherent to
// reentrancy, so this wrapper is immune to unbalanced unlock by
// construction; the paper's special case of *more unlocks than locks* by
// the owner itself is also caught (depth underflow).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/lock_concepts.hpp"
#include "core/resilience.hpp"
#include "core/tas.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

template <PlainLock Base = TatasLockResilient>
class ReentrantLock {
  static constexpr std::uint32_t kNoOwner = 0;

 public:
  void acquire() {
    const std::uint32_t me = platform::self_pid() + 1;
    if (owner_.load(std::memory_order_relaxed) == me) {
      ++depth_;  // only the owner reaches here; no race
      return;
    }
    base_.acquire();
    owner_.store(me, std::memory_order_relaxed);
    depth_ = 1;
  }

  bool try_acquire() {
    const std::uint32_t me = platform::self_pid() + 1;
    if (owner_.load(std::memory_order_relaxed) == me) {
      ++depth_;
      return true;
    }
    if constexpr (TryLockable<Base>) {
      if (!base_.try_acquire()) return false;
      owner_.store(me, std::memory_order_relaxed);
      depth_ = 1;
      return true;
    } else {
      return false;
    }
  }

  // False iff the caller does not own the lock (the errorcheck behavior
  // the paper cites for pthreads, §3.9).
  bool release() {
    const std::uint32_t me = platform::self_pid() + 1;
    if (owner_.load(std::memory_order_relaxed) != me) return false;
    if (--depth_ == 0) {
      owner_.store(kNoOwner, std::memory_order_relaxed);
      return base_.release();
    }
    return true;
  }

  std::uint32_t depth() const { return depth_; }
  bool held_by_self() const {
    const std::uint32_t me = platform::self_pid() + 1;
    return owner_.load(std::memory_order_relaxed) == me;
  }

 private:
  Base base_;
  std::atomic<std::uint32_t> owner_{kNoOwner};
  std::uint32_t depth_ = 0;  // guarded by base_
};

}  // namespace resilock
