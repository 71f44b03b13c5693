// MCS list-based queue lock. Paper §3.4; protocol from Mellor-Crummey &
// Scott 1991 §2.
//
// Waiters form a singly-linked list; each spins on the `locked` flag of
// its own qnode (the per-thread context). acquire() SWAPs its qnode into
// the tail; release() hands the lock to I.next, or CASes the tail back to
// null when there is no successor.
//
// Unbalanced-unlock behavior (original), by the state of the misused
// qnode I (§3.4):
//   1. I.next == null  -> the misbehaving thread fails the tail CAS and
//      spins forever waiting for a successor that will never link itself:
//      Tm starves. No other thread starves.
//   2. I.next is a rogue pointer -> memory corruption (excluded here: the
//      C++ API takes the context by lvalue reference).
//   3. I.next points at a legal qnode that happens to be enqueued again
//      (stale next from a previous episode) -> that waiter is released
//      into the critical section: mutex violation.
//
// Resilient fix (paper Figure 6): acquire() always sets I.locked = true
// after the lock is acquired; release() treats I.locked == false as an
// unbalanced unlock and otherwise resets both I.locked and I.next, so a
// stale next can never be dereferenced by a later misuse.
//
// Parking (src/park/): `locked` is a 32-bit wait word in the parking
// protocol (0 = granted/free, 1 = waiting, 2 = parked in futex_wait).
// The contended wait runs through park::wait_word (bounded spin, then
// kernel sleep when RESILOCK_PARK is on) and the hand-off through
// ParkBay::hand_off (exchange + conditional futex_wake; a grant to a
// parked successor also wakes the waiters behind it). misuse_wake()
// is the shield's rescue hook: broadcast-wake every parked waiter
// after an absorbed unlock-family misuse would otherwise leave them
// wedged.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "park/parking_lot.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"

namespace resilock {

template <Resilience R>
class BasicMcsLock {
 public:
  struct alignas(platform::kCacheLineSize) QNode {
    std::atomic<QNode*> next{nullptr};
    std::atomic<std::uint32_t> locked{park::kWordGranted};
  };
  using Context = QNode;

  BasicMcsLock() = default;
  BasicMcsLock(const BasicMcsLock&) = delete;
  BasicMcsLock& operator=(const BasicMcsLock&) = delete;

  void acquire(QNode& I) {
    I.next.store(nullptr, std::memory_order_relaxed);
    QNode* const pred = tail_.exchange(&I, std::memory_order_acq_rel);
    if (pred != nullptr) {
      I.locked.store(park::kWordWaiting, std::memory_order_relaxed);
      pred->next.store(&I, std::memory_order_release);
      park::wait_word(I.locked, &bay_);
    }
    if constexpr (R == kResilient) {
      // Uniform "I hold the lock" marker, on both the contended and the
      // uncontended path (the original leaves `locked` inconsistent).
      I.locked.store(park::kWordHeldMarker, std::memory_order_relaxed);
    }
  }

  // seq_cst, the failed attempt included: a timed waiter's try is the
  // second half of its Dekker handshake with release() (see there).
  bool try_acquire(QNode& I) {
    I.next.store(nullptr, std::memory_order_relaxed);
    QNode* expected = nullptr;
    if (!tail_.compare_exchange_strong(expected, &I,
                                       std::memory_order_seq_cst)) {
      return false;
    }
    if constexpr (R == kResilient) {
      I.locked.store(park::kWordHeldMarker, std::memory_order_relaxed);
    }
    return true;
  }

  bool release(QNode& I) {
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled() &&
          I.locked.load(std::memory_order_relaxed) ==
              park::kWordGranted) {
        return false;
      }
    }
    QNode* succ = I.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      // The one write that frees the lock is a seq_cst RMW, so a gate
      // that reads its waiter count with a seq_cst load after it needs
      // no fence (park::TimedGate::after_free): in the single total
      // order either that load sees a timed waiter's registration, or
      // the waiter's later seq_cst try_acquire() sees this null. On
      // x86 both are the same lock cmpxchg as acq_rel. A hand-off
      // below leaves the lock held, and the successor's release frees.
      QNode* expected = &I;
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        if constexpr (R == kResilient) {
          I.locked.store(park::kWordGranted, std::memory_order_relaxed);
        }
        return true;
      }
      // A successor is mid-enqueue: wait for it to link itself.
      platform::SpinWait w;
      while ((succ = I.next.load(std::memory_order_acquire)) == nullptr)
        w.pause();
    }
    if constexpr (R == kResilient) {
      // Scrub our node before the handoff so a later misuse of this
      // context cannot follow a stale next pointer (misuse case 3).
      I.next.store(nullptr, std::memory_order_relaxed);
      I.locked.store(park::kWordGranted, std::memory_order_relaxed);
    }
    bay_.hand_off(succ->locked);
    return true;
  }

  // Rescue hook for the shield: after it absorbs an unlock-family
  // misuse, waiters parked on this lock may be waiting for a hand-off
  // that will never come from the misbehaving thread. Broadcast-wake
  // them; each re-checks its wait word and re-parks or proceeds.
  void misuse_wake() noexcept { bay_.misuse_wake(); }

  // Nobody holds or queues for the lock: a relaxed snapshot of the
  // tail. Read after a release, it tells a freeing release from a
  // hand-off (or from a free the next holder already took).
  bool is_free() const noexcept {
    return tail_.load(std::memory_order_relaxed) == nullptr;
  }

  std::uint32_t parked_waiters() const noexcept {
    return bay_.parked_count();
  }

  // Cohort detection property (Dice et al. 2012, §3.8.4): a linked
  // successor means another local thread is waiting. Conservative — a
  // waiter mid-enqueue is not counted, which only causes an unnecessary
  // global release, never a correctness issue.
  bool has_waiters(const QNode& I) const {
    return I.next.load(std::memory_order_relaxed) != nullptr;
  }

  bool owned_by_caller(const QNode& I) const {
    if constexpr (R == kResilient) {
      return I.locked.load(std::memory_order_relaxed) !=
             park::kWordGranted;
    } else {
      (void)I;
      return true;
    }
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;
  alignas(platform::kCacheLineSize) std::atomic<QNode*> tail_{nullptr};
  park::ParkBay bay_;
};

using McsLock = BasicMcsLock<kOriginal>;
using McsLockResilient = BasicMcsLock<kResilient>;

}  // namespace resilock
