// CLH list-based queue lock. Paper §3.5; protocol from Craig 1993 /
// Magnusson, Landin & Hagersten 1994.
//
// Like MCS, but each waiter spins on its *predecessor's* flag
// (`succ_must_wait`) rather than its own, and the releaser takes
// ownership of the predecessor's qnode for its next locking episode. The
// queue is bootstrapped with a dummy node whose flag is already false.
//
// Unbalanced-unlock behavior (original), per §3.5 and Figure 8: because a
// releaser inherits its predecessor's node, a misbehaving release makes
// the thread believe it owns a node that another thread still legitimately
// owns. Two contexts then hold aliases of one qnode; when both re-enqueue
// it, one succ_must_wait update can admit two waiters at once (mutex
// violation), and the racy updates can make the implicit list cyclic or
// lose the handoff so no successor is ever released (starvation of all
// other threads).
//
// Resilient fix (paper Figure 7): the ability of a misuse to reach an
// arbitrary qnode through `prev` is the root cause, so release() resets
// I.prev to null when done and treats a null prev on entry as an
// unbalanced unlock. qnode constructors initialize prev to null.
//
// Node ownership: a Context owns exactly one node between episodes; the
// lock owns whatever node the tail points at. Both are reclaimed on
// destruction (destroying a context while it is enqueued is undefined,
// as with any queue lock).
//
// Parking (src/park/): `succ_must_wait` is a 32-bit wait word (0 =
// released, 1 = successor must wait, 2 = successor parked). The waiter
// runs park::wait_word on its PREDECESSOR's word; the releaser
// publishes through ParkBay::hand_off (see BasicMcsLock).
// misuse_wake() broadcast-wakes parked waiters after the shield absorbs
// an unlock-family misuse.
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
class BasicClhLock {
 public:
  struct alignas(platform::kCacheLineSize) QNode {
    std::atomic<std::uint32_t> succ_must_wait{park::kWordGranted};
    QNode* prev{nullptr};  // written/read only by the node's owner thread
  };

  // Per-thread context; owns one qnode between locking episodes.
  class Context {
   public:
    Context() : node_(new QNode) {}
    ~Context() { delete node_; }
    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

   private:
    friend class BasicClhLock;
    friend struct VerifyAccess;
    QNode* node_;
  };

  BasicClhLock() : tail_(new QNode) {}
  ~BasicClhLock() { delete tail_.load(std::memory_order_relaxed); }
  BasicClhLock(const BasicClhLock&) = delete;
  BasicClhLock& operator=(const BasicClhLock&) = delete;

  void acquire(Context& ctx) {
    QNode* const I = ctx.node_;
    I->succ_must_wait.store(park::kWordWaiting, std::memory_order_relaxed);
    QNode* const pred = tail_.exchange(I, std::memory_order_acq_rel);
    I->prev = pred;
    park::wait_word(pred->succ_must_wait, &bay_);
  }

  bool release(Context& ctx) {
    QNode* const I = ctx.node_;
    if constexpr (R == kResilient) {
      // A node that was never enqueued (or was already released) has a
      // null prev: unbalanced unlock.
      if (misuse_checks_enabled() && I->prev == nullptr) return false;
    }
    QNode* const pred = I->prev;
    if constexpr (R == kResilient) {
      // Reset before publishing the handoff: once succ_must_wait is
      // false the successor may adopt I, so prev must already be scrubbed
      // (the fix of Figure 7, ordered to stay data-race-free).
      I->prev = nullptr;
    }
    bay_.hand_off(I->succ_must_wait);
    ctx.node_ = pred;  // take ownership of the predecessor's node
    return true;
  }

  // Shield rescue hook; see BasicMcsLock::misuse_wake.
  void misuse_wake() noexcept { bay_.misuse_wake(); }

  std::uint32_t parked_waiters() const noexcept {
    return bay_.parked_count();
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;
  alignas(platform::kCacheLineSize) std::atomic<QNode*> tail_;
  park::ParkBay bay_;
};

using ClhLock = BasicClhLock<kOriginal>;
using ClhLockResilient = BasicClhLock<kResilient>;

}  // namespace resilock
