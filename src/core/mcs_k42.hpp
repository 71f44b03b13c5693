// MCS-K42: the K42 variant of the MCS lock (Auslander et al., US patent
// 2003/0200457; see also M. Scott, "Shared-Memory Synchronization",
// Fig. 4.8). Paper §3.6.
//
// Eliminates the context-passing API of classic MCS: waiters allocate
// their qnodes on their own stacks, and the lock keeps both a tail and a
// head pointer inside its own embedded node `q_`:
//   q_.tail : null = free; &q_ = held with no waiters; otherwise = last
//             waiter's stack node.
//   q_.next : head of the waiter list (first waiter) or null.
// A granted thread migrates the queue head out of its stack node before
// entering the critical section, so its frame can be popped safely.
//
// Unbalanced-unlock behavior (original), per §3.6:
//   * lock free            -> Tm fails the tail CAS and spins on q_.next
//                             forever: Tm starves.
//   * held, no waiters     -> Tm's CAS(&q_ -> null) succeeds; the lock
//                             looks free while the holder is inside:
//                             mutex violation; the real holder's own
//                             release later spins forever: any thread
//                             starvation.
//   * held, with waiters   -> Tm grants the head waiter: mutex violation;
//                             racy double releases can then write to a
//                             stack frame that was already popped: stack
//                             corruption.
//
// Resilient fix: the paper sketches re-purposing the qnode fields to
// store the owner's PID (head-as-PID with a discriminating tag bit when
// there are no waiters, the locked field while there are) and omits the
// details for space (§3.6). We ship the straightforward realization — a
// dedicated owner-PID word checked at release — which trades one word of
// footprint (the §2.3 discussion) for the same functional guarantee:
// release() by a non-owner is detected and suppressed before any queue
// state is touched.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

template <Resilience R>
class BasicMcsK42Lock {
  struct Node;
  // Sentinel "still waiting" value for a waiter's status field.
  static Node* waiting_sentinel() {
    return reinterpret_cast<Node*>(std::uintptr_t{1});
  }

  struct alignas(platform::kCacheLineSize) Node {
    // In the lock's embedded node: the queue tail. In a waiter's stack
    // node: the grant status (waiting_sentinel() until granted).
    std::atomic<Node*> tail{nullptr};
    // In the lock's embedded node: the queue head. In a waiter's node:
    // the successor link.
    std::atomic<Node*> next{nullptr};
  };

  static constexpr std::uint32_t kNoOwner = 0;

 public:
  BasicMcsK42Lock() = default;
  BasicMcsK42Lock(const BasicMcsK42Lock&) = delete;
  BasicMcsK42Lock& operator=(const BasicMcsK42Lock&) = delete;

  void acquire() {
    platform::SpinWait w;
    for (;;) {
      Node* prev = q_.tail.load(std::memory_order_acquire);
      if (prev == nullptr) {
        // Lock appears free: try to take it uncontended.
        if (q_.tail.compare_exchange_weak(prev, &q_,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
          set_owner();
          return;
        }
        continue;
      }
      // Lock held: enqueue a stack node.
      Node me;
      me.tail.store(waiting_sentinel(), std::memory_order_relaxed);
      me.next.store(nullptr, std::memory_order_relaxed);
      if (!q_.tail.compare_exchange_weak(prev, &me,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        continue;  // tail moved; retry from scratch
      }
      // Link ourselves as our predecessor's successor (the lock's own
      // node doubles as the predecessor when we are the first waiter).
      if (prev == &q_) {
        q_.next.store(&me, std::memory_order_release);
      } else {
        prev->next.store(&me, std::memory_order_release);
      }
      while (me.tail.load(std::memory_order_acquire) == waiting_sentinel())
        w.pause();
      // Granted. Migrate the head out of our stack frame.
      Node* succ = me.next.load(std::memory_order_acquire);
      if (succ == nullptr) {
        q_.next.store(nullptr, std::memory_order_relaxed);
        Node* expected = &me;
        if (!q_.tail.compare_exchange_strong(expected, &q_,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
          // Someone is enqueuing behind us; wait for the link.
          while ((succ = me.next.load(std::memory_order_acquire)) == nullptr)
            w.pause();
          q_.next.store(succ, std::memory_order_release);
        }
      } else {
        q_.next.store(succ, std::memory_order_release);
      }
      set_owner();
      return;
    }
  }

  bool try_acquire() {
    Node* expected = nullptr;
    if (q_.tail.compare_exchange_strong(expected, &q_,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      set_owner();
      return true;
    }
    return false;
  }

  bool release() {
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;  // before the load
        if (owner_.load(std::memory_order_relaxed) != me) {
          return false;  // unbalanced unlock detected; state untouched
        }
      }
      owner_.store(kNoOwner, std::memory_order_relaxed);
    }
    Node* succ = q_.next.load(std::memory_order_acquire);
    if (succ == nullptr) {
      Node* expected = &q_;
      if (q_.tail.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        return true;  // no waiters; lock is now free
      }
      // A waiter is mid-enqueue; wait for the head to materialize.
      platform::SpinWait w;
      while ((succ = q_.next.load(std::memory_order_acquire)) == nullptr)
        w.pause();
    }
    succ->tail.store(nullptr, std::memory_order_release);  // grant
    return true;
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  void set_owner() {
    if constexpr (R == kResilient) {
      owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    }
  }

  struct Empty {};
  Node q_;
  [[no_unique_address]] std::conditional_t<R == kResilient,
                                           std::atomic<std::uint32_t>, Empty>
      owner_{};
};

using McsK42Lock = BasicMcsK42Lock<kOriginal>;
using McsK42LockResilient = BasicMcsK42Lock<kResilient>;

}  // namespace resilock
