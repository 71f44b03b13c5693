// Definition of the VerifyAccess back door declared in
// core/verify_access.hpp. Misuse scenarios need two capabilities that no
// public API should offer:
//   * observation of private protocol state (queue tails, tickets) to
//     script deterministic interleavings, and
//   * surgical repairs ("rescues") that unstick a thread the *original*
//     protocol leaves spinning forever after a misuse, so experiment
//     threads always join. A rescued lock is considered destroyed; no
//     scenario keeps using it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/abql.hpp"
#include "core/clh.hpp"
#include "core/cohort.hpp"
#include "core/graunke_thakkar.hpp"
#include "core/hemlock.hpp"
#include "core/hmcs.hpp"
#include "core/mcs.hpp"
#include "core/mcs_k42.hpp"
#include "core/ticket.hpp"
#include "shield/shield_core.hpp"

namespace resilock {

struct VerifyAccess {
  // ----- Ticket -----
  template <Resilience R>
  static std::uint64_t ticket_next(const BasicTicketLock<R>& l) {
    return l.next_ticket_.load(std::memory_order_acquire);
  }
  template <Resilience R>
  static std::uint64_t ticket_serving(const BasicTicketLock<R>& l) {
    return l.now_serving_.load(std::memory_order_acquire);
  }
  // Rescue: realign nowServing so skipped tickets can proceed. The
  // epoch bump + broadcast covers waiters that parked on the old
  // serving value (a sweep is exactly the "grant without a release"
  // case the parking epoch exists for).
  template <Resilience R>
  static void ticket_force_serving(BasicTicketLock<R>& l, std::uint64_t v) {
    l.now_serving_.store(v, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    l.wake_all_parked();
  }

  // ----- Graunke–Thakkar -----
  // Rescue: toggle a thread's slot so a waiter that missed the flip can
  // proceed.
  template <Resilience R>
  static void gt_toggle_slot(BasicGraunkeThakkarLock<R>& l,
                             std::uint32_t pid) {
    l.slots_[pid % l.size_].value.fetch_xor(1, std::memory_order_acq_rel);
  }

  // ----- MCS -----
  template <Resilience R>
  static typename BasicMcsLock<R>::QNode* mcs_tail(
      const BasicMcsLock<R>& l) {
    return l.tail_.load(std::memory_order_acquire);
  }
  // Rescue: hand a stuck misused release a fake successor.
  template <Resilience R>
  static void mcs_link_successor(typename BasicMcsLock<R>::QNode& stuck,
                                 typename BasicMcsLock<R>::QNode& dummy) {
    stuck.next.store(&dummy, std::memory_order_release);
  }

  // ----- CLH -----
  template <Resilience R>
  static typename BasicClhLock<R>::QNode*& clh_node(
      typename BasicClhLock<R>::Context& ctx) {
    return ctx.node_;
  }
  template <Resilience R>
  static typename BasicClhLock<R>::QNode* clh_tail(
      const BasicClhLock<R>& l) {
    return l.tail_.load(std::memory_order_acquire);
  }
  // Rescue: release a waiter spinning (or parked) on `node` directly.
  // The bay broadcast is load-bearing under aliasing misuse: a
  // double-enqueue's store can trample kWordParked, after which every
  // conditional wake (including this wake_word) skips the futex_wake
  // and a parked waiter would sleep forever.
  template <Resilience R>
  static void clh_force_release(BasicClhLock<R>& l,
                                typename BasicClhLock<R>::QNode* node) {
    park::wake_word(node->succ_must_wait);
    l.misuse_wake();
  }

  // ----- MCS-K42 -----
  template <Resilience R>
  using K42Node = typename BasicMcsK42Lock<R>::Node;
  // Rescue: publish a fake head so a stuck release can grant and return.
  template <Resilience R>
  static void k42_publish_head(BasicMcsK42Lock<R>& l, K42Node<R>& dummy) {
    l.q_.next.store(&dummy, std::memory_order_release);
  }
  template <Resilience R>
  static K42Node<R>* k42_tail(const BasicMcsK42Lock<R>& l) {
    return l.q_.tail.load(std::memory_order_acquire);
  }

  // ----- Hemlock -----
  // The calling thread's grant cell (for rescuing a self-starved Tm:
  // store null to fake a successor's consume).
  static std::atomic<void*>* hemlock_cell_of_current_thread() {
    return &detail::hemlock_self().grant.value;
  }

  // ----- HMCS -----
  template <Resilience R>
  static typename BasicHmcsLock<R>::QNode& hmcs_ctx_node(
      typename BasicHmcsLock<R>::Context& ctx) {
    return ctx.node_;
  }
  template <Resilience R>
  static typename BasicHmcsLock<R>::QNode& hmcs_leaf_node(
      BasicHmcsLock<R>& l, std::uint32_t domain) {
    return l.leaves_[domain]->node;
  }

  // ----- Cohort locks -----
  template <Resilience R, typename G, typename L>
  static L& cohort_local(CohortLock<R, G, L>& c, std::uint32_t domain) {
    return c.domains_[domain].local;
  }
  template <Resilience R, typename G, typename L>
  static G& cohort_global(CohortLock<R, G, L>& c) {
    return c.global_;
  }

  // ----- Shield layout -----
  // Byte offsets of a shield's fields from the start of the shield.
  struct ShieldLayout {
    std::size_t owner, last_owner, hold_ctx, acquisitions, releases;
    std::size_t waiters, policy, class_id, counters;
  };
  template <typename Base, typename Ctx>
  static ShieldLayout shield_layout(const shield::ShieldCore<Base, Ctx>& s) {
    const auto at = [&s](const void* field) {
      return static_cast<std::size_t>(static_cast<const char*>(field) -
                                      reinterpret_cast<const char*>(&s));
    };
    return {at(&s.owner_),        at(&s.last_owner_), at(&s.hold_ctx_),
            at(&s.acquisitions_), at(&s.releases_),   at(&s.contention_),
            at(&s.policy_),       at(&s.lockdep_class_), at(&s.counters_)};
  }
  // Offset of an MCS lock's tail word within it.
  template <Resilience R>
  static std::size_t mcs_tail_offset(const BasicMcsLock<R>& l) {
    return static_cast<std::size_t>(reinterpret_cast<const char*>(&l.tail_) -
                                    reinterpret_cast<const char*>(&l));
  }
};

}  // namespace resilock
