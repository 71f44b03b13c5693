// Shield<L>: a lock-agnostic ownership shield around any lock in src/core.
//
// The paper's remedies live *inside* each protocol (one bespoke
// kResilient fix per lock). The shield is the complementary design the
// paper contrasts them with: a generic ownership-tracking layer in front
// of the protocol — glibc's shield_arr approach from the Lock-Bench
// companion repo — that stops unbalanced unlock(), double unlock,
// unlock-by-non-owner, and (non-reentrant) relock *before they reach the
// protocol*. Because the base protocol never observes the misuse, even a
// kOriginal lock behind a shield keeps mutual exclusion and liveness
// under misuse, at the cost of one thread-local table probe per
// operation (the layer ladder's `shield.delta_ns`, perfbench/layers.cpp,
// prices it over the native in-protocol check of resilient MCS).
//
// Shield<L> is the single-mode (kExclusive) user of ShieldCore
// (shield_core.hpp), which runs the whole pipeline: interception,
// verdicts (policy.hpp, response engine), lockdep order edges, lockstat,
// trace records, the contended-wait bracket and the rescue wake. What
// stays here is the exclusive protocol's own call shape and one rule of
// its own: a held-record entry whose owner tag names another thread is
// stale (the lock left through the §5 escape hatch) and self-heals.
//
// Interception map (policy decides the consequence):
//   acquire while already holding  -> kReentrantRelock
//       suppress: absorbed as a recursion-depth bump (the §3.9 reentrant
//       remedy), so the matching release is absorbed too.
//   release while not holding      -> classified by the shield's owner
//       tag: another thread holds it  -> kNonOwnerUnlock
//             nobody holds, caller was the previous owner
//                                     -> kDoubleUnlock
//             otherwise               -> kUnbalancedUnlock
//
// The §5 escape hatch is honored: with misuse_checks_enabled() == false
// (RESILOCK_DISABLE_CHECK=1) the shield forwards everything verbatim, so
// hand-off designs where one thread acquires and another releases work
// exactly as they do on the unshielded lock.
//
// Shield<L> satisfies the same Lockable shape as L (a ContextLock keeps
// its Context), and every shield is also a PlainLock through the lent
// shape, so it composes with LockGuard, AnyLockAdapter, and the
// registry.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/generic.hpp"
#include "core/lock_concepts.hpp"
#include "lockdep/class_key.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/policy.hpp"
#include "shield/shield_core.hpp"
#include "shield/shield_stats.hpp"

namespace resilock::shield {

template <typename Base>
class Shield : public ShieldCore<Base> {
  using Core = ShieldCore<Base>;
  using Core::base_;
  using Core::acquisitions_;
  using Core::counters_;
  using Core::owner_;
  using Core::releases_;

 public:
  using Context = typename Core::Context;

  Shield() : Core({}) {}

  // Per-instance policy override, plus perfect forwarding to the base
  // (topology-aware locks take their Topology through here). An
  // explicit policy always wins over RESILOCK_POLICY rules.
  template <typename... Args>
  explicit Shield(ShieldPolicy policy, Args&&... args)
      : Core({.policy = policy}, std::forward<Args>(args)...) {}

  // Keyed construction (lockdep/class_key.hpp): every shield built
  // against `key` shares one lockdep class — container-level order
  // tracking with one class-table slot. Unkeyed shields keep the
  // per-instance default.
  template <typename... Args>
  explicit Shield(lockdep::LockClassKey& key, Args&&... args)
      : Core({.classes = ClassMode::kKeyed, .key = &key},
             std::forward<Args>(args)...) {}

  template <typename... Args>
  Shield(ShieldPolicy policy, lockdep::LockClassKey& key, Args&&... args)
      : Core({.classes = ClassMode::kKeyed, .key = &key, .policy = policy},
             std::forward<Args>(args)...) {}

  // Base-constructor forwarding with the process-default policy.
  template <typename First, typename... Rest,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<First>, ShieldPolicy> &&
                !std::is_same_v<std::decay_t<First>,
                                lockdep::LockClassKey> &&
                !std::is_same_v<std::decay_t<First>, Shield>>>
  explicit Shield(First&& first, Rest&&... rest)
      : Core({}, std::forward<First>(first), std::forward<Rest>(rest)...) {}

  void acquire(Context& ctx) {
    const void* site = RESILOCK_SHIELD_SITE();
    auto& tbl = HeldLockTable::mine();
    HeldLockTable::Hold* h = confirm_held_or_heal(tbl);
    if (h != nullptr && this->absorb_reacquire(*h, AccessMode::kExclusive)) {
      return;
    }
    const bool contended =
        owner_.load(std::memory_order_relaxed) != Core::kNoOwner;
    this->acquire_base(tbl, AccessMode::kExclusive, ctx, h == nullptr,
                       contended, site, [&] { generic_acquire(base_, ctx); });
  }

  bool try_acquire(Context& ctx)
    requires(generic_has_trylock<Base>())
  {
    const void* site = RESILOCK_SHIELD_SITE();
    auto& tbl = HeldLockTable::mine();
    HeldLockTable::Hold* h = confirm_held_or_heal(tbl);
    if (h != nullptr && this->absorb_reacquire(*h, AccessMode::kExclusive)) {
      return true;
    }
    if (!generic_try_acquire(base_, ctx)) return this->trylock_failed();
    this->note_acquired(tbl, AccessMode::kExclusive, ctx, h == nullptr, site);
    return true;
  }

  bool release(Context& ctx) { return release_with(&ctx); }

  // The lent shape, the type-erased adapter's: no context argument. A
  // hold that reaches the base keeps a context lent from the thread's
  // pool (core/context_pool.hpp) until the release that ends it; an
  // absorbed relock hands it straight back. A release by a thread that
  // holds nothing runs on a never-held context.
  void acquire() {
    Context& ctx = ContextPool<Context>::lend();
    acquire(ctx);
    this->keep_if_taken(ctx);
  }
  bool try_acquire()
    requires(generic_has_trylock<Base>())
  {
    Context& ctx = ContextPool<Context>::lend();
    if (!try_acquire(ctx)) {
      ContextPool<Context>::reclaim(ctx);
      return false;
    }
    this->keep_if_taken(ctx);
    return true;
  }
  bool release() { return release_with(nullptr); }

  ShieldSnapshot snapshot() const {
    ShieldSnapshot s;
    s.acquisitions = acquisitions_.read();
    s.releases = releases_.read();
    s.reentrant_absorbed = counters_.read(ShieldCounters::kAbsorbed);
    s.suppressed = counters_.read(ShieldCounters::kSuppressed);
    s.passed_through = counters_.read(ShieldCounters::kPassedThrough);
    for (std::size_t i = 0; i < kMisuseKinds; ++i) {
      s.misuse[i] = counters_.misuse(i);
    }
    return s;
  }
  void reset_stats() {
    acquisitions_.reset();
    releases_.reset();
    counters_.reset();
  }

 private:
  // `caller` null: the lent shape (see acquire()).
  bool release_with(Context* caller) {
    auto base_release = [this](Context& c) {
      return generic_release(base_, c);
    };
    auto& tbl = HeldLockTable::mine();
    // A stale entry must not release a lock some other thread may now
    // hold: confirm_held_or_heal() treats the call as a release of a
    // lock the thread does not hold.
    if (HeldLockTable::Hold* h = confirm_held_or_heal(tbl)) {
      releases_.bump();
      if (--h->depth > 0) return true;  // matching release of a relock
      return this->release_hold(tbl, *h, AccessMode::kExclusive, caller,
                                base_release);
    }
    if (!misuse_checks_enabled()) {
      // §5 escape hatch: trust the caller and behave like the base.
      this->forget_owner();
      return Core::release_unheld(caller, base_release);
    }
    if (this->refuse_release(this->classify_release(),
                             AccessMode::kExclusive)) {
      return false;  // suppressed
    }
    return Core::release_unheld(caller, base_release);  // faithful
  }

  // The thread's entry for this lock, validated against the owner tag;
  // nullptr when the thread does not hold it. A held entry whose owner
  // tag names someone else means the lock left this thread through the
  // §5 escape hatch — a cross-thread release with checks disabled — so
  // the stale entry self-heals: it is dropped, with its lockdep part
  // and lockstat window, and the call proceeds as from a non-holder.
  HeldLockTable::Hold* confirm_held_or_heal(HeldLockTable& tbl) {
    HeldLockTable::Hold* h = tbl.find_held(this);
    if (h == nullptr ||
        owner_.load(std::memory_order_relaxed) == Core::me()) {
      return h;
    }
    tbl.erase(this, *h);
    return nullptr;
  }
};

}  // namespace resilock::shield

namespace resilock {
// The shield is part of the lock vocabulary: resilock::Shield<L>.
using shield::Shield;
}  // namespace resilock
