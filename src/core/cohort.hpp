// Lock cohorting (Dice, Marathe & Shavit, PPoPP 2012). Paper §3.8.4.
//
// Combines a global lock G with one local lock S per NUMA domain.
// Requirements (Dice et al.): (a) G tolerates release by a thread other
// than the acquirer; (b) S has the *cohort detection* property — the
// holder can tell whether other local threads are waiting.
//
// Protocol: acquire the local lock; if the previous local holder left the
// global lock with the cohort (top_granted), the global lock is inherited
// for free; otherwise acquire it. On release, if local waiters exist and
// the passing budget is not exhausted, leave the global lock with the
// cohort and just release the local lock; otherwise release the global
// lock first and then the local lock.
//
// Unbalanced-unlock behavior (original): exactly the local lock's
// behavior (§3.8.4 — "these locks suffer from the issues of the
// corresponding locks used at the local level").
//
// Resilient fix (paper §3.8.4): reuse the local lock's remedy. The
// cohort release consults the local lock's ownership check *before*
// touching the global lock, so a misuse leaves both levels untouched.
//
// Lockdep attribution: the combinator annotates its internal locks
// with one shared LockClassKey per LEVEL ("cohort.local",
// "cohort.global") so that application code acquiring other locks
// while a cohort lock is held gets its order edges attributed to the
// right level — and a cross-level inversion in app code names the
// level, not an anonymous pointer. The combinator's own local→global
// nesting is edge-free (the global attempt passes the local class as
// skip_src): the internal protocol order is the combinator's invariant,
// recording it would let a legal app-level "held global of A, acquire
// local of B" edge close a false cycle against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/generic.hpp"
#include "core/mcs.hpp"
#include "core/partitioned_ticket.hpp"
#include "core/resilience.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "core/verify_access.hpp"
#include "lockdep/class_key.hpp"
#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"
#include "platform/topology.hpp"

namespace resilock {

// One shared lockdep class per cohort level, across every cohort
// instantiation: app-level inversions involving cohort internals are
// reported against these names.
inline lockdep::LockClassKey& cohort_local_class_key() {
  static lockdep::LockClassKey key("cohort.local");
  return key;
}
inline lockdep::LockClassKey& cohort_global_class_key() {
  static lockdep::LockClassKey key("cohort.global");
  return key;
}

// TATAS+backoff local lock augmented with a waiter count, giving the BO
// lock the cohort detection property it natively lacks (Dice et al. use a
// successor-exists flag; a counter is the same signal without the reset
// subtleties).
template <Resilience R>
class BoCohortLocal {
 public:
  void acquire() {
    if (!base_.try_acquire()) {
      waiters_.fetch_add(1, std::memory_order_relaxed);
      base_.acquire();
      waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  bool try_acquire() { return base_.try_acquire(); }

  bool release() { return base_.release(); }

  bool has_waiters() const {
    return waiters_.load(std::memory_order_relaxed) > 0;
  }

  bool owned_by_caller() const {
    if constexpr (R == kResilient) {
      return base_.is_locked_by_self();
    } else {
      return true;
    }
  }

 private:
  friend struct VerifyAccess;
  BasicTasLock<R, TasVariant::kBackoff> base_;
  std::atomic<std::int32_t> waiters_{0};
};

template <Resilience R, typename GlobalLock, typename LocalLock>
class CohortLock {
 public:
  class Context {
   public:
    Context() = default;
    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

   private:
    friend class CohortLock;
    friend struct VerifyAccess;
    context_of_t<LocalLock> local_;
  };

  explicit CohortLock(
      const platform::Topology& topo = platform::Topology::host_default(),
      std::uint32_t max_passes = 64)
      : topo_(topo), max_passes_(max_passes) {
    domains_.reserve(topo.num_domains());
    for (std::uint32_t d = 0; d < topo.num_domains(); ++d)
      domains_.push_back(std::make_unique<Domain>());
  }

  CohortLock(const CohortLock&) = delete;
  CohortLock& operator=(const CohortLock&) = delete;

  void acquire(Context& ctx) {
    Domain& d = *domains_[topo_.domain_of(platform::self_pid())];
    const bool dep = lockdep::lockdep_enabled();
    lockdep::ClassId local_cls = lockdep::kInvalidClass;
    if (dep) {
      local_cls = cohort_local_class_key().ensure();
      // Edges from app-held locks to the local level; attribution is
      // per level, so every cohort's local lands in one class.
      lockdep::on_acquire_attempt(&d.local, local_cls);
    }
    generic_acquire(d.local, ctx.local_);
    if (dep) lockdep::on_acquired(&d.local, local_cls);
    // Did the previous local holder leave the global lock with us?
    if (d.top_granted.load(std::memory_order_acquire)) {
      d.top_granted.store(false, std::memory_order_relaxed);
      // Inherited, not acquired — no blocking attempt, no edges — but
      // this thread now logically HOLDS the global level.
      if (dep) {
        lockdep::on_acquired(&global_, cohort_global_class_key().ensure());
      }
      return;  // global lock inherited
    }
    if (dep) {
      // skip_src = the local class: the combinator's own local→global
      // nesting stays edge-free (see the header comment); app-held
      // locks still source their edges to the global level.
      lockdep::on_acquire_attempt(&global_,
                                  cohort_global_class_key().ensure(), 0,
                                  false, AccessMode::kExclusive,
                                  local_cls);
    }
    generic_acquire(global_, d.global_ctx);
    if (dep) {
      lockdep::on_acquired(&global_, cohort_global_class_key().ensure());
    }
  }

  // Non-blocking acquire of BOTH levels, for trylock-shaped callers
  // (the C-RW trylock paths): the local level is tried first, an
  // inherited global grant is honored, and a failed global try rolls
  // the local acquisition back — EBUSY leaves no level held. Trylocks
  // add no lockdep order edges (they cannot wedge), but a successful
  // try still enters the held set at both levels.
  bool try_acquire(Context& ctx)
    requires(generic_has_trylock<GlobalLock>() &&
             generic_has_trylock<LocalLock>())
  {
    Domain& d = *domains_[topo_.domain_of(platform::self_pid())];
    if (!generic_try_acquire(d.local, ctx.local_)) return false;
    const bool dep = lockdep::lockdep_enabled();
    if (d.top_granted.load(std::memory_order_acquire)) {
      d.top_granted.store(false, std::memory_order_relaxed);
    } else if (!generic_try_acquire(global_, d.global_ctx)) {
      generic_release(d.local, ctx.local_);
      return false;
    }
    if (dep) {
      lockdep::on_acquired(&d.local, cohort_local_class_key().ensure());
      lockdep::on_acquired(&global_, cohort_global_class_key().ensure());
    }
    return true;
  }

  bool release(Context& ctx) {
    Domain& d = *domains_[topo_.domain_of(platform::self_pid())];
    if constexpr (R == kResilient) {
      // The paper's remedy: reuse the local lock's detection — and do it
      // before the global lock can be corrupted.
      if (misuse_checks_enabled() &&
          !generic_owned_by_caller(d.local, ctx.local_)) {
        return false;  // refused: the caller's held set is unchanged
      }
    }
    // The caller stops holding both levels whether the global is
    // passed to the cohort or released for real. Not gated on
    // lockdep_enabled(): level entries recorded while tracking was on
    // must come off regardless (no-ops when never recorded).
    lockdep::on_released(&global_);
    lockdep::on_released(&d.local);
    if (generic_has_waiters(d.local, ctx.local_) &&
        d.pass_count < max_passes_) {
      ++d.pass_count;  // guarded by the local lock
      d.top_granted.store(true, std::memory_order_release);
      return generic_release(d.local, ctx.local_);
    }
    d.pass_count = 0;
    release_global(d);
    return generic_release(d.local, ctx.local_);
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  struct alignas(platform::kCacheLineSize) Domain {
    LocalLock local;
    std::atomic<bool> top_granted{false};
    std::uint32_t pass_count{0};  // written only while holding `local`
    [[no_unique_address]] context_of_t<GlobalLock> global_ctx{};
  };

  void release_global(Domain& d) {
    // The global release may legitimately run on a different thread than
    // the global acquire (cohort property (a)); use the thread-oblivious
    // entry point where the lock distinguishes one.
    if constexpr (requires(GlobalLock& g) { g.release_thread_oblivious(); }) {
      global_.release_thread_oblivious();
    } else {
      generic_release(global_, d.global_ctx);
    }
  }

  platform::Topology topo_;  // by value: 8 bytes, no lifetime coupling
  const std::uint32_t max_passes_;
  GlobalLock global_;
  std::vector<std::unique_ptr<Domain>> domains_;
};

// The cohort-lock menagerie of §3.8.4. The global lock is always the
// original flavor: its release is executed by cohort handoff and must
// stay thread-oblivious; the paper's fix targets the local lock, where
// every cohort release begins.
template <Resilience R>
using CBoBoLock =
    CohortLock<R, BasicTasLock<kOriginal, TasVariant::kBackoff>,
               BoCohortLocal<R>>;
template <Resilience R>
using CTktTktLock = CohortLock<R, TicketLock, BasicTicketLock<R>>;
template <Resilience R>
using CMcsMcsLock = CohortLock<R, McsLock, BasicMcsLock<R>>;
template <Resilience R>
using CTktMcsLock = CohortLock<R, TicketLock, BasicMcsLock<R>>;
// The C-RW-NP building block: global partitioned ticket over local
// ticket locks (Calciu et al. 2013, §4).
template <Resilience R>
using CPtktTktLock =
    CohortLock<R, PartitionedTicketLock, BasicTicketLock<R>>;

}  // namespace resilock
