// RwShield<L>: the mode-aware ownership shield for the reader-writer
// family (core/rw/crw.hpp).
//
// Shield<L> models every acquisition as exclusive; a C-RW lock breaks
// that assumption in both directions — read holds coexist, and the
// paper's §4 analysis shows the R side's misuse (RUnlock without RLock)
// is *undetectable inside the protocol* for every compact ReadIndicator:
// the indicator counts without identity, so a bogus depart silently
// skews it forever (readers and writers co-resident in the CS, then
// writer starvation). RwShield solves that open problem the same way
// the exclusive shield solved unbalanced unlock: ownership tracking in
// FRONT of the protocol. The per-thread held-record entry carries the
// AccessMode of the hold, so the shield can intercept, before the
// indicator or the cohort lock can be corrupted:
//
//   runlock while not holding        -> kUnbalancedReadUnlock
//   runlock while holding WRITE      -> kRwModeMismatch
//   wunlock while holding READ       -> kRwModeMismatch
//   wunlock while not holding        -> kNonOwnerWriteUnlock when
//       another thread write-holds; kDoubleUnlock when the caller was
//       the previous writer; kUnbalancedUnlock otherwise
//   rlock  while holding READ        -> kReentrantRelock (absorbed as a
//       recursion-depth bump — pthread read locks are recursive; the
//       checked indicator would refuse the double arrive)
//   wlock  while holding WRITE       -> kReentrantRelock (absorbed)
//   rlock  while holding WRITE       -> kRwModeMismatch (absorbed: a
//       write hold already implies read permission)
//   wlock  while holding READ        -> kRwModeMismatch (absorbed: a
//       passthrough upgrade self-deadlocks — the writer spins on an
//       indicator that contains the caller itself)
//
// RwShield is the read/write user of ShieldCore (shield_core.hpp), the
// pipeline it shares with Shield<L>: verdicts, lockdep, lockstat,
// spans, the contended-wait bracket and the rescue wake run there. The
// rw contention signal is live blocked writers PLUS the ReadIndicator's
// reader estimate. Lockdep sees read acquisitions as AccessMode::kRead
// and write acquisitions as kWrite, so R–R dependencies are edge-free
// and only write-involved orders can flag inversions. The lockdep class
// is registered SHARED (one class, many concurrent reader "owners"): a
// per-class hand-off epoch, which marks the end of one owner's hold,
// cannot describe a read-held lock, so the lockdep part of an rw entry
// carries none.
//
// The §5 escape hatch is honored: with misuse_checks_enabled() == false
// every call forwards verbatim (a balanced release still drops the
// caller's own entry on the way through).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/access_mode.hpp"
#include "platform/cacheline.hpp"
#include "response/response.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/policy.hpp"
#include "shield/shield_core.hpp"

namespace resilock::shield {

struct RwShieldSnapshot {
  std::uint64_t read_acquisitions = 0;   // base rlock grants
  std::uint64_t write_acquisitions = 0;  // base wlock grants
  std::uint64_t read_releases = 0;       // balanced runlocks (incl. absorbed)
  std::uint64_t write_releases = 0;      // balanced wunlocks (incl. absorbed)
  std::uint64_t absorbed = 0;            // acquire-side depth bumps
  std::uint64_t suppressed = 0;          // misuses swallowed by verdict
  std::uint64_t passed_through = 0;      // misuses forwarded to the base
  // Indexed by response::ResponseEvent value; only the misuse kinds
  // (0..3 and 6..8) are ever bumped.
  std::uint64_t misuse[response::kResponseEvents] = {};

  std::uint64_t count(response::ResponseEvent e) const {
    return misuse[static_cast<std::size_t>(e)];
  }
  std::uint64_t total_misuses() const {
    std::uint64_t t = 0;
    for (auto m : misuse) t += m;
    return t;
  }
};

template <typename Base>
class RwShield : public ShieldCore<Base, typename Base::Context> {
  using Core = ShieldCore<Base, typename Base::Context>;
  using Core::base_;
  using Core::acquisitions_;
  using Core::counters_;
  using Core::owner_;
  using Core::releases_;
  using Event = response::ResponseEvent;

 public:
  using Context = typename Core::Context;

  RwShield() : Core(setup()) {}

  // Per-instance policy override plus perfect forwarding to the base
  // (topology-aware rw locks take their Topology through here). An
  // explicit policy always wins over RESILOCK_POLICY rules.
  template <typename... Args>
  explicit RwShield(ShieldPolicy policy, Args&&... args)
      : Core(setup(policy), std::forward<Args>(args)...) {}

  template <typename First, typename... Rest,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<First>, ShieldPolicy> &&
                !std::is_same_v<std::decay_t<First>, RwShield>>>
  explicit RwShield(First&& first, Rest&&... rest)
      : Core(setup(), std::forward<First>(first),
             std::forward<Rest>(rest)...) {}

  // Acquire entry points. A trylock cannot block, so it adds NO lockdep
  // order edges — only the held-set entry on success; the reentrant and
  // mode-mismatch interceptions behave exactly as on the blocking paths.
  void rlock(Context& ctx) {
    lock<AccessMode::kRead>(ctx, RESILOCK_SHIELD_SITE());
  }
  void wlock(Context& ctx) {
    lock<AccessMode::kWrite>(ctx, RESILOCK_SHIELD_SITE());
  }
  bool try_rlock(Context& ctx)
    requires requires(Base& b, Context& c) { b.try_rlock(c); }
  {
    return try_lock<AccessMode::kRead>(ctx, RESILOCK_SHIELD_SITE());
  }
  bool try_wlock(Context& ctx)
    requires requires(Base& b, Context& c) { b.try_wlock(c); }
  {
    return try_lock<AccessMode::kWrite>(ctx, RESILOCK_SHIELD_SITE());
  }

  // Returns false iff a misuse was intercepted (or detected by the
  // base) and suppressed — EPERM semantics, like Shield::release.
  bool runlock(Context& ctx) {
    auto& tbl = HeldLockTable::mine();
    return release<AccessMode::kRead>(tbl, tbl.find_held(this), ctx);
  }

  bool wunlock(Context& ctx) {
    auto& tbl = HeldLockTable::mine();
    return release<AccessMode::kWrite>(tbl, tbl.find_held(this), ctx);
  }

  // pthread_rwlock_unlock semantics: one entry point, the held record
  // (not the caller) decides which side to release. This is the API the
  // interpose shim routes pthread_rwlock_unlock through — the mode tag
  // is what makes the single-unlock contract implementable.
  bool unlock(Context& ctx) {
    if (!misuse_checks_enabled()) {
      // Without the record's word, fall back to the write-owner tag;
      // the side entry points own the escape-hatch forwarding.
      return owner_.load(std::memory_order_relaxed) != Core::kNoOwner
                 ? wunlock(ctx)
                 : runlock(ctx);
    }
    auto& tbl = HeldLockTable::mine();
    if (HeldLockTable::Hold* h = tbl.find_held(this)) {
      return h->mode == AccessMode::kWrite
                 ? release<AccessMode::kWrite>(tbl, h, ctx)
                 : release<AccessMode::kRead>(tbl, h, ctx);
    }
    // Not held at all: classify on the write side (the read side has
    // no ownership to misattribute) and suppress/forward per verdict.
    if (this->refuse_release(this->classify_release(), AccessMode::kWrite)) {
      return false;
    }
    return base_.runlock(ctx);  // faithful: behaves like a bogus depart
  }

  // -- telemetry -------------------------------------------------------
  RwShieldSnapshot snapshot() const {
    RwShieldSnapshot s;
    for (const auto& stripe : read_) {
      s.read_acquisitions += stripe.acqs.read();
      s.read_releases += stripe.releases.read();
    }
    s.write_acquisitions = acquisitions_.read();
    s.write_releases = releases_.read();
    s.absorbed = counters_.read(ShieldCounters::kAbsorbed);
    s.suppressed = counters_.read(ShieldCounters::kSuppressed);
    s.passed_through = counters_.read(ShieldCounters::kPassedThrough);
    for (std::size_t i = 0; i < response::kResponseEvents; ++i) {
      s.misuse[i] = counters_.misuse(i);
    }
    return s;
  }

  // The indicator's reader estimate — with waiters() (blocked writers),
  // the rw "stake" the engine escalates on.
  using Core::readers;

 private:
  static ShieldSetup setup(std::optional<ShieldPolicy> policy = {}) {
    return {.classes = ClassMode::kShared,
            .policy = policy,
            .label = "rw-shield"};
  }

  template <AccessMode M>
  void lock(Context& ctx, const void* site) {
    auto& tbl = HeldLockTable::mine();
    // Freshness reflects the record, not the policy outcome: a
    // forwarded (passthrough or §5-disabled) re-acquire must neither
    // bump the depth nor give the entry a second lockdep part.
    HeldLockTable::Hold* h = tbl.find_held(this);
    if (h != nullptr && this->absorb_reacquire(*h, M)) return;
    // A reader blocks only behind a writer; a writer also behind
    // readers inside the CS.
    bool contended = owner_.load(std::memory_order_relaxed) != Core::kNoOwner;
    if constexpr (M == AccessMode::kWrite) {
      contended = contended || !base_.indicator().is_empty();
    }
    this->acquire_base(tbl, M, ctx, h == nullptr, contended, site, [&] {
      if constexpr (M == AccessMode::kRead) {
        base_.rlock(ctx);
      } else {
        base_.wlock(ctx);
      }
    });
    if constexpr (M == AccessMode::kRead) {
      read_stripe(tbl).acqs.bump();
    }
  }

  template <AccessMode M>
  bool try_lock(Context& ctx, const void* site) {
    auto& tbl = HeldLockTable::mine();
    HeldLockTable::Hold* h = tbl.find_held(this);  // see lock()
    if (h != nullptr && this->absorb_reacquire(*h, M)) return true;
    bool granted;
    if constexpr (M == AccessMode::kRead) {
      granted = base_.try_rlock(ctx);
    } else {
      granted = base_.try_wlock(ctx);
    }
    if (!granted) return this->trylock_failed();
    this->note_acquired(tbl, M, ctx, h == nullptr, site);
    if constexpr (M == AccessMode::kRead) {
      read_stripe(tbl).acqs.bump();
    }
    return true;
  }

  // One release of side M, given the thread's held entry `h` (nullptr:
  // not held). The balanced release is the fast path: the one lookup
  // the caller made decides everything, and only the cold branches
  // (absorbed depth, misuse, §5 escape hatch) consult any global flag.
  template <AccessMode M>
  bool release(HeldLockTable& tbl, HeldLockTable::Hold* h, Context& ctx) {
    if (h != nullptr && h->mode == M) {
      if constexpr (M == AccessMode::kRead) {
        read_stripe(tbl).releases.bump();
      } else {
        releases_.bump();
      }
      if (--h->depth > 0) {
        // Matching release of an absorbed recursion — unless the §5
        // escape hatch is open, in which case every call forwards to
        // the base verbatim (the caller asked for raw behavior).
        if (misuse_checks_enabled()) return true;
        return base_release<M>(ctx);
      }
      return base_release<M>(this->note_released(tbl, *h, M, ctx));
    }
    if (!misuse_checks_enabled()) {
      // §5 escape hatch: trust the caller, forward verbatim. The
      // not-held/wrong-mode entry is left as-is: a cross-thread
      // hand-off is the acquirer's entry to shed, not ours. A write
      // release also clears the owner tag, so unlock() routes sanely.
      if constexpr (M == AccessMode::kWrite) this->forget_owner();
      return base_release<M>(ctx);
    }
    // Read side, not held: the §4 headline, depart-without-arrive,
    // intercepted before the indicator can skew — even indicators that
    // cannot detect it. Write side, not held: a release by a
    // non-holder. Held under the other mode: a mode mismatch, charged
    // to the mode actually held.
    const bool refused =
        h != nullptr
            ? this->refuse_release(Event::kRwModeMismatch, h->mode)
        : M == AccessMode::kRead
            ? this->refuse_release(Event::kUnbalancedReadUnlock,
                                   AccessMode::kRead)
            : this->refuse_release(this->classify_release(),
                                   AccessMode::kWrite);
    if (refused) return false;
    return base_release<M>(ctx);  // kPassthrough: corrupt faithfully
  }

  template <AccessMode M>
  bool base_release(Context& ctx) {
    if constexpr (M == AccessMode::kRead) {
      return base_.runlock(ctx);
    } else {
      return base_.wunlock(ctx);
    }
  }

  // The read-side tallies are the only per-op counters on a path that
  // can be nearly free (reader-pref rlock is two RMWs); a single shared
  // counter would double the bounced lines and blow the 2x budget, so
  // they stripe by thread and bump with a plain load+store (Tally)
  // instead of a fetch_add — an atomic RMW costs more than the whole
  // bare read acquisition on some hosts. Nothing orders concurrent
  // readers, so a stripe collision can lose the odd increment; these
  // are telemetry-grade tallies (the misuse counters, which protection
  // decisions read, stay exact RMWs).
  static constexpr std::size_t kStripes = 8;

  struct alignas(platform::kCacheLineSize) ReadStripe {
    Tally acqs;
    Tally releases;
  };

  // Stripe selection hashes the calling thread's (already fetched)
  // held-record address instead of self_pid(): one TLS object per
  // thread, no out-of-line pid lookup on the read fast path. The low
  // ~12 bits of a TLS address are the offset WITHIN the thread's TLS
  // block and identical across glibc worker threads — only the block
  // bases differ, at page-or-larger spacing — so the hash mixes the
  // page-and-up bits.
  ReadStripe& read_stripe(const HeldLockTable& tbl) {
    const auto h = reinterpret_cast<std::uintptr_t>(&tbl);
    return read_[((h >> 12) ^ (h >> 18)) & (kStripes - 1)];
  }

  ReadStripe read_[kStripes];
};

}  // namespace resilock::shield

namespace resilock {
using shield::RwShield;
using shield::RwShieldSnapshot;
}  // namespace resilock
