// NUMA-aware reader-writer locks: C-RW-NP / C-RW-RP / C-RW-WP
// (Calciu, Dice, Lev, Luchangco, Marathe & Shavit, PPoPP 2013). Paper §4.
//
// Building blocks: a cohort lock (C-PTK-TKT: global partitioned ticket
// over per-domain ticket locks) and a ReadIndicator.
//
// Neutral preference (Figure 10 of the paper):
//   reader: CohortLock.acquire; ReadIndr.arrive; CohortLock.release;
//           <read CS>; ReadIndr.depart
//   writer: CohortLock.acquire; while (!ReadIndr.isEmpty()) pause;
//           <write CS>; CohortLock.release
//
// Reader preference: readers skip the cohort lock entirely and only back
// out while a writer is *active*; writers may starve. Writer preference:
// readers defer to *pending* writers; readers may starve. Both reuse the
// same misuse analysis (§4).
//
// Unbalanced-unlock behavior (§4):
//   * RUnlock without RLock corrupts the ReadIndicator: with one reader
//     and one waiting writer it empties the indicator — reader and writer
//     end up in the CS together (mutex violation) — and the reader's own
//     later depart drives the count negative, so every future writer
//     spins on isEmpty forever (starvation of others).
//   * WUnlock without WLock behaves like the underlying cohort lock.
//
// Resilience (§4): the W side reuses the ticket-lock remedy through the
// cohort lock. The R side is *unsolved in the paper* for the compact
// indicators; instantiating with CheckedReadIndicator (our extension)
// makes RUnlock misuse detectable at the cost of per-thread state.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/cohort.hpp"
#include "core/resilience.hpp"
#include "core/rw/read_indicator.hpp"
#include "core/verify_access.hpp"
#include "park/parking_lot.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"
#include "platform/topology.hpp"
#include "runtime/timer.hpp"

namespace resilock {

enum class RwPreference {
  kNeutral,  // C-RW-NP
  kReader,   // C-RW-RP
  kWriter,   // C-RW-WP
};

// The cohort backing the writer side is a template parameter so the
// protection matrix can drive the C-RW construction over different
// cohort families (C-PTKT-TKT is the paper's choice and the default;
// C-TKT-TKT and C-BO-BO give the ticket- and TAS-local variants).
template <Resilience R, typename ReadIndicator = SplitReadIndicator,
          RwPreference P = RwPreference::kNeutral,
          typename CohortT = CPtktTktLock<R>>
class CrwLock {
  using Cohort = CohortT;

 public:
  using Context = typename Cohort::Context;

  explicit CrwLock(
      const platform::Topology& topo = platform::Topology::host_default())
      : cohort_(topo), indicator_(make_indicator(topo)) {}

  CrwLock(const CrwLock&) = delete;
  CrwLock& operator=(const CrwLock&) = delete;

  void rlock(Context& ctx) {
    if constexpr (P == RwPreference::kNeutral) {
      // Figure 10: readers serialize briefly on the cohort lock, arrive,
      // and release it before entering the CS so readers can overlap.
      cohort_.acquire(ctx);
      indicator_.arrive(platform::self_pid());
      cohort_.release(ctx);
    } else if constexpr (P == RwPreference::kReader) {
      for (;;) {
        indicator_.arrive(platform::self_pid());
        if (!writer_active_.load(std::memory_order_seq_cst)) return;
        indicator_.depart(platform::self_pid());
        read_side_wait([this] {
          return !writer_active_.load(std::memory_order_seq_cst);
        });
      }
    } else {  // writer preference
      for (;;) {
        read_side_wait([this] {
          return writers_pending_.load(std::memory_order_seq_cst) == 0;
        });
        indicator_.arrive(platform::self_pid());
        if (writers_pending_.load(std::memory_order_seq_cst) == 0) return;
        indicator_.depart(platform::self_pid());
      }
    }
  }

  // Returns false iff the indicator detected a misuse (checked indicator
  // only; the compact indicators silently corrupt, as the paper states).
  bool runlock(Context&) { return indicator_.depart(platform::self_pid()); }

  // Non-blocking read acquisition (pthread_rwlock_tryrdlock shape):
  // false means EBUSY and no observable state change — an arrived
  // indicator presence is departed again before returning. Needs a
  // trylock-capable cohort only on the neutral path (readers there
  // serialize briefly on the cohort lock).
  bool try_rlock(Context& ctx)
    requires(generic_has_trylock<Cohort>())
  {
    if constexpr (P == RwPreference::kNeutral) {
      if (!cohort_.try_acquire(ctx)) return false;
      indicator_.arrive(platform::self_pid());
      cohort_.release(ctx);
      return true;
    } else if constexpr (P == RwPreference::kReader) {
      indicator_.arrive(platform::self_pid());
      if (!writer_active_.load(std::memory_order_seq_cst)) return true;
      indicator_.depart(platform::self_pid());
      return false;
    } else {  // writer preference: defer to pending writers, once
      if (writers_pending_.load(std::memory_order_acquire) != 0) {
        return false;
      }
      indicator_.arrive(platform::self_pid());
      if (writers_pending_.load(std::memory_order_seq_cst) == 0) {
        return true;
      }
      indicator_.depart(platform::self_pid());
      return false;
    }
  }

  void wlock(Context& ctx) {
    if constexpr (P == RwPreference::kWriter) {
      writers_pending_.fetch_add(1, std::memory_order_seq_cst);
    }
    cohort_.acquire(ctx);
    if constexpr (R == kResilient) {
      writer_pid_.store(platform::self_pid() + 1,
                        std::memory_order_relaxed);
    }
    if constexpr (P == RwPreference::kReader) {
      writer_active_.store(true, std::memory_order_seq_cst);
    }
    platform::SpinWait w;
    while (!indicator_.is_empty()) w.pause();
  }

  // Non-blocking write acquisition (pthread_rwlock_trywrlock shape):
  // the cohort lock is tried, and a non-empty ReadIndicator — where the
  // blocking wlock would spin — backs the whole acquisition out
  // instead. The WP pending count is raised around the attempt exactly
  // as wlock raises it, so readers observe the same deference window.
  bool try_wlock(Context& ctx)
    requires(generic_has_trylock<Cohort>())
  {
    if constexpr (P == RwPreference::kWriter) {
      writers_pending_.fetch_add(1, std::memory_order_seq_cst);
    }
    if (!cohort_.try_acquire(ctx)) {
      if constexpr (P == RwPreference::kWriter) {
        writers_pending_.fetch_sub(1, std::memory_order_seq_cst);
        // Same barrier as every other pending-count drop: a reader that
        // parked on the raised count must observe this 1->0 transition
        // or it sleeps through the lost epoch bump forever.
        maybe_wake_readers();
      }
      return false;
    }
    if constexpr (P == RwPreference::kReader) {
      writer_active_.store(true, std::memory_order_seq_cst);
    }
    if (!indicator_.is_empty()) {  // readers live: would block — EBUSY
      if constexpr (P == RwPreference::kReader) {
        writer_active_.store(false, std::memory_order_seq_cst);
      }
      cohort_.release(ctx);
      if constexpr (P == RwPreference::kWriter) {
        writers_pending_.fetch_sub(1, std::memory_order_seq_cst);
      }
      // Backed-out barrier: readers parked on the raised flag must
      // re-check, same as a completed wunlock.
      if constexpr (P != RwPreference::kNeutral) maybe_wake_readers();
      return false;
    }
    if constexpr (R == kResilient) {
      writer_pid_.store(platform::self_pid() + 1,
                        std::memory_order_relaxed);
    }
    return true;
  }

  bool wunlock(Context& ctx) {
    if constexpr (R == kResilient) {
      // Ticket-style PID remedy applied at the RW level, so the check
      // happens before any flag (RP barrier, WP pending count) or the
      // cohort lock itself can be corrupted. The pid is claimed before
      // the load (see TasLock::release).
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;
        if (writer_pid_.load(std::memory_order_relaxed) != me) return false;
      }
      writer_pid_.store(0, std::memory_order_relaxed);
    }
    if constexpr (P == RwPreference::kReader) {
      writer_active_.store(false, std::memory_order_seq_cst);
    }
    const bool ok = cohort_.release(ctx);
    if constexpr (P == RwPreference::kWriter) {
      writers_pending_.fetch_sub(1, std::memory_order_seq_cst);
    }
    if constexpr (P != RwPreference::kNeutral) maybe_wake_readers();
    return ok;
  }

  // Shield rescue hook, mirroring BasicTicketLock: an absorbed misuse
  // may have left readers parked on a barrier flag whose owner is gone;
  // bump the epoch and broadcast so they re-evaluate. (The shield core,
  // shield/shield_core.hpp, detects this pair via `requires` and
  // reports waiters_parked in its rescue telemetry.)
  void misuse_wake() noexcept {
    park::ParkStats::instance().misuse_wakes.fetch_add(
        1, std::memory_order_relaxed);
    wake_all_readers();
  }

  std::uint32_t parked_waiters() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  ReadIndicator& indicator() { return indicator_; }
  const ReadIndicator& indicator() const { return indicator_; }
  static constexpr Resilience resilience() { return R; }
  static constexpr RwPreference preference() { return P; }

 private:
  friend struct VerifyAccess;

  // Read-side barrier wait with futex parking (RP: writer_active_; WP:
  // writers_pending_). The ticket lock's epoch scheme transplants
  // directly — there is no per-waiter node to futex on, so waiters
  // sleep on a shared epoch word and every barrier drop broadcast-
  // wakes; `clear` must load its flag seq_cst so the registration in
  // parked_ (seq_cst) and the releaser's flag-store/fence/parked_-check
  // form the Dekker pairing that keeps a parker from slipping between
  // the store and the wake decision.
  template <typename Clear>
  void read_side_wait(Clear&& clear) {
    platform::SpinWait w;
    const std::uint32_t budget = park::park_spins();
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (clear()) return;
      w.pause();
    }
    if (!park::parking_enabled()) {
      while (!clear()) w.pause();
      return;
    }
    park::ParkStats& g = park::ParkStats::instance();
    park::ThreadParkTally& tally = park::ThreadParkTally::mine();
    for (;;) {
      // Epoch sample BEFORE the barrier re-check: a wunlock landing
      // after the re-check has already bumped past the sampled epoch,
      // so the futex_wait refuses to sleep.
      const std::uint32_t e = park_epoch_.load(std::memory_order_acquire);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      if (clear()) {
        parked_.fetch_sub(1, std::memory_order_release);
        return;
      }
      const std::uint64_t t0 = runtime::now_ns();
      g.currently_parked.fetch_add(1, std::memory_order_relaxed);
      const park::WaitResult r =
          park::futex_wait(&park_epoch_, e, nullptr);
      g.currently_parked.fetch_sub(1, std::memory_order_relaxed);
      parked_.fetch_sub(1, std::memory_order_release);
      if (r != park::WaitResult::kValueChanged) {
        tally.parks += 1;
        tally.park_ns += runtime::now_ns() - t0;
        g.parks.fetch_add(1, std::memory_order_relaxed);
      }
      if (clear()) {
        if (r != park::WaitResult::kValueChanged) {
          tally.wakes += 1;
          g.wakes.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      g.wakes_spurious.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Releaser half of the Dekker pairing; cheap when parking is cold.
  void maybe_wake_readers() noexcept {
    if (!park::parking_enabled() &&
        parked_.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0) return;
    wake_all_readers();
  }

  void wake_all_readers() noexcept {
    park_epoch_.fetch_add(1, std::memory_order_release);
    park::futex_wake_all(&park_epoch_);
  }

  static ReadIndicator make_indicator(const platform::Topology& topo) {
    if constexpr (std::is_constructible_v<ReadIndicator,
                                          const platform::Topology&>) {
      return ReadIndicator(topo);
    } else {
      (void)topo;
      return ReadIndicator();
    }
  }

  Cohort cohort_;
  ReadIndicator indicator_;
  // One line for both barrier words: each preference uses only its own
  // (RP: writer_active_, WP: writers_pending_), so they never contend.
  alignas(platform::kCacheLineSize) std::atomic<bool> writer_active_{false};
  std::atomic<std::int32_t> writers_pending_{0};
  alignas(platform::kCacheLineSize) std::atomic<std::uint32_t>
      writer_pid_{0};
  // Read-side park epoch + registered-parker count (see
  // read_side_wait). Own line so parker churn does not bounce the
  // barrier flags above.
  alignas(platform::kCacheLineSize) std::atomic<std::uint32_t>
      park_epoch_{0};
  std::atomic<std::uint32_t> parked_{0};
};

// Aliases for the three variants over the default (split) indicator.
using CrwNpLock = CrwLock<kOriginal, SplitReadIndicator,
                          RwPreference::kNeutral>;
using CrwNpLockResilient =
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kNeutral>;
using CrwRpLock = CrwLock<kOriginal, SplitReadIndicator,
                          RwPreference::kReader>;
using CrwRpLockResilient =
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kReader>;
using CrwWpLock = CrwLock<kOriginal, SplitReadIndicator,
                          RwPreference::kWriter>;
using CrwWpLockResilient =
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kWriter>;
// Fully checked variant: W side by the ticket PID remedy, R side by the
// per-thread presence bits (our extension of §4's open problem).
using CrwNpLockChecked =
    CrwLock<kResilient, CheckedReadIndicator, RwPreference::kNeutral>;

}  // namespace resilock
