// Partitioned ticket lock (Dice, SPAA 2011 brief announcement).
// Substrate for the C-RW-NP reader-writer lock (paper §4), whose cohort
// lock is C-PTK-TKT: a *global partitioned ticket lock* over node-level
// ticket locks.
//
// A ticket lock whose grant variable is partitioned over a small array of
// cache lines: waiter t spins on grants[t mod S], so at most (waiters/S)
// threads share a spin line instead of all of them. The holder's ticket
// is stored in the lock (not in the thread), which gives the lock the
// thread-oblivious release that a cohort global lock must have
// (Dice et al. 2012, property (a)).
//
// Misuse behavior and remedy are those of the ticket lock (§3.2): the
// resilient flavor adds the PID field checked at release.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

template <Resilience R>
class BasicPartitionedTicketLock {
  static constexpr std::uint32_t kNoOwner = 0;

 public:
  explicit BasicPartitionedTicketLock(std::uint32_t partitions = 16)
      : mask_(round_up_pow2(partitions) - 1),
        grants_(std::make_unique<
                platform::CacheLineAligned<std::atomic<std::uint64_t>>[]>(
            mask_ + 1)) {
    for (std::uint32_t i = 0; i <= mask_; ++i)
      grants_[i].value.store(0, std::memory_order_relaxed);
    // Ticket 0 proceeds immediately: grants[0] == 0 already.
  }

  BasicPartitionedTicketLock(const BasicPartitionedTicketLock&) = delete;
  BasicPartitionedTicketLock& operator=(const BasicPartitionedTicketLock&) =
      delete;

  void acquire() {
    const std::uint64_t t = next_ticket_.fetch_add(1,
                                                   std::memory_order_relaxed);
    auto& slot = grants_[t & mask_].value;
    platform::SpinWait w;
    while (slot.load(std::memory_order_acquire) != t) w.pause();
    // The holder's ticket lives in the lock so any thread may release
    // (cohort property (a)); only the holder writes it.
    holder_ticket_.store(t, std::memory_order_relaxed);
    if constexpr (R == kResilient) {
      owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    }
  }

  // A ticket is claimable without waiting only while its grant slot
  // already shows it being served: CAS the dispenser forward iff the
  // next ticket would be granted immediately. A lost CAS means another
  // thread took that ticket first — EBUSY, faithfully.
  bool try_acquire() {
    std::uint64_t t = next_ticket_.load(std::memory_order_acquire);
    if (grants_[t & mask_].value.load(std::memory_order_acquire) != t) {
      return false;
    }
    if (!next_ticket_.compare_exchange_strong(t, t + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      return false;
    }
    holder_ticket_.store(t, std::memory_order_relaxed);
    if constexpr (R == kResilient) {
      owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    }
    return true;
  }

  bool release() {
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;  // before the load
        if (owner_.load(std::memory_order_relaxed) != me) return false;
      }
      owner_.store(kNoOwner, std::memory_order_relaxed);
    }
    return release_thread_oblivious();
  }

  // Release without the ownership check: used by the cohort combinator,
  // where the releasing thread legitimately differs from the acquirer.
  bool release_thread_oblivious() {
    const std::uint64_t t = holder_ticket_.load(std::memory_order_relaxed);
    grants_[(t + 1) & mask_].value.store(t + 1, std::memory_order_release);
    return true;
  }

  bool has_waiters() const {
    return next_ticket_.load(std::memory_order_relaxed) >
           holder_ticket_.load(std::memory_order_relaxed) + 1;
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  static std::uint32_t round_up_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  struct Empty {};
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t> next_ticket_{0};
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t>
      holder_ticket_{~std::uint64_t{0}};
  const std::uint32_t mask_;
  std::unique_ptr<platform::CacheLineAligned<std::atomic<std::uint64_t>>[]>
      grants_;
  [[no_unique_address]] std::conditional_t<R == kResilient,
                                           std::atomic<std::uint32_t>, Empty>
      owner_{};
};

using PartitionedTicketLock = BasicPartitionedTicketLock<kOriginal>;
using PartitionedTicketLockResilient = BasicPartitionedTicketLock<kResilient>;

}  // namespace resilock
