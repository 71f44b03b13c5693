// Test-and-Set family: TAS, TATAS, TATAS with exponential backoff.
// Paper §3.1; protocol from Mellor-Crummey & Scott 1991, §2.
//
// Original protocol: one shared word, UNLOCKED (0) when free. acquire()
// SWAPs LOCKED in until it reads back UNLOCKED; release() unconditionally
// stores UNLOCKED.
//
// Unbalanced-unlock behavior (original): resetting the word while another
// thread holds the lock admits exactly one extra waiter into the critical
// section — N misuses admit at most N extra threads. No starvation is
// introduced (the TAS family never guaranteed starvation freedom anyway).
//
// Resilient fix (paper Figure 2): the lock word stores the owner's
// PID + 1 instead of a boolean, re-purposing the same word (no new field,
// footprint unchanged — §2.3 requirement). acquire() must then use CAS
// instead of SWAP (a blind SWAP would clobber the owner's PID), and
// release() gains one extra load to compare the stored PID with the
// caller's — exactly the deltas whose cost Table 2 measures.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "platform/backoff.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

enum class TasVariant {
  kTas,      // swap in a tight loop
  kTatas,    // read until free, then swap (test-and-test-and-set)
  kBackoff,  // TATAS + bounded exponential backoff between attempts
};

template <Resilience R, TasVariant V = TasVariant::kTatas>
class BasicTasLock {
  static constexpr std::uint32_t kUnlocked = 0;

  // Resilient flavor stores pid+1 so that pid 0 is distinguishable from
  // UNLOCKED; the original flavor stores the constant 1.
  static std::uint32_t self_tag() {
    if constexpr (R == kResilient) {
      return platform::self_pid() + 1;
    } else {
      return 1;
    }
  }

 public:
  BasicTasLock() = default;
  BasicTasLock(const BasicTasLock&) = delete;
  BasicTasLock& operator=(const BasicTasLock&) = delete;

  void acquire() {
    const std::uint32_t tag = self_tag();
    if constexpr (R == kOriginal) {
      // SWAP until we observe UNLOCKED.
      platform::SpinWait w;
      platform::ExponentialBackoff bo;
      while (word_.exchange(tag, std::memory_order_acquire) != kUnlocked) {
        if constexpr (V == TasVariant::kTas) {
          w.pause();
        } else if constexpr (V == TasVariant::kTatas) {
          while (word_.load(std::memory_order_relaxed) != kUnlocked)
            w.pause();
        } else {
          bo.pause();
          while (word_.load(std::memory_order_relaxed) != kUnlocked)
            w.pause();
        }
      }
    } else {
      // CAS(UNLOCKED -> my pid); a SWAP would overwrite the owner's PID.
      platform::SpinWait w;
      platform::ExponentialBackoff bo;
      for (;;) {
        std::uint32_t expected = kUnlocked;
        if (word_.compare_exchange_weak(expected, tag,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          return;
        }
        if constexpr (V == TasVariant::kTas) {
          w.pause();
        } else if constexpr (V == TasVariant::kTatas) {
          while (word_.load(std::memory_order_relaxed) != kUnlocked)
            w.pause();
        } else {
          bo.pause();
          while (word_.load(std::memory_order_relaxed) != kUnlocked)
            w.pause();
        }
      }
    }
  }

  bool try_acquire() {
    std::uint32_t expected = kUnlocked;
    return word_.compare_exchange_strong(expected, self_tag(),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // Returns false iff an unbalanced unlock was detected (resilient only).
  bool release() {
    if constexpr (R == kOriginal) {
      word_.store(kUnlocked, std::memory_order_release);
      return true;
    } else {
      // The extra load the paper charges to the fix: only the thread
      // whose PID is stored may reset the word. The pid is claimed
      // before the load: a thread's first claim can recycle the pid of a
      // holder that exits in between, and that holder's tag may already
      // be in hand.
      if (misuse_checks_enabled()) {
        const std::uint32_t me = self_tag();
        if (word_.load(std::memory_order_relaxed) != me) return false;
      }
      word_.store(kUnlocked, std::memory_order_release);
      return true;
    }
  }

  bool is_locked() const {
    return word_.load(std::memory_order_acquire) != kUnlocked;
  }

  // Ownership query (resilient flavor only — the original lock word
  // cannot identify its holder; it reports true so cohort code compiles
  // uniformly).
  bool is_locked_by_self() const {
    if constexpr (R == kResilient) {
      const std::uint32_t me = self_tag();
      return word_.load(std::memory_order_relaxed) == me;
    } else {
      return true;
    }
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;
  std::atomic<std::uint32_t> word_{kUnlocked};
};

using TasLock = BasicTasLock<kOriginal, TasVariant::kTas>;
using TasLockResilient = BasicTasLock<kResilient, TasVariant::kTas>;
using TatasLock = BasicTasLock<kOriginal, TasVariant::kTatas>;
using TatasLockResilient = BasicTasLock<kResilient, TasVariant::kTatas>;
using TatasBackoffLock = BasicTasLock<kOriginal, TasVariant::kBackoff>;
using TatasBackoffLockResilient = BasicTasLock<kResilient, TasVariant::kBackoff>;

}  // namespace resilock
