// Lamport's fast mutual exclusion algorithms 1 and 2 (Lamport 1987).
// Paper §5 and Appendix Figures 12 & 13.
//
// Algorithm 1 (Figure 12) — two shared words x, y; correct under the same
// timing assumption as Fischer's lock (the <delay>):
//
//   start: <x := i> ;
//          if <y != 0> then goto start fi ;
//          <y := i> ;
//          if <x != i> then delay ;
//             if <y != i> then goto start fi ; fi
//          critical section ;
//          <y := 0>
//
// Algorithm 2 (Figure 13) — adds per-thread flags b[i] and is correct
// without timing assumptions (this is the classic "fast mutex").
//
// Unbalanced-unlock behavior (§5): a misused release writes y := 0 while
// T_i is in the CS; a third thread then sees all gates open and enters —
// mutex violation. It can also overwrite y between T_i's checks, sending
// T_i back to start repeatedly — starvation of another thread.
//
// Resilient fix (Figures 12/13): compare y with the caller's id on exit
// and skip the reset on mismatch. (Figure 13 in the paper prints the
// guard as "if <y = i> then goto exit", with the comparison inverted
// relative to Figure 12; we implement the evident intent, y != i -> do
// not reset, matching Figure 12 and the prose.)
//
// For Algorithm 2, y is not a sound owner test: a contender that read
// y = 0 can write y := j after the owner's fast-path x check, so a
// legitimate owner may hold the lock with y = j. Refusing that release
// would leave b[owner] set for good, and j, on the slow path, waits for
// it forever. The resilient Algorithm 2 therefore compares an owner
// word written on entry to the critical section instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/resilience.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

template <Resilience R>
class BasicLamportFast1Lock {
 public:
  explicit BasicLamportFast1Lock(std::uint32_t delay_spins = 2048)
      : delay_spins_(delay_spins) {}

  void acquire() {
    const std::uint32_t me = platform::self_pid() + 1;
    platform::SpinWait w;
    for (;;) {
      x_.store(me, std::memory_order_seq_cst);
      if (y_.load(std::memory_order_seq_cst) != 0) {
        w.pause();
        continue;  // goto start
      }
      y_.store(me, std::memory_order_seq_cst);
      if (x_.load(std::memory_order_seq_cst) != me) {
        for (std::uint32_t i = 0; i < delay_spins_; ++i)
          platform::cpu_relax();
        if (y_.load(std::memory_order_seq_cst) != me) {
          w.pause();
          continue;  // goto start
        }
      }
      return;
    }
  }

  bool release() {
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;  // before the load
        if (y_.load(std::memory_order_seq_cst) != me) {
          return false;  // Figure 12's fix: "if <y != i> goto exit"
        }
      }
    }
    y_.store(0, std::memory_order_seq_cst);
    return true;
  }

  static constexpr Resilience resilience() { return R; }

 private:
  std::atomic<std::uint32_t> x_{0};
  std::atomic<std::uint32_t> y_{0};
  const std::uint32_t delay_spins_;
};

template <Resilience R>
class BasicLamportFast2Lock {
 public:
  explicit BasicLamportFast2Lock(
      std::uint32_t capacity = platform::ThreadRegistry::kCapacity)
      : capacity_(capacity),
        b_(std::make_unique<
            platform::CacheLineAligned<std::atomic<bool>>[]>(capacity)) {
    for (std::uint32_t i = 0; i < capacity_; ++i)
      b_[i].value.store(false, std::memory_order_relaxed);
  }

  void acquire() {
    const std::uint32_t pid = platform::self_pid() % capacity_;
    const std::uint32_t me = pid + 1;
    platform::SpinWait w;
    for (;;) {
      b_[pid].value.store(true, std::memory_order_seq_cst);
      x_.store(me, std::memory_order_seq_cst);
      if (y_.load(std::memory_order_seq_cst) != 0) {
        b_[pid].value.store(false, std::memory_order_seq_cst);
        while (y_.load(std::memory_order_seq_cst) != 0) w.pause();
        continue;  // goto start
      }
      y_.store(me, std::memory_order_seq_cst);
      if (x_.load(std::memory_order_seq_cst) != me) {
        b_[pid].value.store(false, std::memory_order_seq_cst);
        for (std::uint32_t j = 0; j < capacity_; ++j) {
          while (b_[j].value.load(std::memory_order_seq_cst)) w.pause();
        }
        if (y_.load(std::memory_order_seq_cst) != me) {
          while (y_.load(std::memory_order_seq_cst) != 0) w.pause();
          continue;  // goto start
        }
      }
      if constexpr (R == kResilient) {
        owner_.store(me, std::memory_order_relaxed);
      }
      return;
    }
  }

  bool release() {
    const std::uint32_t pid = platform::self_pid() % capacity_;
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled() &&
          owner_.load(std::memory_order_relaxed) != pid + 1) {
        return false;  // the Figure 13 fix, on the owner word (above)
      }
      owner_.store(0, std::memory_order_relaxed);
    }
    y_.store(0, std::memory_order_seq_cst);
    b_[pid].value.store(false, std::memory_order_seq_cst);
    return true;
  }

  static constexpr Resilience resilience() { return R; }

 private:
  const std::uint32_t capacity_;
  std::atomic<std::uint32_t> x_{0};
  std::atomic<std::uint32_t> y_{0};
  // Resilient flavor only: id + 1 of the thread in the critical section.
  std::atomic<std::uint32_t> owner_{0};
  std::unique_ptr<platform::CacheLineAligned<std::atomic<bool>>[]> b_;
};

using LamportFast1Lock = BasicLamportFast1Lock<kOriginal>;
using LamportFast1LockResilient = BasicLamportFast1Lock<kResilient>;
using LamportFast2Lock = BasicLamportFast2Lock<kOriginal>;
using LamportFast2LockResilient = BasicLamportFast2Lock<kResilient>;

}  // namespace resilock
