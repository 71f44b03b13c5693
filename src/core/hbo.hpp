// HBO: Hierarchical Backoff Lock (Radovic & Hagersten, HPCA 2003).
// Paper §3.8.3.
//
// A TAS-style lock where the word holds the *NUMA domain id* of the
// holder instead of a boolean: spinners from the holder's own domain back
// off briefly, remote spinners back off longer, so the lock tends to stay
// within a domain while it is contended.
//
// Unbalanced-unlock behavior: inherited from TAS (§3.1) — a misuse while
// the lock is held admits one extra thread; no starvation.
//
// Resilient fix (paper §3.8.3): CAS both the owner's PID and its domain
// id into the word — a 32-bit PID and an 8-bit domain id bit-packed into
// the single 64-bit lock word — so release() can check ownership and
// acquire() still learns how far away the holder is.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "platform/backoff.hpp"
#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"
#include "platform/topology.hpp"

namespace resilock {

template <Resilience R>
class BasicHboLock {
  static constexpr std::uint64_t kFree = 0;

 public:
  explicit BasicHboLock(
      const platform::Topology& topo = platform::Topology::host_default())
      : topo_(topo) {}

  BasicHboLock(const BasicHboLock&) = delete;
  BasicHboLock& operator=(const BasicHboLock&) = delete;

  void acquire() {
    const std::uint32_t dom = topo_.domain_of(platform::self_pid());
    const std::uint64_t mine = pack(dom);
    platform::ExponentialBackoff near_bo(4, 128);
    platform::ExponentialBackoff far_bo(64, 4096);
    for (;;) {
      std::uint64_t cur = word_.load(std::memory_order_relaxed);
      if (cur == kFree) {
        if (word_.compare_exchange_weak(cur, mine,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          return;
        }
      }
      if (cur != kFree) {
        // Back off proportionally to the holder's distance.
        if (domain_of_word(cur) == dom) {
          near_bo.pause();
        } else {
          far_bo.pause();
        }
      }
    }
  }

  bool try_acquire() {
    std::uint64_t expected = kFree;
    return word_.compare_exchange_strong(
        expected, pack(topo_.domain_of(platform::self_pid())),
        std::memory_order_acquire, std::memory_order_relaxed);
  }

  bool release() {
    if constexpr (R == kResilient) {
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;  // before the load
        if (pid_of_word(word_.load(std::memory_order_relaxed)) != me) {
          return false;
        }
      }
    }
    word_.store(kFree, std::memory_order_release);
    return true;
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  // Layout: bits [39..32] = domain id + 1; bits [31..0] = PID + 1 in the
  // resilient flavor, the constant 1 (just "locked") in the original.
  std::uint64_t pack(std::uint32_t dom) const {
    const std::uint64_t low =
        (R == kResilient) ? std::uint64_t{platform::self_pid()} + 1 : 1;
    return (std::uint64_t{dom + 1} << 32) | low;
  }
  static std::uint32_t domain_of_word(std::uint64_t w) {
    return static_cast<std::uint32_t>((w >> 32) & 0xFF) - 1;
  }
  static std::uint32_t pid_of_word(std::uint64_t w) {
    return static_cast<std::uint32_t>(w & 0xFFFFFFFFu);
  }

  platform::Topology topo_;  // by value: 8 bytes, no lifetime coupling
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t> word_{kFree};
};

using HboLock = BasicHboLock<kOriginal>;
using HboLockResilient = BasicHboLock<kResilient>;

}  // namespace resilock
