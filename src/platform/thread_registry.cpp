#include "platform/thread_registry.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace resilock::platform {
namespace {

// One bit per pid slot, grouped into 64-bit words. Claiming scans for a
// clear bit with CAS; releasing clears it. Registration happens once per
// thread lifetime, so contention here is irrelevant to lock benchmarks.
std::atomic<std::uint64_t> g_slot_words[ThreadRegistry::kCapacity / 64];
std::atomic<std::uint32_t> g_live{0};

pid_t claim_slot() {
  for (;;) {
    for (std::size_t w = 0; w < ThreadRegistry::kCapacity / 64; ++w) {
      std::uint64_t bits = g_slot_words[w].load(std::memory_order_relaxed);
      while (bits != ~std::uint64_t{0}) {
        const int bit = __builtin_ctzll(~bits);
        const std::uint64_t want = bits | (std::uint64_t{1} << bit);
        if (g_slot_words[w].compare_exchange_weak(bits, want,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_relaxed)) {
          g_live.fetch_add(1, std::memory_order_relaxed);
          return static_cast<pid_t>(w * 64 + bit);
        }
        // bits was refreshed by the failed CAS; retry this word.
      }
    }
    std::fprintf(stderr,
                 "resilock: thread registry exhausted (%u slots)\n",
                 ThreadRegistry::kCapacity);
    std::abort();
  }
}

void release_slot(pid_t pid) {
  const std::size_t w = pid / 64;
  const std::uint64_t mask = ~(std::uint64_t{1} << (pid % 64));
  g_slot_words[w].fetch_and(mask, std::memory_order_acq_rel);
  g_live.fetch_sub(1, std::memory_order_relaxed);
}

// RAII holder: registers lazily, releases at thread exit.
struct Slot {
  pid_t pid = kInvalidPid;
  ~Slot() {
    if (pid != kInvalidPid) release_slot(pid);
  }
};

thread_local Slot t_slot;

}  // namespace

pid_t ThreadRegistry::current_pid() {
  if (t_slot.pid == kInvalidPid) t_slot.pid = claim_slot();
  detail::t_pid = t_slot.pid;
  return t_slot.pid;
}

pid_t ThreadRegistry::live_count() {
  return g_live.load(std::memory_order_relaxed);
}

}  // namespace resilock::platform
