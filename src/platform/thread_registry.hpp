// Dense thread identifiers ("PIDs" in the paper's terminology).
//
// Several remedies in the paper store the owner's thread id inside the
// lock (TAS §3.1, Ticket §3.2, HBO §3.8.3, MCS-K42 §3.6) or index
// per-thread arrays by it (Graunke–Thakkar §3.3.2). OS thread ids are
// sparse and task runtimes may migrate tasks across OS threads (§2.3),
// so the library assigns its own dense ids: the first time a thread asks
// for its pid it gets the smallest free slot in [0, capacity), and the
// slot is recycled when the thread exits.
#pragma once

#include <cstdint>
#include <limits>

namespace resilock::platform {

using pid_t = std::uint32_t;

inline constexpr pid_t kInvalidPid = std::numeric_limits<pid_t>::max();

class ThreadRegistry {
 public:
  // Upper bound on concurrently registered threads. Sized generously;
  // per-thread lock arrays (ABQL slots, GT slots) use this as default.
  static constexpr pid_t kCapacity = 512;

  // Dense id of the calling thread; registers it on first use.
  // Never returns kInvalidPid (aborts if capacity exhausted).
  static pid_t current_pid();

  // Number of pids currently registered (for tests/diagnostics).
  static pid_t live_count();

  ThreadRegistry() = delete;
};

namespace detail {
// The calling thread's pid once current_pid() has registered it;
// kInvalidPid before. Constant-initialized, so reading it is one TLS
// load with no init call.
inline constinit thread_local pid_t t_pid = kInvalidPid;
}  // namespace detail

// Shorthand used throughout lock implementations: the cached pid,
// inline; only a thread's first call registers it, out of line.
[[gnu::always_inline]] inline pid_t self_pid() {
  const pid_t p = detail::t_pid;
  return __builtin_expect(p != kInvalidPid, 1)
             ? p
             : ThreadRegistry::current_pid();
}

}  // namespace resilock::platform
