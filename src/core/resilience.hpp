// The two build flavors of every lock in this library.
//
// `kOriginal` is the textbook protocol exactly as published; it is the
// baseline in every experiment and exhibits the misuse behavior the paper
// catalogs in Table 1. `kResilient` applies the paper's minimal fix so
// that an unbalanced unlock() is detected and suppressed.
#pragma once

#include <atomic>

#include "platform/env.hpp"

namespace resilock {

enum class Resilience {
  kOriginal,
  kResilient,
};

inline constexpr Resilience kOriginal = Resilience::kOriginal;
inline constexpr Resilience kResilient = Resilience::kResilient;

constexpr const char* to_string(Resilience r) noexcept {
  return r == kOriginal ? "original" : "resilient";
}

namespace detail {
// Defaults on; RESILOCK_DISABLE_CHECK=1 turns every resilient check off
// at process start.
inline bool seed_misuse_checks() {
  return !platform::env_flag("RESILOCK_DISABLE_CHECK", false);
}
inline constinit platform::EnvSwitch misuse_checks{seed_misuse_checks};
}  // namespace detail

// The paper's §5 escape hatch: "By design some locks may require one
// thread to acquire() and another thread to release() the lock. To avoid
// flagging such a release() as unbalanced-unlock, one can set an
// environment variable to disable the check in all our proposed
// remedies." With checks disabled a resilient lock releases exactly like
// the original protocol — including the original's misuse consequences.
[[gnu::always_inline]] inline bool misuse_checks_enabled() noexcept {
  return detail::misuse_checks.on();
}

inline void set_misuse_checks(bool enabled) noexcept {
  detail::misuse_checks.set(enabled);
}

// RAII toggle for the process-global check flag. set_misuse_checks() is
// global state; a test or bench that flips it and then exits early (an
// ASSERT, an exception) leaks the setting into everything that runs
// after it. The guard restores the previous value on scope exit:
//
//   { MisuseCheckGuard off(false);  /* §5 hand-off section */ }
//   // checks are back to whatever they were
class MisuseCheckGuard {
 public:
  explicit MisuseCheckGuard(bool enabled)
      : previous_(misuse_checks_enabled()) {
    set_misuse_checks(enabled);
  }
  ~MisuseCheckGuard() { set_misuse_checks(previous_); }
  MisuseCheckGuard(const MisuseCheckGuard&) = delete;
  MisuseCheckGuard& operator=(const MisuseCheckGuard&) = delete;

 private:
  const bool previous_;
};

}  // namespace resilock
