// Misuse policies for the ownership-shield subsystem.
//
// The paper bakes its remedies into each protocol (`Resilience::kResilient`
// per lock in src/core/); the shield takes the complementary, glibc-style
// route of a generic ownership layer *outside* the protocol. What that
// layer should do when it catches a misuse is a deployment decision, not a
// protocol decision — debug builds want a loud abort (Go's panic, §7),
// production wants silent suppression (the paper's resilient remedies),
// migrations want logging, and measurement runs want faithful
// pass-through so the original consequences stay observable.
//
// The process-wide default policy is suppress and can be changed at
// runtime (set_default_shield_policy, ShieldPolicyGuard); every
// Shield<L> instance can override it.
//
// Since the unified response engine (src/response/), this static
// policy is the *fallback* of the verdict pipeline: a default-policy
// shield asks the engine's RESILOCK_POLICY rules first (telemetry-aware
// escalation) and only lands here when no rule matches. A deployment
// picks its verdicts with rules ("misuse=abort"), not with this
// policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "platform/thread_registry.hpp"
#include "response/response.hpp"

namespace resilock::shield {

enum class ShieldPolicy : std::uint8_t {
  kSuppress,        // swallow the misuse; the API reports false/EPERM
  kAbort,           // print a diagnostic and abort() (Go-panic semantics)
  kLogAndSuppress,  // print a diagnostic, then suppress
  kPassThrough,     // count it, then hand it to the protocol untouched
};

// What the shield caught. `kDoubleUnlock` is the special case of an
// unbalanced unlock where the caller *was* the previous owner and simply
// unlocked once too often; `kUnbalancedUnlock` covers releases of a lock
// the caller never held (including a completely free lock);
// `kNonOwnerUnlock` is a release while another thread holds the lock —
// the paper's headline scenario; `kReentrantRelock` is a second acquire
// by the current owner of a non-reentrant lock (self-deadlock or
// protocol corruption in the original protocols).
enum class MisuseKind : std::uint8_t {
  kUnbalancedUnlock = 0,
  kDoubleUnlock = 1,
  kNonOwnerUnlock = 2,
  kReentrantRelock = 3,
};

inline constexpr std::size_t kMisuseKinds = 4;

constexpr const char* to_string(ShieldPolicy p) noexcept {
  switch (p) {
    case ShieldPolicy::kSuppress: return "suppress";
    case ShieldPolicy::kAbort: return "abort";
    case ShieldPolicy::kLogAndSuppress: return "log";
    case ShieldPolicy::kPassThrough: return "passthrough";
  }
  return "?";
}

constexpr const char* to_string(MisuseKind k) noexcept {
  switch (k) {
    case MisuseKind::kUnbalancedUnlock: return "unbalanced-unlock";
    case MisuseKind::kDoubleUnlock: return "double-unlock";
    case MisuseKind::kNonOwnerUnlock: return "non-owner-unlock";
    case MisuseKind::kReentrantRelock: return "reentrant-relock";
  }
  return "?";
}

// The engine's Action space is the policy space; this is the
// compatibility mapping that lets a static ShieldPolicy serve as the
// verdict-pipeline fallback.
constexpr response::Action to_action(ShieldPolicy p) noexcept {
  switch (p) {
    case ShieldPolicy::kSuppress: return response::Action::kSuppress;
    case ShieldPolicy::kAbort: return response::Action::kAbort;
    case ShieldPolicy::kLogAndSuppress: return response::Action::kLog;
    case ShieldPolicy::kPassThrough: return response::Action::kPassthrough;
  }
  return response::Action::kSuppress;
}

namespace detail {
inline std::atomic<ShieldPolicy>& default_policy_flag() {
  static std::atomic<ShieldPolicy> flag{ShieldPolicy::kSuppress};
  return flag;
}
}  // namespace detail

// Process-wide default, picked up by every Shield constructed without an
// explicit policy. Runtime-settable (tests, REPL-style exploration).
inline ShieldPolicy default_shield_policy() noexcept {
  return detail::default_policy_flag().load(std::memory_order_relaxed);
}

inline void set_default_shield_policy(ShieldPolicy p) noexcept {
  detail::default_policy_flag().store(p, std::memory_order_relaxed);
}

// RAII pin for the process-wide default policy (the MisuseCheckGuard
// pattern): restores the previous default on scope exit, so code that
// pins a policy for a measurement or a test cannot leak it past an
// early return or an exception.
class ShieldPolicyGuard {
 public:
  explicit ShieldPolicyGuard(ShieldPolicy p)
      : previous_(default_shield_policy()) {
    set_default_shield_policy(p);
  }
  ~ShieldPolicyGuard() { set_default_shield_policy(previous_); }
  ShieldPolicyGuard(const ShieldPolicyGuard&) = delete;
  ShieldPolicyGuard& operator=(const ShieldPolicyGuard&) = delete;

 private:
  const ShieldPolicy previous_;
};

// Diagnostic line for kAbort / kLogAndSuppress. stderr + fprintf (not a
// logging framework) so it works inside interposed pthread programs.
inline void report_misuse(response::ResponseEvent kind, const void* lock) {
  std::fprintf(stderr,
               "resilock[shield]: %s on lock %p by thread pid %u\n",
               response::to_string(kind), lock,
               static_cast<unsigned>(platform::self_pid()));
}

}  // namespace resilock::shield
