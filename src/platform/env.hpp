// Environment-variable parsing, in one place.
//
// Every RESILOCK_* knob used to reimplement its own getenv-and-parse
// (harness/evaluation.cpp, interpose/, shield/policy.hpp,
// lockdep/lockdep.cpp); the copies had already begun to drift (some
// accepted empty strings, some required exact "0"). These helpers are
// the single definition of how resilock reads its environment:
//   * env_raw    — the variable's value, nullptr when unset OR empty
//                  (an empty assignment means "use the default");
//   * env_u32    — positive integer; malformed or zero -> fallback;
//   * env_double — positive double; malformed or non-positive -> fallback;
//   * env_flag   — boolean: 0/false/off/no and 1/true/on/yes; anything
//                  else (including unset) -> fallback;
//   * EnvSwitch  — a runtime-settable on/off gate seeded from the
//                  environment at its first read.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace resilock::platform {

inline const char* env_raw(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

inline std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* v = env_raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long u = std::strtoul(v, &end, 10);
  return (end != nullptr && *end == '\0' && u > 0)
             ? static_cast<std::uint32_t>(u)
             : fallback;
}

inline double env_double(const char* name, double fallback) {
  const char* v = env_raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  return (end != nullptr && *end == '\0' && d > 0.0) ? d : fallback;
}

inline bool env_flag(const char* name, bool fallback) {
  const char* v = env_raw(name);
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  return fallback;
}

// A process-wide on/off gate that the hot paths read (lockstat, span
// tracing, lockdep, the misuse checks), seeded from the environment at
// its first read and settable at run time. It is constant-initialized,
// so a read needs no static-init guard: one relaxed byte load and a
// branch, inline. The environment is read once, out of line, by the
// first read that finds the gate unseeded; a set() before any read
// wins over the environment, as a store after it would.
class EnvSwitch {
 public:
  using Seed = bool (*)();
  constexpr explicit EnvSwitch(Seed seed) noexcept : seed_(seed) {}
  EnvSwitch(const EnvSwitch&) = delete;
  EnvSwitch& operator=(const EnvSwitch&) = delete;

  [[gnu::always_inline]] bool on() noexcept {
    const std::uint8_t v = state_.load(std::memory_order_relaxed);
    if (__builtin_expect(v != kUnseeded, 1)) return v == kOn;
    return seed_now();
  }
  void set(bool on) noexcept {
    state_.store(on ? kOn : kOff, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint8_t kUnseeded = 0;
  static constexpr std::uint8_t kOff = 1;
  static constexpr std::uint8_t kOn = 2;

  [[gnu::cold, gnu::noinline]] bool seed_now() noexcept {
    std::uint8_t v = seed_() ? kOn : kOff;
    std::uint8_t expected = kUnseeded;
    if (!state_.compare_exchange_strong(expected, v,
                                        std::memory_order_relaxed)) {
      v = expected;  // a racing seed or set() got there first
    }
    return v == kOn;
  }

  std::atomic<std::uint8_t> state_{kUnseeded};
  const Seed seed_;
};

}  // namespace resilock::platform
