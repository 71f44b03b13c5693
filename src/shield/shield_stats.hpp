// Per-shield counters, shared by Shield<L> and RwShield<L>.
//
// A production shield is as much a telemetry source as a guard: knowing
// *that* misuse happens (and which kind, and how often) is what turns a
// suppressed bug into a fixed one (paper §7's feedback-to-programmer
// discussion). They come in two kinds, split by who writes them:
//
//   * Tally: the per-acquisition and per-release counts. Only the
//     thread holding the base lock writes one, so the base orders the
//     writers and a plain load+store is exact; it sits on the shield's
//     holder line (shield_core.hpp), which the new holder takes anyway.
//   * ShieldCounters: the verdict and misuse counts, bumped by any
//     thread (a misuse is by definition a thread the lock does not
//     order), so they stay exact RMWs. They live on the shield's cold
//     lines: a correct program never writes them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "response/response.hpp"
#include "shield/policy.hpp"

namespace resilock::shield {

struct ShieldSnapshot {
  std::uint64_t acquisitions = 0;       // base-protocol acquisitions
  std::uint64_t releases = 0;           // balanced releases (incl. absorbed)
  std::uint64_t reentrant_absorbed = 0; // relocks converted to depth bumps
  std::uint64_t suppressed = 0;         // misuses swallowed by policy
  std::uint64_t passed_through = 0;     // misuses forwarded to the base
  std::uint64_t misuse[kMisuseKinds] = {0, 0, 0, 0};

  std::uint64_t count(MisuseKind k) const {
    return misuse[static_cast<std::size_t>(k)];
  }

  std::uint64_t total_misuses() const {
    std::uint64_t t = 0;
    for (auto m : misuse) t += m;
    return t;
  }
};

// A counter bumped with a plain load+store instead of an RMW: exact
// only while something else orders its writers (the base lock for the
// holder tallies); RwShield's read stripes accept the odd lost bump.
class Tally {
 public:
  void bump() {
    n_.store(n_.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }
  std::uint64_t read() const { return n_.load(std::memory_order_relaxed); }
  void reset() { n_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

class ShieldCounters {
 public:
  enum Slot : std::size_t {
    kAbsorbed = 0,
    kSuppressed = 1,
    kPassedThrough = 2,
    kMisuseBase = 3,  // + response::ResponseEvent
    kSlots = kMisuseBase + response::kResponseEvents,
  };

  void bump(Slot slot) { slots_[slot].fetch_add(1, std::memory_order_relaxed); }
  void bump_misuse(response::ResponseEvent e) {
    slots_[kMisuseBase + static_cast<std::size_t>(e)].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t read(Slot slot) const {
    return slots_[slot].load(std::memory_order_relaxed);
  }
  // Misuse tally indexed by response::ResponseEvent value.
  std::uint64_t misuse(std::size_t event) const {
    return slots_[kMisuseBase + event].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> slots_[kSlots] = {};
};

}  // namespace resilock::shield
