// Per-shield verdict counters, shared by Shield<L> and RwShield<L>.
//
// A production shield is as much a telemetry source as a guard: knowing
// *that* misuse happens (and which kind, and how often) is what turns a
// suppressed bug into a fixed one (paper §7's feedback-to-programmer
// discussion). A shield fronts EVERY interposed mutex — PARSEC-style
// apps allocate millions — so the counters pack into two cache lines
// per instance instead of one line per counter: threads bumping them
// are already bouncing the lock's own line, so per-counter isolation
// buys nothing here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "platform/cacheline.hpp"
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

class ShieldCounters {
 public:
  enum Slot : std::size_t {
    kAcquisitions = 0,  // exclusive / write-side base grants
    kReleases = 1,      // exclusive / write-side releases (incl. absorbed)
    kAbsorbed = 2,
    kSuppressed = 3,
    kPassedThrough = 4,
    kMisuseBase = 5,  // + response::ResponseEvent
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
  // One aligned block (14 words, 2 cache lines), isolated from whatever
  // the shield places next to it.
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t>
      slots_[kSlots] = {};
};

}  // namespace resilock::shield
