// Acquisition call-site capture for lockstat.
//
// /proc/lock_stat's most actionable column is not the wait time — it
// is WHICH call site acquired the contended class. The cheap way to
// get that without unwinding is the compiler's return-address
// intrinsic: RESILOCK_RETURN_ADDRESS() evaluated at the top of
// Shield::acquire yields an address inside the calling function (or,
// when the whole acquire body was inlined into the caller, one frame
// further up — still application code, never shield internals).
// Capture is one register read; symbolization is deferred to report
// time (dladdr in lockstat.cpp, raw hex fallback), so the acquire
// path never touches the dynamic linker.
//
// Each lock class keeps a small fixed table of sites: slots are
// CAS-claimed by address on first sight, counts bump relaxed, and
// everything past kSlots distinct sites tallies as overflow — a
// deliberate top-N design, because a class acquired from more than a
// handful of sites is a "too coarse class" finding in itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define RESILOCK_RETURN_ADDRESS() __builtin_return_address(0)
#else
#define RESILOCK_RETURN_ADDRESS() static_cast<void*>(nullptr)
#endif

namespace resilock::observe {

namespace detail {
// Interposition call-site override (LD_PRELOAD path). When the shield
// is reached through libresilock_preload.so, RESILOCK_RETURN_ADDRESS()
// inside Shield::acquire names the preload shim, not the application.
// The preload entry point captures ITS return address (application
// code) here before forwarding; current_site() prefers it.
inline thread_local const void* interposed_site = nullptr;
}  // namespace detail

// The call site lockstat should attribute this acquisition to: the
// interposition override when one is active on this thread, otherwise
// the address the caller captured itself.
inline const void* current_site(const void* captured) noexcept {
  const void* o = detail::interposed_site;
  return o != nullptr ? o : captured;
}

// RAII setter for the override; preload entry points hold one across
// the forwarded rl_* call.
class InterposedSiteScope {
 public:
  explicit InterposedSiteScope(const void* site) noexcept
      : prev_(detail::interposed_site) {
    detail::interposed_site = site;
  }
  ~InterposedSiteScope() { detail::interposed_site = prev_; }
  InterposedSiteScope(const InterposedSiteScope&) = delete;
  InterposedSiteScope& operator=(const InterposedSiteScope&) = delete;

 private:
  const void* prev_;
};

class CallSiteTable {
 public:
  static constexpr std::size_t kSlots = 8;
  // Acquisitions are counted per AccessMode value.
  static constexpr std::size_t kModes = 3;

  // Counts one acquisition in `mode` at `site`. Each acquisition bumps
  // exactly one counter — its site's, or the overflow (table full) or
  // unsited (no site) tally — so the table is also the class's exact
  // per-mode acquisition count, at one RMW per acquisition.
  void record(const void* site, std::size_t mode = 0) noexcept {
    const auto addr = reinterpret_cast<std::uintptr_t>(site);
    mode %= kModes;
    if (addr == 0) {
      unsited_[mode].fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (Slot& slot : slots_) {
      std::uintptr_t cur = slot.site.load(std::memory_order_acquire);
      if (cur == 0) {
        if (slot.site.compare_exchange_strong(cur, addr,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
          cur = addr;
        }
        // CAS lost: cur now holds the winner's address; fall through.
      }
      if (cur == addr) {
        slot.count[mode].fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    overflow_[mode].fetch_add(1, std::memory_order_relaxed);
  }

  // Acquisitions at sites that found the table full.
  std::uint64_t overflow() const noexcept { return sum(overflow_); }

  // Every acquisition recorded in `mode`: sited, overflow and unsited.
  std::uint64_t mode_total(std::size_t mode) const noexcept {
    std::uint64_t n = overflow_[mode].load(std::memory_order_relaxed) +
                      unsited_[mode].load(std::memory_order_relaxed);
    for (const Slot& slot : slots_) {
      n += slot.count[mode].load(std::memory_order_relaxed);
    }
    return n;
  }

  // Visits every claimed slot as (address, count over all modes).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      const std::uintptr_t addr = slot.site.load(std::memory_order_acquire);
      if (addr != 0) fn(addr, sum(slot.count));
    }
  }

  void reset() noexcept {
    for (Slot& slot : slots_) {
      slot.site.store(0, std::memory_order_relaxed);
      for (auto& c : slot.count) c.store(0, std::memory_order_relaxed);
    }
    for (auto& c : overflow_) c.store(0, std::memory_order_relaxed);
    for (auto& c : unsited_) c.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uintptr_t> site{0};
    std::atomic<std::uint64_t> count[kModes] = {};
  };

  static std::uint64_t sum(
      const std::atomic<std::uint64_t> (&per_mode)[kModes]) noexcept {
    std::uint64_t n = 0;
    for (const auto& c : per_mode) n += c.load(std::memory_order_relaxed);
    return n;
  }

  Slot slots_[kSlots];
  std::atomic<std::uint64_t> overflow_[kModes] = {};
  std::atomic<std::uint64_t> unsited_[kModes] = {};
};

}  // namespace resilock::observe
