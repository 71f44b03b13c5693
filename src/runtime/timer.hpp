// Monotonic timing helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace resilock::runtime {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cheap timestamp for hot-path telemetry (lockstat windows, trace
// records): on x86-64, rdtsc scaled by a once-calibrated tick period
// (~6 ns vs ~25 ns for the vDSO clock on good hardware); elsewhere,
// now_ns(). The calibration also fixes an offset, so a reading starts
// out on now_ns()'s epoch; the two clocks then drift apart by the rate
// error (<0.1%; modern x86 has constant_tsc so the rate holds across
// cores and frequency scaling). Every trace timestamp comes from this
// one clock.
//
// The calibration waits out a 250 us window, so it runs on cold paths
// only, never on the first timed hold: calibrate_tsc() is called by
// whatever turns timing on (set_lockstat, set_span_tracing) and by the
// telemetry collector thread as it starts. Until it has finished,
// now_ns_fast() returns now_ns() itself — the epoch the calibration
// pins the tick clock to — so nothing ever waits for it, and the
// switch-over is a step of at most the calibration's bracket error.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace detail {
struct TscScale {
  std::uint64_t mult;    // ns per tick, 32.32 fixed point
  std::uint64_t offset;  // added (mod 2^64) to reach now_ns()'s epoch
};

// Written once by calibrate_tsc(), before tsc_ready is set; read only
// after tsc_ready is seen set.
inline TscScale tsc_scale{std::uint64_t{1} << 32, 0};
inline std::atomic<bool> tsc_ready{false};

// One (steady ns, tick) pair: the tick reading is the midpoint of two
// that bracket the clock read, and of a few tries the tightest bracket
// wins, so a preemption inside one try does not skew the pair.
struct ClockPair {
  std::uint64_t ns;
  std::uint64_t tick;
};
inline ClockPair clock_pair() noexcept {
  ClockPair best{0, 0};
  std::uint64_t best_gap = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t c0 = __builtin_ia32_rdtsc();
    const std::uint64_t t = now_ns();
    const std::uint64_t c1 = __builtin_ia32_rdtsc();
    if (c1 - c0 < best_gap) {
      best_gap = c1 - c0;
      best = {t, c0 + (c1 - c0) / 2};
    }
  }
  return best;
}

inline TscScale measure_tsc_scale() noexcept {
  const ClockPair a = clock_pair();
  while (now_ns() - a.ns < 250000) {
  }
  const ClockPair b = clock_pair();
  TscScale s{std::uint64_t{1} << 32, 0};  // 1 ns/tick fallback
  if (b.tick > a.tick) {
    s.mult = static_cast<std::uint64_t>(static_cast<double>(b.ns - a.ns) /
                                        static_cast<double>(b.tick - a.tick) *
                                        4294967296.0);
  }
  s.offset = b.ns - static_cast<std::uint64_t>(
                        (static_cast<unsigned __int128>(b.tick) * s.mult) >>
                        32);
  return s;
}
}  // namespace detail

// Calibrates the tick clock against the steady clock, once per process
// (a concurrent second caller waits for the first). Cold paths only.
inline void calibrate_tsc() noexcept {
  static const bool done = [] {
    detail::tsc_scale = detail::measure_tsc_scale();
    detail::tsc_ready.store(true, std::memory_order_release);
    return true;
  }();
  (void)done;
}

// True once calibrate_tsc() has finished: from then on now_ns_fast()
// reads the tick clock.
inline bool tsc_calibrated() noexcept {
  return detail::tsc_ready.load(std::memory_order_acquire);
}

inline std::uint64_t now_ns_fast() noexcept {
  if (!detail::tsc_ready.load(std::memory_order_acquire)) return now_ns();
  const detail::TscScale& s = detail::tsc_scale;
  return static_cast<std::uint64_t>(
             (static_cast<unsigned __int128>(__builtin_ia32_rdtsc()) *
              s.mult) >>
             32) +
         s.offset;
}
#else
inline void calibrate_tsc() noexcept {}
inline bool tsc_calibrated() noexcept { return true; }
inline std::uint64_t now_ns_fast() noexcept { return now_ns(); }
#endif

// Measures wall time of a callable in seconds.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) * 1e-9;
}

// Calibrated busy work: spins for roughly `units` dependent multiplies.
// Workload generators express critical-section lengths in these units so
// they are stable across optimization levels (the value dependency chain
// cannot be elided).
inline std::uint64_t busy_work(std::uint64_t units,
                               std::uint64_t seed = 0x243F6A8885A308D3ull) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < units; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

}  // namespace resilock::runtime
