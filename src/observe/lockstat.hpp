// Lockstat: per-class lock statistics, /proc/lock_stat style.
//
// The telemetry plane (PR 6) answers "what happened" — discrete
// misuse/span events — and "how much" — flat counters. What it cannot
// answer is the production question the paper's Uber incidents start
// from: WHICH lock classes hurt, HOW BAD is the tail, and WHERE are
// they acquired from. Lockstat is that layer:
//
//   * per lockdep-class wait-time and hold-time log-bucketed
//     histograms (observe/histogram.hpp) with exact count/total/max —
//     wait is the CONTENDED window of a blocking acquire (matching
//     /proc/lock_stat's contention semantics and the telemetry wait
//     spans), hold is base-acquire .. balanced-release;
//   * contention, trylock-failure, and misuse tallies that reconcile
//     exactly against the shield's own counters;
//   * top-N acquisition call sites per class (observe/callsite.hpp),
//     captured as raw return addresses on the acquire path and
//     symbolized lazily (dladdr) at report time;
//   * mode-tagged acquisition counts for the rw family.
//
// The per-acquisition counters (call-site tally, histograms) are kept
// per recorder stripe, each stripe on its own cache lines, so threads
// handing a hot class to each other do not also hand over a counter
// line inside the held window. Every reader sums the stripes: totals,
// reports, metrics and the live dump are exact at every moment, with
// no per-thread caches or flushes.
//
// Gating: everything above is behind lockstat_enabled() — one relaxed
// flag load on the acquire paths, the exact pattern span tracing set
// (RESILOCK_LOCKSTAT env seed, set_lockstat()/LockstatGuard at
// runtime). A release only reads its held-record entry's timed part,
// which the shield has at hand. Off (the default), the uncontended
// fast path is the pre-lockstat code.
//
// Cost model: every tally above is EXACT except the hold-time
// histogram, which samples 1-in-N hold windows per thread
// (RESILOCK_LOCKSTAT_SAMPLE, default 8, power of two; 1 = exact).
// The split is deliberate: the exact tallies are counter bumps, but a
// hold window is two timestamps, and on an uncontended
// acquire/release pair (~50 ns) unconditional timestamps alone blow
// the repo's 2x overhead budget — rdtsc is ~18 ns even on good
// hardware. Sampling keeps the default-on cost inside the budget
// (the layer ladder, perfbench/layers.cpp, prices both modes) while the
// reconciliation story — acquisitions, contentions, trylock
// failures, misuses vs the shield's own counters — stays exact.
//
// Reports render three ways, all through the same ClassReport shape:
// on demand / periodically by the telemetry collector next to the
// metrics file (RESILOCK_LOCKSTAT_FILE), live out of an unmodified
// LD_PRELOAD-ed process via a signal trigger (SIGUSR2, or
// RESILOCK_LOCKSTAT_SIGNAL=<n> — the handler only sets a flag; the
// collector's duty cycle services the dump), and offline from a
// JSONL/perfetto trace via tools/resilock_report.cpp.
//
// Class stats are keyed by the FULL generation-stamped lockdep
// ClassId and allocated lazily on a class's first recorded event.
// Chunks of stats pointers map on demand, mirroring the lockdep class
// table's own chunk growth, so an application with N live classes
// pays O(N) here — not O(kMaxClassSlots). When lockdep recycles a
// retired class's slot, the new generation's id differs in its stamp:
// its first recorded event displaces the old stats block onto a
// retired list (never freed — racing recorders may still hold a
// pointer into it) and starts a fresh block, so a recycled slot never
// inherits its predecessor's histograms or call sites.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/access_mode.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/callsite.hpp"
#include "observe/histogram.hpp"
#include "platform/env.hpp"
#include "runtime/timer.hpp"

namespace resilock::observe {

// ---------------------------------------------------------------------
// Runtime gate (RESILOCK_LOCKSTAT, runtime-settable) — mirrors
// lockdep::span_tracing_enabled().
// ---------------------------------------------------------------------

namespace detail {
inline bool seed_lockstat() {
  return platform::env_flag("RESILOCK_LOCKSTAT", false);
}
inline constinit platform::EnvSwitch lockstat{seed_lockstat};
}  // namespace detail

[[gnu::always_inline]] inline bool lockstat_enabled() noexcept {
  return detail::lockstat.on();
}

// Turning lockstat on calibrates the fast clock first, here on the
// caller's cold path rather than inside the first timed hold.
inline void set_lockstat(bool on) noexcept {
  if (on) runtime::calibrate_tsc();
  detail::lockstat.set(on);
}

class LockstatGuard {
 public:
  explicit LockstatGuard(bool on) : previous_(lockstat_enabled()) {
    set_lockstat(on);
  }
  ~LockstatGuard() { set_lockstat(previous_); }
  LockstatGuard(const LockstatGuard&) = delete;
  LockstatGuard& operator=(const LockstatGuard&) = delete;

 private:
  const bool previous_;
};

// ---------------------------------------------------------------------
// Hold-window sampling rate (RESILOCK_LOCKSTAT_SAMPLE). Stored as a
// mask (N - 1, N a power of two); 0 means every hold is timed.
// ---------------------------------------------------------------------

namespace detail {
constexpr std::uint32_t sample_mask_from(std::uint32_t n) noexcept {
  if (n <= 1) return 0;
  if (n > (1u << 20)) n = 1u << 20;
  std::uint32_t pow2 = 1;
  while (pow2 * 2 <= n) pow2 *= 2;  // round down to a power of two
  return pow2 - 1;
}

inline std::atomic<std::uint32_t>& sample_mask_flag() {
  static std::atomic<std::uint32_t> m{
      sample_mask_from(platform::env_u32("RESILOCK_LOCKSTAT_SAMPLE", 8))};
  return m;
}
}  // namespace detail

// The effective 1-in-N hold sampling rate (>= 1).
inline std::uint32_t lockstat_sample() noexcept {
  return detail::sample_mask_flag().load(std::memory_order_relaxed) + 1;
}

// Sets the hold sampling rate; `n` is rounded down to a power of two
// (1 = time every hold window — exact mode, what the reconciliation
// tests pin).
inline void set_lockstat_sample(std::uint32_t n) noexcept {
  detail::sample_mask_flag().store(detail::sample_mask_from(n),
                                   std::memory_order_relaxed);
}

class LockstatSampleGuard {
 public:
  explicit LockstatSampleGuard(std::uint32_t n)
      : previous_(lockstat_sample()) {
    set_lockstat_sample(n);
  }
  ~LockstatSampleGuard() { set_lockstat_sample(previous_); }
  LockstatSampleGuard(const LockstatSampleGuard&) = delete;
  LockstatSampleGuard& operator=(const LockstatSampleGuard&) = delete;

 private:
  const std::uint32_t previous_;
};

// ---------------------------------------------------------------------
// Per-class statistics.
// ---------------------------------------------------------------------

inline constexpr std::size_t kAccessModes = 3;  // AccessMode values

// Derived rather than stored (hot-path RMWs are the whole overhead
// budget): acquisitions by mode = the call-site table's per-mode
// totals, contentions = wait.count — on_acquired pays one counter bump
// (its site's, on the recorder's stripe), on_contended_wait only its
// histogram's. The striped members are nearly all of this block's
// ~17 KiB; the rare-path tallies stay single shared words.
struct ClassStats {
  LogHistogram wait;  // contended-acquire wait, ns
  LogHistogram hold;  // base acquire .. balanced release, ns
  std::atomic<std::uint64_t> trylock_fails{0};
  std::atomic<std::uint64_t> misuses{0};
  // Parking tier (src/park/): kernel sleeps attributed to this class.
  // park_ns is inside the wait histogram's window (a parked wait is a
  // contended wait), so parks/park_time read as "of the wait above,
  // this much was spent descheduled".
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> park_ns{0};
  std::atomic<std::uint64_t> wakes{0};
  CallSiteTable sites;  // also the acquisition tally, by mode
};
static_assert(CallSiteTable::kModes == kAccessModes);

struct CallSiteRow {
  std::uintptr_t site = 0;
  std::uint64_t count = 0;
};

// Plain-data per-class report row: built from live ClassStats by
// LockStat::report(), or reconstructed from a trace by the offline
// analyzer — both feed the same write_report() renderer, which is what
// keeps the live and post-mortem views answering identically.
struct ClassReport {
  std::string label;  // lockdep label, or "class#N" when unnamed
  lockdep::ClassId cls = lockdep::kInvalidClass;
  std::uint64_t acquisitions = 0;
  std::uint64_t contentions = 0;
  std::uint64_t trylock_fails = 0;
  std::uint64_t misuses = 0;
  std::uint64_t by_mode[kAccessModes] = {};
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t park_time = 0;  // ns descheduled, subset of wait total
  std::uint64_t site_overflow = 0;
  // 1-in-N hold sampling rate the hold histogram was recorded at
  // (live reports: lockstat_sample(); trace reconstruction: 1 — every
  // span in the trace is a sample).
  std::uint32_t hold_sample = 1;
  HistogramSnapshot wait;
  HistogramSnapshot hold;
  std::vector<CallSiteRow> sites;  // sorted by count, descending
};

class LockStat {
 public:
  struct Totals {
    std::uint64_t classes = 0;  // classes with any recorded activity
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    std::uint64_t trylock_fails = 0;
    std::uint64_t misuses = 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t hold_ns = 0;
    std::uint64_t parks = 0;
    std::uint64_t park_ns = 0;
  };

  // Leaked on purpose: lock hooks may run inside other objects'
  // destructors during shutdown, after function-local statics with
  // destructors are gone.
  static LockStat& instance() {
    static LockStat* inst = new LockStat;
    return *inst;
  }

  // Stats block for `cls`, allocated on first use and keyed by the
  // full generation-stamped id: a stale block left by a previous
  // generation of the same slot is displaced, not reused. nullptr for
  // the sentinel ids (kInvalidClass/kUntrackedClass) — events on a
  // lock whose class table slot never existed are not attributable.
  // The lookup is inline (every recorded acquisition makes it); only
  // the first event of a class takes the out-of-line install.
  ClassStats* stats_for(lockdep::ClassId cls) {
    ClassStats* s = peek(cls);
    return s != nullptr || !lockdep::class_tracked(cls) ? s : install(cls);
  }

  // Like stats_for but never allocates and never displaces: nullptr
  // unless a block keyed by exactly `cls` (generation included) is
  // installed.
  ClassStats* peek(lockdep::ClassId cls) const noexcept {
    if (!lockdep::class_tracked(cls)) return nullptr;
    const std::uint32_t slot = lockdep::class_slot(cls);
    const StatChunk* c =
        dir_[slot / kStatChunkSlots].load(std::memory_order_acquire);
    if (c == nullptr) return nullptr;
    Entry* e = c->slots[slot % kStatChunkSlots].load(
        std::memory_order_acquire);
    return e != nullptr && e->id == cls ? &e->st : nullptr;
  }

  Totals totals() const noexcept;

  // Snapshot of every class with recorded activity, labels resolved
  // against the live lockdep class table, sorted by total wait
  // descending (ties: acquisitions). Defined in lockstat.cpp.
  std::vector<ClassReport> report() const;

  // Zeroes every allocated stats block (tests, bench phases). Callers
  // must quiesce recorders first; concurrent record() during a reset
  // can misplace an increment, nothing worse.
  void reset() noexcept;

  // Stats blocks displaced by slot recycling, still reachable by
  // racing recorders. Exposed for tests/telemetry.
  std::uint64_t retired_blocks() const noexcept {
    return retired_count_.load(std::memory_order_relaxed);
  }

 private:
  LockStat() = default;

  // One pointer chunk per kStatChunkSlots lockdep slots, mapped
  // lazily; the directory is sized for the lockdep table's full slot
  // space but costs one atomic pointer per chunk until used.
  static constexpr std::uint32_t kStatChunkSlots = 1024;
  static constexpr std::uint32_t kStatDirSlots =
      lockdep::kMaxClassSlots / kStatChunkSlots;

  struct Entry {
    explicit Entry(lockdep::ClassId id_in) : id(id_in) {}
    const lockdep::ClassId id;  // full generation-stamped ClassId
    ClassStats st;
    Entry* next_retired = nullptr;  // displaced-block list link
  };

  struct StatChunk {
    std::atomic<Entry*> slots[kStatChunkSlots] = {};
  };

  ClassStats* install(lockdep::ClassId cls);
  StatChunk* chunk_at(std::uint32_t index, bool create);
  void park_retired(Entry* e) noexcept;

  std::atomic<StatChunk*> dir_[kStatDirSlots] = {};
  std::atomic<Entry*> retired_{nullptr};
  std::atomic<std::uint64_t> retired_count_{0};
};

// ---------------------------------------------------------------------
// Shield hook points. All are no-ops unless called — the shields gate
// every acquire-side call on lockstat_enabled(), so the disabled fast
// path pays one relaxed load and nothing else.
// ---------------------------------------------------------------------

// A contended blocking acquire finished after waiting `wait_ns`.
// Called for every contended acquire — including forwarded re-acquires
// — so the contention tally (the wait histogram's count) reconciles
// exactly with the shield's ContentionProbe::contended_total().
inline void on_contended_wait(lockdep::ClassId cls,
                              std::uint64_t wait_ns) {
  ClassStats* s = LockStat::instance().stats_for(cls);
  if (s == nullptr) return;
  s->wait.record(wait_ns);
}

// A fresh base acquisition completed (blocking or try path). Tallies
// the acquisition under its call site and mode (one exact counter, on
// the recorder's stripe) and says whether this hold's window is
// sampled: 1-in-lockstat_sample() acquisitions per thread. The
// decimation counter is per-thread and shared across classes, so a hot
// class is sampled at the configured rate regardless of what else the
// thread locks. The window itself lives in the hold's held-record
// entry (its timed part), where a traced hold's record shares its two
// timestamps; per-thread windows are what rw read holds, with many
// simultaneous holders, need.
inline bool on_acquired(lockdep::ClassId cls, AccessMode mode,
                        const void* site) {
  ClassStats* s = LockStat::instance().stats_for(cls);
  if (s == nullptr) return false;
  s->sites.record(site, static_cast<std::size_t>(mode));
  const std::uint32_t mask =
      detail::sample_mask_flag().load(std::memory_order_relaxed);
  thread_local std::uint32_t decimate = 0;
  return mask == 0 || (++decimate & mask) == 0;
}

// A sampled hold window of class `cls` closed: `begin_ns` .. `end_ns`,
// two runtime::now_ns_fast() readings. Not gated on lockstat_enabled():
// a window opened while it was on still closes.
inline void on_hold_window(lockdep::ClassId cls, std::uint64_t begin_ns,
                           std::uint64_t end_ns) {
  ClassStats* s = LockStat::instance().peek(cls);
  if (s == nullptr) return;
  s->hold.record(end_ns > begin_ns ? end_ns - begin_ns : 0);
}

// The same by lock pointer, for a lock with no shield entry: a sampled
// window goes into `lock`'s entry, which is added (timed part only)
// when the lock has none.
inline void on_acquired(const void* lock, lockdep::ClassId cls,
                        AccessMode mode, const void* site) {
  if (!on_acquired(cls, mode, site)) return;
  lockdep::Hold& h = shield::HeldLockTable::mine().entry(lock);
  h.cls = cls;
  h.sampled = true;
  // 0 means "not timed"; the low bit costs at most 1 ns.
  h.hold_begin_ns = runtime::now_ns_fast() | 1;
}

// Closes `lock`'s sampled window, if on_acquired opened one, and drops
// the entry when nothing else is left in it.
inline void on_released(const void* lock) {
  shield::HeldLockTable& tbl = shield::HeldLockTable::mine();
  lockdep::Hold* h = tbl.find(lock);
  if (h == nullptr || !h->sampled) return;
  h->sampled = false;
  on_hold_window(h->cls, h->hold_begin_ns, runtime::now_ns_fast());
  h->hold_begin_ns = 0;
  if (h->empty()) tbl.erase(lock, *h);
}

inline void on_trylock_fail(lockdep::ClassId cls) {
  ClassStats* s = LockStat::instance().stats_for(cls);
  if (s == nullptr) return;
  s->trylock_fails.fetch_add(1, std::memory_order_relaxed);
}

inline void on_misuse(lockdep::ClassId cls) {
  ClassStats* s = LockStat::instance().stats_for(cls);
  if (s == nullptr) return;
  s->misuses.fetch_add(1, std::memory_order_relaxed);
}

// A contended acquire that went through the parking tier: `parks`
// kernel sleeps totalling `park_ns` descheduled, `wakes` of them ended
// by a hand-off wake. The shield snapshots the thread's ParkTally
// around the base acquire and forwards the delta here, so attribution
// happens once per acquisition, off the park hot path.
inline void on_parked(lockdep::ClassId cls, std::uint64_t parks,
                      std::uint64_t park_ns, std::uint64_t wakes) {
  ClassStats* s = LockStat::instance().stats_for(cls);
  if (s == nullptr) return;
  s->parks.fetch_add(parks, std::memory_order_relaxed);
  s->park_ns.fetch_add(park_ns, std::memory_order_relaxed);
  s->wakes.fetch_add(wakes, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Reports (defined in lockstat.cpp).
// ---------------------------------------------------------------------

// Renders the /proc/lock_stat-shaped table: classes sorted by total
// wait, p50/p90/p99/max for wait and hold, worst `top_sites` call
// sites per class. `symbolize` resolves site addresses with dladdr
// (live, in-process reports); the offline analyzer passes false and
// prints raw hex.
void write_report(std::FILE* f, const std::vector<ClassReport>& classes,
                  std::size_t top_sites = 4, bool symbolize = true);

// Symbolizes one site address into `buf` ("func+0x1a2 [module]", raw
// "0x..." fallback). Exposed for tests.
void symbolize_site(std::uintptr_t site, char* buf, std::size_t len,
                    bool symbolize);

// Live report to `path` (truncating — current state, not a log), or to
// stderr when `path` is nullptr. True when the report was written.
bool dump_report(const char* path);

// ---------------------------------------------------------------------
// Live trigger (defined in lockstat.cpp). The signal handler only
// sets an atomic flag (the only async-signal-safe option); whoever
// polls consume_dump_request() — the telemetry collector's duty cycle
// in production — performs the actual dump.
// ---------------------------------------------------------------------

// Async-signal-safe: request a report dump.
void request_dump() noexcept;

// True exactly once per request (exchange semantics).
bool consume_dump_request() noexcept;

// Installs the dump-request handler on `signo`. Returns false when
// sigaction fails.
bool install_signal_trigger(int signo);

// Installs the trigger from the environment — RESILOCK_LOCKSTAT_SIGNAL
// (a signal number) or SIGUSR2 — when RESILOCK_LOCKSTAT is truthy or a
// signal is explicitly configured. Idempotent; called from the
// interpose cold paths and from Collector::start().
void install_signal_trigger_from_env();

}  // namespace resilock::observe
