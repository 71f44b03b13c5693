// Misuse event tracing: per-thread SPSC rings drained by a collector.
//
// Counters (shield_stats.hpp) say *that* misuse happened; production
// diagnosis needs *when*, *by whom*, and *on what*. Every shield
// violation and every lockdep report is recorded as a timestamped
// TraceEvent in the emitting thread's private ring — a single-producer
// single-consumer queue, so the emit path is wait-free and shares
// nothing with other threads. The producer's and the consumer's indices
// live on separate cache lines; the producer re-reads the consumer's
// index only when the free space it last saw is used up, and the
// consumer frees a whole batch with one store, so a push touches only
// the producer's own line and the slot it fills (whose line it asks
// back from the consumer one push ahead).
//
// A collector drains all rings through TraceBuffer::drain(); in
// production that collector is the background thread in src/telemetry/
// (adaptive duty cycle, batched sink writes), the only writer of
// RESILOCK_TRACE_FILE.
//
// With span tracing on, the shields and the park layer add one
// completed record per hold, per contended wait and per kernel sleep,
// emitted once at its end with the begin time the emitting layer
// already keeps: `ns` is the begin, `dur_ns` the length.
//
// Rings are bounded: when a producer outruns the collector the newest
// event is dropped and counted, never blocking the lock operation that
// triggered it — tracing must not perturb the thing it observes. Each
// drain that finds a ring's drop count moved delivers a drop record
// (kEventsDropped) for it, so a trace says where it is incomplete. The
// per-ring capacity defaults to EventRing::kDefaultCapacity and is
// tunable per process with RESILOCK_RING_CAPACITY (rounded up to a
// power of two): a long-running service pairs a larger ring with the
// background collector so bursts ride out the collector's sleep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "platform/cacheline.hpp"
#include "platform/env.hpp"
#include "platform/thread_registry.hpp"
#include "runtime/timer.hpp"

namespace resilock::lockdep {

// One tag space for every layer: the shield's four ownership misuses
// (values match shield::MisuseKind), the lockdep verdicts, the
// reader-writer misuses intercepted by RwShield (values match the
// response engine's ResponseEvent tail), and — beyond the response
// engine's vocabulary — the telemetry records emitted when
// RESILOCK_TELEMETRY_SPANS is on, which the Perfetto sink draws as
// lock-hold, contention and park slices on per-thread timeline tracks.
enum class EventKind : std::uint8_t {
  kUnbalancedUnlock = 0,
  kDoubleUnlock = 1,
  kNonOwnerUnlock = 2,
  kReentrantRelock = 3,
  kOrderInversion = 4,  // AB/BA two-lock order inversion
  kDeadlockCycle = 5,   // order cycle over three or more lock classes
  kUnbalancedReadUnlock = 6,   // runlock without a matching rlock
  kRwModeMismatch = 7,         // read hold released as write (or v.v.)
  kNonOwnerWriteUnlock = 8,    // wunlock while another thread writes
  // Telemetry records (opt-in, never routed through the response
  // engine), each emitted once when it ends: hold = base-protocol
  // acquisition .. balanced release, wait = the contended window of a
  // blocking acquire, park = one kernel sleep on a wait word, inside a
  // wait (`lock` is the wait-word address and `a` the shield-stamped
  // class hint).
  kHold = 9,
  kWait = 10,
  kPark = 11,
  // Drop record, made by the drainer rather than emitted: `pid`'s ring
  // dropped `dropped` events since its previous drop record.
  kEventsDropped = 12,
};

inline constexpr std::size_t kEventKinds = 13;
// Kinds below this value are misuse/lockdep reports; from it up to
// kEventsDropped, telemetry records.
inline constexpr std::size_t kFirstSpanKind = 9;

constexpr bool is_span_kind(EventKind k) noexcept {
  return static_cast<std::size_t>(k) >= kFirstSpanKind &&
         k != EventKind::kEventsDropped;
}

// Trace schema version, written once at the head of every trace file
// (a JSONL first line, a Perfetto metadata entry). Version 2: one
// completed record per hold/wait/park (`ns` + `dur_ns`) and drop
// records; version 1 had begin/end span pairs.
inline constexpr int kTraceSchemaVersion = 2;

constexpr const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kUnbalancedUnlock: return "unbalanced-unlock";
    case EventKind::kDoubleUnlock: return "double-unlock";
    case EventKind::kNonOwnerUnlock: return "non-owner-unlock";
    case EventKind::kReentrantRelock: return "reentrant-relock";
    case EventKind::kOrderInversion: return "order-inversion";
    case EventKind::kDeadlockCycle: return "deadlock-cycle";
    case EventKind::kUnbalancedReadUnlock: return "unbalanced-read-unlock";
    case EventKind::kRwModeMismatch: return "rw-mode-mismatch";
    case EventKind::kNonOwnerWriteUnlock: return "non-owner-write-unlock";
    case EventKind::kHold: return "hold";
    case EventKind::kWait: return "wait";
    case EventKind::kPark: return "park";
    case EventKind::kEventsDropped: return "events-dropped";
  }
  return "?";
}

// TraceEvent.verdict when the response engine was not consulted.
inline constexpr std::uint8_t kNoVerdict = 0xFF;
// TraceEvent.mode when the emitting layer tracks no AccessMode (the
// lockdep report path, hand-rolled test events). Real values are the
// AccessMode enum (core/access_mode.hpp).
inline constexpr std::uint8_t kNoMode = 0xFF;
// TraceEvent.a / .b when the event carries no class attribution
// (mirrors lockdep::kInvalidClass; a static_assert in lockdep.cpp
// keeps them in lock step).
inline constexpr std::uint32_t kNoClassTag = 0xFFFFFFFFu;

// One cache line per event: a ring slot is exactly one line, so a push
// writes one line and the consumer's read of it pulls in one line.
struct alignas(platform::kCacheLineSize) TraceEvent {
  // Trace clock (runtime::now_ns_fast()): an instant's time, a
  // record's begin.
  std::uint64_t ns = 0;
  // Records (hold, wait, park): begin .. end on the same clock; 0 for
  // instants.
  std::uint64_t dur_ns = 0;
  const void* lock = nullptr;   // the lock the op targeted
  // Acquisition call site (return address captured on the acquire
  // path) for hold and wait records; 0 when lockstat is off or the
  // event kind carries no site. uint64 rather than a pointer so
  // exporters can print it without a cast chain.
  std::uint64_t site = 0;
  // Drop records: events this pid's ring dropped since its previous
  // drop record. 0 for every other kind.
  std::uint64_t dropped = 0;
  std::uint32_t pid = 0;        // dense thread id of the emitter
  // Lockdep reports: source/destination class of the new edge. Misuse
  // events and records: `a` is the class the event is attributed to
  // (the shield's class, or the entry-level class of a hierarchical
  // lock) and `b` is unused. Generation-stamped ClassIds (slot +
  // generation), so a trace consumer resolving them later can detect
  // that the slot was recycled instead of misattributing. kNoClassTag
  // when unattributed.
  std::uint32_t a = kNoClassTag;
  std::uint32_t b = kNoClassTag;
  // Reader-writer payload: the lock's ReadIndicator estimate of live
  // readers at interception — the §4 damage radius a post-mortem wants
  // next to each rw misuse (with `mode` below).
  std::uint32_t readers = 0;
  EventKind kind = EventKind::kUnbalancedUnlock;
  // response::Action the engine returned for this event (kNoVerdict
  // when none was taken), so post-mortem traces show not just what
  // happened but what the engine decided to do about it.
  std::uint8_t verdict = kNoVerdict;
  // The AccessMode of the caller's hold (kNoMode outside the rw
  // family).
  std::uint8_t mode = kNoMode;
};
static_assert(sizeof(TraceEvent) == platform::kCacheLineSize);

// ---------------------------------------------------------------------
// Span tracing knob (RESILOCK_TELEMETRY_SPANS, runtime-settable).
// The shield's fast path checks this one relaxed flag before timing a
// hold or wait for its record; off (the default) the emit path is
// exactly the pre-telemetry code.
// ---------------------------------------------------------------------

namespace detail {
inline bool seed_span_tracing() {
  return platform::env_flag("RESILOCK_TELEMETRY_SPANS", false);
}
inline constinit platform::EnvSwitch span_tracing{seed_span_tracing};
}  // namespace detail

[[gnu::always_inline]] inline bool span_tracing_enabled() noexcept {
  return detail::span_tracing.on();
}

// Like set_lockstat: calibrates the fast clock before any span is timed.
inline void set_span_tracing(bool on) noexcept {
  if (on) runtime::calibrate_tsc();
  detail::span_tracing.set(on);
}

// RAII pin, mirroring LockdepModeGuard / MisuseCheckGuard.
class SpanTracingGuard {
 public:
  explicit SpanTracingGuard(bool on) : previous_(span_tracing_enabled()) {
    set_span_tracing(on);
  }
  ~SpanTracingGuard() { set_span_tracing(previous_); }
  SpanTracingGuard(const SpanTracingGuard&) = delete;
  SpanTracingGuard& operator=(const SpanTracingGuard&) = delete;

 private:
  const bool previous_;
};

// Lamport SPSC ring. The producer is whichever thread currently owns
// the pid slot (one at a time by construction of ThreadRegistry); the
// consumer is whoever calls TraceBuffer::drain().
class EventRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;  // power of two
  // Backward-compatible alias (tests and callers sized against it).
  static constexpr std::size_t kCapacity = kDefaultCapacity;
  static_assert((kDefaultCapacity & (kDefaultCapacity - 1)) == 0);

  // Capacity is rounded up to a power of two and clamped to
  // [64, 1 << 20] — big enough to ride out a collector duty cycle,
  // bounded so a typo'd env var cannot OOM the process.
  explicit EventRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(round_capacity(capacity)),
        buf_(new TraceEvent[capacity_]()) {}

  std::size_t capacity() const noexcept { return capacity_; }

  // Producer side. False (and one more drop) when the ring is full.
  // Only a push that finds the free space it last saw used up reads
  // the consumer's line.
  bool push(const TraceEvent& e) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_seen_ == capacity_) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (t - head_seen_ == capacity_) {
        // Single writer: a plain increment, no read-modify-write.
        dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        return false;
      }
    }
    buf_[t & (capacity_ - 1)] = e;
    tail_.store(t + 1, std::memory_order_release);
    // The consumer has read the next slot since this producer last
    // wrote it: ask for that line back now, not at the next push.
    __builtin_prefetch(&buf_[(t + 1) & (capacity_ - 1)], 1);
    return true;
  }

  // Consumer side: hands every queued event to `f` in FIFO order, read
  // in place, then frees their slots with one store. Returns the count.
  template <typename F>
  std::size_t consume(F&& f) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = h; i != t; ++i) f(buf_[i & (capacity_ - 1)]);
    if (t != h) head_.store(t, std::memory_order_release);
    return static_cast<std::size_t>(t - h);
  }

  // Consumer side, one event. False when the ring is empty.
  bool pop(TraceEvent& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = buf_[h & (capacity_ - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Push attempts (accepted + dropped) — the producer-side half of the
  // pipeline's exact accounting: emitted == delivered + dropped. Every
  // accepted push advanced the tail once, so no separate counter.
  std::uint64_t emitted() const {
    return tail_.load(std::memory_order_acquire) + dropped();
  }

  // Consumer side: drops since the previous call (the count a drop
  // record carries).
  std::uint64_t take_unreported_drops() {
    const std::uint64_t d = dropped();
    const std::uint64_t fresh = d - reported_drops_;
    reported_drops_ = d;
    return fresh;
  }

  static std::size_t round_capacity(std::size_t c) noexcept {
    if (c < 64) c = 64;
    if (c > (std::size_t{1} << 20)) c = std::size_t{1} << 20;
    std::size_t p = 64;
    while (p < c) p <<= 1;
    return p;
  }

 private:
  // Read-only after construction.
  const std::size_t capacity_;
  const std::unique_ptr<TraceEvent[]> buf_;
  // The consumer's line.
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  std::uint64_t reported_drops_ = 0;
  // The producer's line: tail, drop count, and the last head it read.
  alignas(platform::kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t head_seen_ = 0;
};

// Per-process ring capacity: RESILOCK_RING_CAPACITY, rounded/clamped
// as EventRing does. Read once, on the first ring allocation.
inline std::size_t ring_capacity_from_env() {
  static const std::size_t cap = EventRing::round_capacity(
      platform::env_u32("RESILOCK_RING_CAPACITY",
                        EventRing::kDefaultCapacity));
  return cap;
}

// First-use notification for the telemetry plane (src/telemetry/):
// registers the flush-before-abort hook and autostarts the background
// collector when it has a job (a trace file, a metrics file or
// lockstat). Idempotent, reentrancy-safe. Defined in
// telemetry/collector.cpp.
void telemetry_first_use_hook();

// Process-wide collector over lazily allocated per-pid rings.
class TraceBuffer {
 public:
  static TraceBuffer& instance() {
    static TraceBuffer tb;
    return tb;
  }

  // An instant, stamped now, from the calling thread (wait-free; the
  // ring is allocated on the thread's first event, never on the lock
  // fast path).
  void emit(EventKind kind, const void* lock,
            std::uint32_t a = kNoClassTag, std::uint32_t b = kNoClassTag,
            std::uint8_t verdict = kNoVerdict,
            std::uint8_t mode = kNoMode, std::uint32_t readers = 0,
            std::uint64_t site = 0) {
    TraceEvent e;
    e.ns = runtime::now_ns_fast();
    e.lock = lock;
    e.a = a;
    e.b = b;
    e.kind = kind;
    e.verdict = verdict;
    e.mode = mode;
    e.readers = readers;
    e.site = site;
    push(e);
  }

  // A completed record (hold, wait, park) spanning `begin_ns` ..
  // `end_ns`, two readings of runtime::now_ns_fast() the caller took.
  void emit_record(EventKind kind, const void* lock, std::uint32_t cls,
                   std::uint8_t mode, std::uint64_t site,
                   std::uint64_t begin_ns, std::uint64_t end_ns) {
    TraceEvent e;
    e.ns = begin_ns;
    e.dur_ns = end_ns > begin_ns ? end_ns - begin_ns : 0;
    e.lock = lock;
    e.a = cls;
    e.kind = kind;
    e.mode = mode;
    e.site = site;
    push(e);
  }

  // Drains every ring through `sink`; returns the number of events
  // delivered. A ring whose drop count moved since the previous drain
  // also gets a drop record, after its events; drop records are not
  // emitted events and are not in the count. `pressed`, when given, is
  // set to whether some ring was at least half full (or had dropped):
  // the producers are outrunning the drain cycle.
  //
  // SINGLE consumer: the contract is enforced — a second drainer
  // arriving while one is in progress (the background collector vs an
  // on-demand exporter) gets 0 immediately instead of silently
  // interleaving pops with the first.
  template <typename F>
  std::size_t drain(F&& sink, bool* pressed = nullptr) {
    if (draining_.exchange(true, std::memory_order_acquire)) {
      if (pressed != nullptr) *pressed = false;
      return 0;
    }
    std::size_t n = 0;
    bool full = false;
    for (std::uint32_t pid = 0; pid < platform::ThreadRegistry::kCapacity;
         ++pid) {
      EventRing* r = rings_[pid].load(std::memory_order_acquire);
      if (r == nullptr) continue;
      const std::size_t got = r->consume(sink);
      n += got;
      if (2 * got >= r->capacity()) full = true;
      if (const std::uint64_t lost = r->take_unreported_drops()) {
        full = true;
        TraceEvent d;
        d.ns = runtime::now_ns_fast();
        d.pid = pid;
        d.kind = EventKind::kEventsDropped;
        d.dropped = lost;
        sink(std::as_const(d));
      }
    }
    draining_.store(false, std::memory_order_release);
    if (pressed != nullptr) *pressed = full;
    return n;
  }

  std::vector<TraceEvent> drain_all() {
    std::vector<TraceEvent> v;
    drain([&](const TraceEvent& e) { v.push_back(e); });
    return v;
  }

  // Events discarded because a producer outran the collector.
  std::uint64_t dropped() const {
    std::uint64_t d = 0;
    for (const auto& slot : rings_) {
      const EventRing* r = slot.load(std::memory_order_acquire);
      if (r != nullptr) d += r->dropped();
    }
    return d;
  }

  // Emit attempts across all rings (delivered + still queued + dropped).
  std::uint64_t emitted() const {
    std::uint64_t n = 0;
    for (const auto& slot : rings_) {
      const EventRing* r = slot.load(std::memory_order_acquire);
      if (r != nullptr) n += r->emitted();
    }
    return n;
  }

 private:
  TraceBuffer() {
    for (auto& s : rings_) s.store(nullptr, std::memory_order_relaxed);
  }
  ~TraceBuffer() {
    for (auto& s : rings_) delete s.load(std::memory_order_relaxed);
  }
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void push(TraceEvent& e) {
    e.pid = platform::self_pid();
    ring_for(e.pid).push(e);
  }

  EventRing& ring_for(std::uint32_t pid) {
    EventRing* r = rings_[pid].load(std::memory_order_acquire);
    return r != nullptr ? *r : install_ring(pid);
  }

  // A pid's first event. Also the telemetry plane's first-use point,
  // kept off the emit path: the hook is idempotent, and it runs here,
  // after the buffer's construction completed, so a collector it
  // starts is built after the buffer and its final drain at exit runs
  // before the buffer's destructor.
  [[gnu::noinline]] EventRing& install_ring(std::uint32_t pid) {
    auto& slot = rings_[pid];
    EventRing* r = new EventRing(ring_capacity_from_env());
    EventRing* expected = nullptr;
    if (!slot.compare_exchange_strong(expected, r,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      delete r;  // pid slots recycle; a previous tenant installed one
      r = expected;
    }
    telemetry_first_use_hook();
    return *r;
  }

  std::atomic<EventRing*> rings_[platform::ThreadRegistry::kCapacity];
  // In-drain guard: enforces the single-consumer contract now that the
  // background collector and on-demand exporters can race.
  std::atomic<bool> draining_{false};
};

}  // namespace resilock::lockdep
