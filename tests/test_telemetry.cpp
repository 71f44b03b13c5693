// The observability plane (src/telemetry/): background collector,
// sinks, metrics registry, span tracing, and the abort-flush path.
//
//   * overload — a producer burst outruns any consumer; drops are
//     counted EXACTLY (emitted == delivered + dropped), the emit path
//     never blocks, and the drop counters surface in the metrics
//     snapshot;
//   * drain guard — TraceBuffer::drain's single-consumer contract is
//     enforced: a drainer arriving while one is in progress gets 0;
//   * spans — one hold/wait record per hold / contended wait, only
//     behind the opt-in flag, carrying the rw mode payload, sharing
//     lockstat's timestamps and the misuse instants' clock;
//   * drop records and the hard drain — loss is reported in the
//     stream, and a half-full ring re-drains without a sleep;
//   * perfetto sink — the produced chrome-trace document is
//     well-formed, with instants for misuse and drops and "X" slices
//     for records;
//   * abort flush — an aborting lockdep verdict lands its own trace
//     event in RESILOCK_TRACE_FILE even though std::abort() skips
//     atexit handlers (death test).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "platform/thread_registry.hpp"
#include "response/response.hpp"
#include "runtime/timer.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

using namespace resilock;
using lockdep::EventKind;
using lockdep::TraceBuffer;
using lockdep::TraceEvent;
using telemetry::Collector;
using telemetry::MetricsRegistry;

namespace {

void clear_trace() { TraceBuffer::instance().drain_all(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Sink that counts instead of writing; `marked` counts only events on
// the test's own lock pointer so leftovers from other tests' threads
// cannot skew the accounting.
class CountingSink final : public telemetry::Sink {
 public:
  CountingSink(std::atomic<std::uint64_t>* total,
               std::atomic<std::uint64_t>* marked, const void* marker)
      : total_(total), marked_(marked), marker_(marker) {}
  const char* name() const noexcept override { return "counting"; }
  void consume(const TraceEvent& e) override {
    total_->fetch_add(1, std::memory_order_relaxed);
    if (e.lock == marker_) marked_->fetch_add(1, std::memory_order_relaxed);
  }
  void flush() override {}
  void close() override {}
  std::uint64_t written() const noexcept override {
    return total_->load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* total_;
  std::atomic<std::uint64_t>* marked_;
  const void* marker_;
};

}  // namespace

// ---------------------------------------------------------------------
// Abort flush. Declared first (and run with the threadsafe style, which
// re-executes the binary) so the forked child never inherits a
// half-alive collector thread from an earlier test.
// ---------------------------------------------------------------------

namespace {
[[noreturn]] void die_with_inversion(const char* path) {
  setenv("RESILOCK_TRACE_FILE", path, 1);
  shield::ShieldPolicyGuard dflt(shield::ShieldPolicy::kSuppress);
  lockdep::LockdepModeGuard mode(lockdep::LockdepMode::kReport);
  response::ResponseRulesGuard rules("lockdep=abort");
  Shield<TasLock> a, b;
  a.acquire();
  b.acquire();  // edge A->B
  b.release();
  a.release();
  b.acquire();
  a.acquire();  // closing edge B->A: inversion -> abort verdict
  std::abort();  // unreachable: the verdict died first
}
}  // namespace

TEST(TelemetryAbortDeathTest, AbortVerdictLandsItsTraceOnDisk) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "resilock_abort_trace.jsonl";
  std::remove(path.c_str());
  EXPECT_EXIT(die_with_inversion(path.c_str()),
              ::testing::KilledBySignal(SIGABRT), "");
  // std::abort() skipped atexit, but the response engine's flush hook
  // drained the rings first: the aborting inversion is on disk.
  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"kind\":\"order-inversion\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"verdict\":\"abort\""), std::string::npos);
  std::remove(path.c_str());
  unsetenv("RESILOCK_TRACE_FILE");
}

// ---------------------------------------------------------------------
// Fast-clock calibration: on a cold path, never inside a timed hold.
// Each case runs in a fresh process, where nothing has calibrated yet.
// ---------------------------------------------------------------------

namespace {

// Exits 0 when the process starts uncalibrated and `turn_on` leaves
// the clock calibrated before the first timed hold.
[[noreturn]] void calibrated_before_first_hold(void (*turn_on)()) {
  const bool fresh = !runtime::tsc_calibrated();
  turn_on();
  const bool ready = runtime::tsc_calibrated();
  Shield<TasLock> lock;
  lock.acquire();
  lock.release();
  std::_Exit(fresh && ready ? 0 : 1);
}

// Exits 0 when the collector thread calibrates a fresh process by
// itself: the env-seeded path, where no set_*() call turns timing on.
[[noreturn]] void collector_calibrates() {
  const bool fresh = !runtime::tsc_calibrated();
  Collector::instance().start();
  for (int i = 0; i < 2000 && !runtime::tsc_calibrated(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::_Exit(fresh && runtime::tsc_calibrated() ? 0 : 1);
}

}  // namespace

TEST(TscCalibrationDeathTest, CalibratedOnColdPathsBeforeTheFirstHold) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "now_ns_fast() is now_ns() here: nothing to calibrate";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      calibrated_before_first_hold([] { observe::set_lockstat(true); }),
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      calibrated_before_first_hold([] { lockdep::set_span_tracing(true); }),
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(collector_calibrates(), ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------
// EventRing: runtime capacity.
// ---------------------------------------------------------------------

TEST(EventRingCapacity, RoundsToPowerOfTwoAndClamps) {
  using lockdep::EventRing;
  EXPECT_EQ(EventRing::round_capacity(0), 64u);
  EXPECT_EQ(EventRing::round_capacity(64), 64u);
  EXPECT_EQ(EventRing::round_capacity(65), 128u);
  EXPECT_EQ(EventRing::round_capacity(300), 512u);
  EXPECT_EQ(EventRing::round_capacity(std::size_t{1} << 30),
            std::size_t{1} << 20);
  EXPECT_EQ(EventRing(300).capacity(), 512u);
}

TEST(EventRingCapacity, WrapsExactlyAtRuntimeCapacity) {
  lockdep::EventRing r(256);
  ASSERT_EQ(r.capacity(), 256u);
  TraceEvent e;
  std::uint64_t next_out = 0;
  for (std::uint64_t i = 0; i < 10 * 256; ++i) {
    e.ns = i;
    ASSERT_TRUE(r.push(e));
    if (i % 2 == 1) {
      TraceEvent out;
      ASSERT_TRUE(r.pop(out));
      EXPECT_EQ(out.ns, next_out++);
      ASSERT_TRUE(r.pop(out));
      EXPECT_EQ(out.ns, next_out++);
    }
  }
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_EQ(r.emitted(), 10u * 256);
  // Overfill: exactly capacity retained, the rest counted.
  while (r.push(e)) {
  }
  EXPECT_EQ(r.dropped(), 1u);
}

// ---------------------------------------------------------------------
// Drain guard: single consumer, enforced.
// ---------------------------------------------------------------------

TEST(DrainGuard, SecondConsumerGetsZero) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int marker = 0;
  tb.emit(EventKind::kDoubleUnlock, &marker);
  tb.emit(EventKind::kDoubleUnlock, &marker);
  // A drain started from inside a drain IS a second concurrent
  // consumer — deterministically mid-drain.
  std::size_t inner = 12345;
  const std::size_t outer = tb.drain([&](const TraceEvent&) {
    inner = tb.drain([](const TraceEvent&) {});
  });
  EXPECT_EQ(outer, 2u);
  EXPECT_EQ(inner, 0u);
  // The guard releases: a later drain works again.
  tb.emit(EventKind::kDoubleUnlock, &marker);
  EXPECT_EQ(tb.drain([](const TraceEvent&) {}), 1u);
}

// ---------------------------------------------------------------------
// Collector: overload, exact accounting, metrics surfacing.
// ---------------------------------------------------------------------

TEST(Collector, OverloadCountsEveryDropExactly) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  Collector& c = Collector::instance();
  ASSERT_FALSE(c.running());

  int marker = 0;
  const std::uint64_t emitted_before = tb.emitted();
  const std::uint64_t dropped_before = tb.dropped();
  // Burst with NO consumer running: the emit path must never block —
  // the ring keeps the oldest `capacity` events and counts the rest.
  constexpr std::uint64_t kBurst = 10000;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    tb.emit(EventKind::kNonOwnerUnlock, &marker);
  }
  const std::uint64_t emitted = tb.emitted() - emitted_before;
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  EXPECT_EQ(emitted, kBurst);
  ASSERT_GT(dropped, 0u);

  // Now bring up the collector; it must deliver exactly the survivors.
  std::atomic<std::uint64_t> total{0}, marked{0};
  c.add_sink(std::make_unique<CountingSink>(&total, &marked, &marker));
  ASSERT_TRUE(c.start());
  ASSERT_TRUE(c.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (marked.load() < kBurst - dropped &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  c.stop();
  ASSERT_FALSE(c.running());

  // Exact accounting: every burst event was delivered or counted.
  EXPECT_EQ(marked.load() + dropped, kBurst);
  const telemetry::CollectorStats cs = c.stats();
  EXPECT_GE(cs.events_delivered, marked.load());
  EXPECT_GT(cs.drain_cycles, 0u);

  // The drop counter is a first-class metric.
  const telemetry::MetricsSnapshot m = MetricsRegistry::instance().snapshot();
  EXPECT_GE(m.value("trace.events_dropped"), dropped);
  EXPECT_GE(m.value("trace.events_emitted"), emitted);
  EXPECT_EQ(m.value("collector.running"), 0u);
}

TEST(Collector, ProducerOutrunsRunningCollectorWithoutBlocking) {
  clear_trace();
  Collector& c = Collector::instance();
  auto& tb = TraceBuffer::instance();
  int marker = 0;
  std::atomic<std::uint64_t> total{0}, marked{0};
  c.add_sink(std::make_unique<CountingSink>(&total, &marked, &marker));
  ASSERT_TRUE(c.start());

  const std::uint64_t emitted_before = tb.emitted();
  const std::uint64_t dropped_before = tb.dropped();
  constexpr std::uint64_t kEvents = 300000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      tb.emit(EventKind::kReentrantRelock, &marker);
    }
  });
  producer.join();
  c.stop();  // final drain: nothing stays queued

  const std::uint64_t emitted = tb.emitted() - emitted_before;
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  EXPECT_EQ(emitted, kEvents);
  // Exact accounting under live contention between producer and the
  // background thread: delivered + dropped == emitted, nothing lost,
  // nothing duplicated.
  EXPECT_EQ(marked.load() + dropped, kEvents);
}

TEST(Collector, RestartsWithFreshSinksAndAutostartRespectsEnv) {
  clear_trace();
  Collector& c = Collector::instance();
  ASSERT_FALSE(c.running());
  // No file to write and no lockstat to serve: no collector.
  unsetenv("RESILOCK_TRACE_FILE");
  unsetenv("RESILOCK_METRICS_FILE");
  unsetenv("RESILOCK_LOCKSTAT");
  telemetry::autostart_from_env();
  EXPECT_FALSE(c.running());
  // A trace file is a job: the collector comes up with the file's sink
  // and stop() closes it.
  const std::string path =
      ::testing::TempDir() + "resilock_autostart.jsonl";
  std::remove(path.c_str());
  setenv("RESILOCK_TRACE_FILE", path.c_str(), 1);
  telemetry::autostart_from_env();
  EXPECT_TRUE(c.running());
  int marker = 0;
  TraceBuffer::instance().emit(EventKind::kDoubleUnlock, &marker);
  c.stop();
  EXPECT_FALSE(c.running());
  // A restart builds a fresh sink from the environment; the file keeps
  // its one schema line and gains the second event.
  telemetry::autostart_from_env();
  EXPECT_TRUE(c.running());
  TraceBuffer::instance().emit(EventKind::kDoubleUnlock, &marker);
  c.stop();
  unsetenv("RESILOCK_TRACE_FILE");
  const std::string trace = slurp(path);
  std::size_t schemas = 0, events = 0;
  for (std::size_t at = 0;
       (at = trace.find("\"schema\"", at)) != std::string::npos; ++at) {
    ++schemas;
  }
  for (std::size_t at = 0;
       (at = trace.find("\"double-unlock\"", at)) != std::string::npos;
       ++at) {
    ++events;
  }
  EXPECT_EQ(schemas, 1u) << trace;
  EXPECT_EQ(events, 2u) << trace;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Span tracing: one completed record per hold, contended wait and park.
// ---------------------------------------------------------------------

namespace {

std::vector<TraceEvent> events_on(const void* lock) {
  std::vector<TraceEvent> out;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock == lock) out.push_back(e);
  }
  return out;
}

}  // namespace

TEST(Spans, OffByDefaultOneHoldRecordWithGuard) {
  clear_trace();
  Shield<TasLock> lock;
  lock.acquire();
  lock.release();
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    EXPECT_FALSE(lockdep::is_span_kind(e.kind)) << to_string(e.kind);
  }

  lockdep::SpanTracingGuard spans(true);
  const std::uint64_t before = runtime::now_ns_fast();
  lock.acquire();
  lock.release();
  const std::uint64_t after = runtime::now_ns_fast();
  const auto evs = events_on(&lock);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, EventKind::kHold);
  EXPECT_EQ(evs[0].a, lock.lockdep_class());
  // The record is the hold: it begins and ends inside the pair.
  EXPECT_GE(evs[0].ns, before);
  EXPECT_LE(evs[0].ns + evs[0].dur_ns, after);
}

TEST(Spans, ContendedAcquireEmitsOneWaitRecord) {
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  Shield<TasLock> lock;
  std::atomic<bool> held{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lock.release();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  lock.acquire();  // observed held: the contended window is recorded
  lock.release();
  holder.join();
  int holds = 0, waits = 0;
  std::uint64_t longest_wait = 0;
  for (const auto& e : events_on(&lock)) {
    if (e.kind == EventKind::kHold) ++holds;
    if (e.kind == EventKind::kWait) {
      ++waits;
      longest_wait = std::max(longest_wait, e.dur_ns);
    }
  }
  EXPECT_EQ(holds, 2);
  EXPECT_EQ(static_cast<std::uint64_t>(waits), lock.contended_total());
  EXPECT_GE(waits, 1);
  // The waiter sat behind a 20 ms hold.
  EXPECT_GT(longest_wait, 1000000u);
}

TEST(Spans, RwHoldRecordsCarryTheMode) {
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  using Rw = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  RwShield<Rw> rw;
  Rw::Context rctx, wctx;
  rw.rlock(rctx);
  EXPECT_TRUE(rw.runlock(rctx));
  rw.wlock(wctx);
  EXPECT_TRUE(rw.wunlock(wctx));
  bool saw_read_hold = false, saw_write_hold = false;
  for (const auto& e : events_on(&rw)) {
    ASSERT_EQ(e.kind, EventKind::kHold);
    if (e.mode == static_cast<std::uint8_t>(AccessMode::kRead)) {
      saw_read_hold = true;
    }
    if (e.mode == static_cast<std::uint8_t>(AccessMode::kWrite)) {
      saw_write_hold = true;
    }
  }
  EXPECT_TRUE(saw_read_hold);
  EXPECT_TRUE(saw_write_hold);
}

TEST(Spans, RecordsMatchHoldsWaitsAndLockstatWindows) {
  // A scripted run with spans on and every hold window timed: one hold
  // record per hold, one wait record per contended wait, and each
  // record's length is exactly the window lockstat recorded — the two
  // layers read the same two timestamps.
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  observe::LockstatGuard lockstat(true);
  observe::LockstatSampleGuard every_hold(1);
  Shield<TasLock> lock;
  lock.acquire();  // registers the class (and is one hold)
  lock.release();
  const observe::ClassStats* st =
      observe::LockStat::instance().peek(lock.lockdep_class());
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(events_on(&lock).size(), 1u);

  constexpr int kHolds = 50;
  for (int i = 0; i < kHolds; ++i) {
    const auto before = st->hold.snapshot();
    lock.acquire();
    runtime::busy_work(static_cast<std::uint64_t>(i) * 20);
    lock.release();
    const auto after = st->hold.snapshot();
    const auto evs = events_on(&lock);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, EventKind::kHold);
    ASSERT_EQ(after.count, before.count + 1);
    EXPECT_EQ(evs[0].dur_ns, after.total - before.total) << i;
  }

  // Contended waits, scripted: a holder keeps the lock until the
  // waiter registered as one, then lets it go.
  const std::uint64_t contended0 = lock.contended_total();
  const auto wait0 = st->wait.snapshot();
  constexpr int kRounds = 5;
  std::uint64_t records = 0, holds = 0, waits = 0, wait_ns = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<bool> held{false};
    std::thread holder([&] {
      lock.acquire();
      held.store(true, std::memory_order_release);
      while (lock.waiters() == 0) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lock.release();
    });
    while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
    lock.acquire();
    lock.release();
    holder.join();
    for (const auto& e : events_on(&lock)) {
      ++records;
      if (e.kind == EventKind::kHold) ++holds;
      if (e.kind == EventKind::kWait) {
        ++waits;
        wait_ns += e.dur_ns;
      }
    }
  }
  const std::uint64_t contended = lock.contended_total() - contended0;
  EXPECT_EQ(holds, 2u * kRounds);
  EXPECT_EQ(waits, contended);
  EXPECT_GE(waits, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(records, holds + contended);
  const auto wait1 = st->wait.snapshot();
  EXPECT_EQ(wait1.count - wait0.count, waits);
  EXPECT_EQ(wait1.total - wait0.total, wait_ns);
}

TEST(Spans, ContendedHoldStartsAtItsWaitsEnd) {
  // A forced contended acquire with spans on: the hold it wins starts
  // at the wait's end reading, not at a second one, so the wait record
  // ends exactly where the waiter's hold record begins (the hold's
  // begin carries the low "timed" bit).
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  Shield<TasLock> lock;
  std::atomic<bool> held{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true, std::memory_order_release);
    while (lock.waiters() == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lock.release();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  lock.acquire();
  lock.release();
  holder.join();
  const std::uint32_t me = platform::self_pid();
  const TraceEvent* wait = nullptr;
  const TraceEvent* hold = nullptr;
  const auto evs = events_on(&lock);
  for (const auto& e : evs) {
    if (e.pid != me) continue;
    if (e.kind == EventKind::kWait) wait = &e;
    if (e.kind == EventKind::kHold) hold = &e;
  }
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(hold, nullptr);
  EXPECT_GT(wait->dur_ns, 0u);
  EXPECT_EQ((wait->ns + wait->dur_ns) | 1, hold->ns);
}

TEST(Spans, OverlappingHoldsThatDoNotNestAreTwoSlices) {
  // acquire A, acquire B, release A, release B: two records whose
  // windows overlap without nesting, and two "X" slices in Perfetto.
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  Shield<TasLock> a, b;
  a.acquire();
  b.acquire();
  a.release();
  b.release();
  std::vector<TraceEvent> holds;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock == &a || e.lock == &b) holds.push_back(e);
  }
  ASSERT_EQ(holds.size(), 2u);
  // Emitted at the end: A's release comes first.
  const TraceEvent& ra = holds[0];
  const TraceEvent& rb = holds[1];
  ASSERT_EQ(ra.lock, &a);
  ASSERT_EQ(rb.lock, &b);
  EXPECT_LE(ra.ns, rb.ns);
  EXPECT_LE(rb.ns, ra.ns + ra.dur_ns);
  EXPECT_LE(ra.ns + ra.dur_ns, rb.ns + rb.dur_ns);

  const std::string path = ::testing::TempDir() + "resilock_overlap.json";
  std::remove(path.c_str());
  auto sink = telemetry::make_perfetto_sink(path.c_str());
  ASSERT_NE(sink, nullptr);
  for (const auto& e : holds) sink->consume(e);
  sink->close();
  const std::string doc = slurp(path);
  std::size_t slices = 0;
  for (std::size_t p = doc.find("\"ph\":\"X\""); p != std::string::npos;
       p = doc.find("\"ph\":\"X\"", p + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, 2u) << doc;
  std::remove(path.c_str());
}

TEST(Spans, MisuseInstantsAndHoldsShareOneClock) {
  // A misuse instant inside a hold lands inside that hold's slice, and
  // the trace clock starts on the steady clock's epoch.
  clear_trace();
  lockdep::SpanTracingGuard spans(true);
  shield::ShieldPolicyGuard policy(shield::ShieldPolicy::kSuppress);
  response::ResponseRulesGuard rules("");
  Shield<TasLock> outer, victim;
  outer.acquire();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(victim.release());  // unbalanced unlock: an instant
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  outer.release();
  const TraceEvent* hold = nullptr;
  const TraceEvent* misuse = nullptr;
  const auto evs = TraceBuffer::instance().drain_all();
  for (const auto& e : evs) {
    if (e.lock == &outer && e.kind == EventKind::kHold) hold = &e;
    if (e.lock == &victim) misuse = &e;
  }
  ASSERT_NE(hold, nullptr);
  ASSERT_NE(misuse, nullptr);
  EXPECT_EQ(misuse->kind, EventKind::kUnbalancedUnlock);
  EXPECT_GT(misuse->ns, hold->ns);
  EXPECT_LT(misuse->ns, hold->ns + hold->dur_ns);
  const std::int64_t skew = static_cast<std::int64_t>(
      runtime::now_ns_fast() - runtime::now_ns());
  EXPECT_LT(std::llabs(skew), 50'000'000) << skew;
}

// ---------------------------------------------------------------------
// Drop records.
// ---------------------------------------------------------------------

TEST(DropRecords, DrainReportsEachRingsNewDropsOnce) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int marker = 0;
  const std::uint64_t dropped0 = tb.dropped();
  std::uint32_t pid = 0;
  std::thread producer([&] {
    pid = platform::self_pid();
    for (int i = 0; i < 5000; ++i) tb.emit(EventKind::kDoubleUnlock, &marker);
  });
  producer.join();
  const std::uint64_t lost = tb.dropped() - dropped0;
  ASSERT_GT(lost, 0u);
  std::uint64_t marked = 0, reported = 0, records = 0;
  const std::size_t n = tb.drain([&](const TraceEvent& e) {
    if (e.lock == &marker) ++marked;
    if (e.kind == EventKind::kEventsDropped) {
      ++records;
      EXPECT_EQ(e.pid, pid);
      reported += e.dropped;
    }
  });
  // Drop records are not emitted events: not in the delivered count.
  EXPECT_EQ(n, marked);
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(reported, lost);
  EXPECT_EQ(marked + lost, 5000u);
  // Reported once: the next drain has nothing new to say.
  for (const auto& e : tb.drain_all()) {
    EXPECT_NE(e.kind, EventKind::kEventsDropped);
  }
}

TEST(Collector, HalfFullRingTriggersHardDrain) {
  // Three producers emit bursts of 100 events into default-sized
  // (128-slot) rings, pausing between bursts. A drain that finds a ring
  // at least half full re-drains at once instead of sleeping. A rule
  // keyed to the events one cycle pulls over all rings (1024, eight
  // full default rings) never fires here: three rings hold 384 at most
  // and the pauses keep a drain from outrunning its producers.
  clear_trace();
  Collector& c = Collector::instance();
  std::atomic<std::uint64_t> total{0}, marked{0};
  int marker = 0;
  c.add_sink(std::make_unique<CountingSink>(&total, &marked, &marker));
  ASSERT_TRUE(c.start());
  const std::uint64_t hard0 = c.stats().hard_drains;
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 100; ++i) {
          TraceBuffer::instance().emit(EventKind::kNonOwnerUnlock, &marker);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (c.stats().hard_drains == hard0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : producers) t.join();
  c.stop();
  EXPECT_GT(c.stats().hard_drains, hard0);
}

// ---------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------

TEST(PerfettoSink, ProducesOneValidDocumentWithInstantsAndSlices) {
  const std::string path =
      ::testing::TempDir() + "resilock_perfetto_test.json";
  std::remove(path.c_str());
  auto sink = telemetry::make_perfetto_sink(path.c_str());
  ASSERT_NE(sink, nullptr);

  int marker = 0;
  TraceEvent e;
  e.pid = 7;
  e.lock = &marker;
  e.ns = 1000;
  e.kind = EventKind::kDoubleUnlock;
  e.verdict = static_cast<std::uint8_t>(response::Action::kSuppress);
  sink->consume(e);  // instant
  e.kind = EventKind::kHold;
  e.ns = 2000;
  e.dur_ns = 3000;
  e.verdict = lockdep::kNoVerdict;
  sink->consume(e);  // a 3us slice, as it is
  TraceEvent drop;
  drop.pid = 7;
  drop.ns = 6000;
  drop.kind = EventKind::kEventsDropped;
  drop.dropped = 5;
  sink->consume(drop);  // instant on the thread's track
  EXPECT_EQ(sink->written(), 3u);
  sink->close();

  const std::string doc = slurp(path);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u) << doc;
  EXPECT_NE(doc.find("]}"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"lock-hold\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":2.000,\"dur\":3.000"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("double-unlock"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"events-dropped\""), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":5"), std::string::npos);
  EXPECT_NE(doc.find("{\"name\":\"trace_schema\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":0,\"args\":{\"name\":\"resilock-trace\","
                     "\"version\":2}}"),
            std::string::npos)
      << doc;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Offline analyzer (tools/resilock_report) over the sinks' output.
// ---------------------------------------------------------------------

namespace {

struct ReportRun {
  int status = -1;
  std::string out;
};

// Runs the analyzer on `trace`; stdout and stderr are captured together.
ReportRun run_report(const std::string& trace, const std::string& args) {
  ReportRun r;
  const std::string cmd = std::string(RESILOCK_REPORT_BIN) + " " + trace +
                          " " + args + " 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p) != nullptr) r.out += buf;
  r.status = pclose(p);
  return r;
}

// Two holds, one contended wait, one park and two drop records of one
// thread, through `sink`.
void feed_records(telemetry::Sink& sink, const void* lock,
                  std::uint32_t cls) {
  TraceEvent e;
  e.pid = 3;
  e.lock = lock;
  e.a = cls;
  e.kind = EventKind::kWait;
  e.ns = 1000;
  e.dur_ns = 4000;
  sink.consume(e);
  e.kind = EventKind::kHold;
  e.ns = 5000;
  e.dur_ns = 2000;
  e.site = 0x1234;
  sink.consume(e);
  e.ns = 9000;
  sink.consume(e);
  e.kind = EventKind::kPark;
  e.ns = 1500;
  e.dur_ns = 3000;
  e.site = 0;
  sink.consume(e);
  TraceEvent drop;
  drop.pid = 3;
  drop.kind = EventKind::kEventsDropped;
  drop.ns = 12000;
  drop.dropped = 7;
  sink.consume(drop);
  drop.ns = 13000;
  drop.dropped = 5;
  sink.consume(drop);
  sink.close();
}

}  // namespace

TEST(Report, ReadsRecordsAndCountsDropsInBothFormats) {
  int lock = 0;
  const lockdep::ClassId cls =
      lockdep::Graph::instance().register_class(&lock, "report.cls");
  for (const bool perfetto : {false, true}) {
    SCOPED_TRACE(perfetto ? "perfetto" : "jsonl");
    const std::string path = ::testing::TempDir() + "resilock_report_in";
    const std::string json = ::testing::TempDir() + "resilock_report.json";
    std::remove(path.c_str());
    auto sink = perfetto ? telemetry::make_perfetto_sink(path.c_str())
                         : telemetry::make_jsonl_sink(path.c_str());
    ASSERT_NE(sink, nullptr);
    feed_records(*sink, &lock, cls);
    const ReportRun r = run_report(path, "--json " + json);
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(r.out.rfind("incomplete: 12 events dropped\n", 0), 0u)
        << r.out;
    EXPECT_NE(r.out.find("report.cls"), std::string::npos) << r.out;
    const std::string doc = slurp(json);
    EXPECT_NE(doc.find("\"dropped_events\":12"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"waits\":1,\"acquisitions\":2"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"wait_total_ns\":4000"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"hold_total_ns\":4000,\"parks\":1,\"park_ns\":3000"),
              std::string::npos)
        << doc;
    std::remove(path.c_str());
    std::remove(json.c_str());
  }
  lockdep::Graph::instance().retire_class(cls);
}

TEST(Report, RefusesAVersionOneTrace) {
  const std::string path = ::testing::TempDir() + "resilock_report_v1";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"ns\":1,\"kind\":\"hold-begin\",\"lock\":\"0x10\",\"pid\":0}\n"
        "{\"ns\":9,\"kind\":\"hold-end\",\"lock\":\"0x10\",\"pid\":0}\n",
        f);
    std::fclose(f);
  }
  ReportRun r = run_report(path, "");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("schema v1 trace"), std::string::npos) << r.out;
  EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 1) << r.out;
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"traceEvents\":[{\"name\":\"lock-hold\",\"ph\":\"X\","
               "\"ts\":1.0,\"dur\":2.0,\"pid\":0,\"tid\":1}]}\n",
               f);
    std::fclose(f);
  }
  r = run_report(path, "");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("schema v1 trace"), std::string::npos) << r.out;
  std::remove(path.c_str());
}

TEST(Sinks, EnvSelectsFormatAndJsonlAppends) {
  const std::string path = ::testing::TempDir() + "resilock_sink_env.log";
  std::remove(path.c_str());
  setenv("RESILOCK_TRACE_FILE", path.c_str(), 1);
  setenv("RESILOCK_TRACE_FORMAT", "perfetto", 1);
  {
    auto sink = telemetry::make_sink_from_env();
    ASSERT_NE(sink, nullptr);
    EXPECT_STREQ(sink->name(), "perfetto");
    sink->close();
  }
  setenv("RESILOCK_TRACE_FORMAT", "jsonl", 1);
  {
    auto sink = telemetry::make_sink_from_env();
    ASSERT_NE(sink, nullptr);
    EXPECT_STREQ(sink->name(), "jsonl");
    TraceEvent e;
    e.kind = EventKind::kDoubleUnlock;
    sink->consume(e);
    sink->close();
  }
  // jsonl opens in append mode: the perfetto document head written
  // above is still there, with one JSONL line after it.
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"kind\":\"double-unlock\""), std::string::npos);
  unsetenv("RESILOCK_TRACE_FILE");
  unsetenv("RESILOCK_TRACE_FORMAT");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, SnapshotCoversEveryLayerAndCustomGauges) {
  auto& reg = MetricsRegistry::instance();
  std::atomic<std::uint64_t> custom{41};
  reg.register_gauge("test.custom", [&] { return custom.load(); });
  custom.store(42);
  ContentionProbe probe;
  probe.begin_wait();
  reg.register_contention_probe("test.probe", &probe);

  const telemetry::MetricsSnapshot s = reg.snapshot();
  EXPECT_GT(s.ns, 0u);
  EXPECT_EQ(s.value("test.custom"), 42u);
  EXPECT_EQ(s.value("test.probe.waiters"), 1u);
  EXPECT_EQ(s.value("test.probe.contended_total"), 1u);
  // One representative per built-in source; value(name, fallback=0)
  // with a sentinel fallback proves presence, not magnitude.
  EXPECT_NE(s.value("response.decisions", 999999), 999999u);
  EXPECT_NE(s.value("response.event.double-unlock", 999999), 999999u);
  EXPECT_NE(s.value("response.action.suppress", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.edges", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.rr_skipped", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.chains", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.chain_walks", 999999), 999999u);
  EXPECT_NE(s.value("lockdep.chain_set_full", 999999), 999999u);
  EXPECT_NE(s.value("trace.events_dropped", 999999), 999999u);
  EXPECT_NE(s.value("collector.sleep_us", 999999), 999999u);

  probe.end_wait();
  reg.unregister_contention_probe("test.probe");
  reg.unregister_gauge("test.custom");
  EXPECT_EQ(reg.snapshot().value("test.custom", 7), 7u);
}

TEST(Metrics, DumpsTextAndJson) {
  auto& reg = MetricsRegistry::instance();
  const std::string path = ::testing::TempDir() + "resilock_metrics_test";
  ASSERT_TRUE(reg.dump(path.c_str(), telemetry::MetricsFormat::kText));
  std::string text = slurp(path);
  EXPECT_NE(text.find("trace.events_emitted="), std::string::npos) << text;
  EXPECT_NE(text.find("lockdep.classes_live="), std::string::npos);

  ASSERT_TRUE(reg.dump(path.c_str(), telemetry::MetricsFormat::kJson));
  text = slurp(path);
  // Truncate-on-dump: the text dump is gone, one JSON object remains.
  EXPECT_EQ(text.rfind("{\"ns\":", 0), 0u) << text;
  EXPECT_NE(text.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(text.find("\"response.decisions\":"), std::string::npos);
  EXPECT_EQ(text.find('='), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, CollectorDumpsPeriodicallyWhenConfigured) {
  clear_trace();
  const std::string path =
      ::testing::TempDir() + "resilock_metrics_periodic";
  std::remove(path.c_str());
  setenv("RESILOCK_METRICS_FILE", path.c_str(), 1);
  setenv("RESILOCK_METRICS_FORMAT", "json", 1);
  setenv("RESILOCK_METRICS_INTERVAL_MS", "10", 1);
  Collector& c = Collector::instance();
  ASSERT_TRUE(c.start());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (c.stats().metrics_dumps < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  c.stop();
  EXPECT_GE(c.stats().metrics_dumps, 2u);
  const std::string text = slurp(path);
  EXPECT_EQ(text.rfind("{\"ns\":", 0), 0u) << text;
  unsetenv("RESILOCK_METRICS_FILE");
  unsetenv("RESILOCK_METRICS_FORMAT");
  unsetenv("RESILOCK_METRICS_INTERVAL_MS");
  std::remove(path.c_str());
}
