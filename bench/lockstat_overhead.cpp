// Lockstat overhead: what does per-class statistics collection cost
// the lock paths, and do its counters reconcile with the shield's?
//
// Three phases:
//
//   fast-path   one thread hammers an uncontended Shield<TasLock>
//               acquire/release pair with lockstat off, then on. Off
//               must be the pre-lockstat fast path (one relaxed flag
//               load); on pays the exact tallies plus the sampled
//               hold windows. Measured twice: at the default 1-in-8
//               hold sampling (the production configuration, priced
//               against the repo's standing 2x budget) and at
//               RESILOCK_LOCKSTAT_SAMPLE=1 (exact hold windows —
//               every pair pays two timestamps, which alone are
//               ~2/3 of an empty-section pair; reported as the worst
//               case and bounded looser in CI at the 3x gate the
//               lockdep and telemetry benches use).
//
//   contended   N threads fight over one labeled shield with lockstat
//               on, each hold a short busy-work section; reports the
//               wait/hold percentiles the histograms reconstructed and
//               the reconciliation checks: lockstat
//               contentions == the shield's ContentionProbe total and
//               lockstat acquisitions == iterations (both exact — the
//               hooks sit on the same branches the probe counts).
//
//   trace       the same workload with span tracing on and the
//               collector streaming JSONL (--trace <path>, default
//               lockstat_trace.jsonl), sized so the ring never drops.
//               CI replays the file through resilock_report and
//               asserts the offline table names this phase's hot
//               class with the same wait count lockstat saw live.
//
// Scaling mirrors the other benches: RESILOCK_SCALE scales iteration
// counts, RESILOCK_MAX_THREADS caps the contended phase; `--json
// out.json` emits the table machine-readably for BENCH_lockstat.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tas.hpp"
#include "json_writer.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "platform/env.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace resilock;
using observe::LockStat;

// ns per uncontended acquire/release pair, single-threaded. Best of
// three passes — the CI smoke scale is short enough that a scheduler
// hiccup in one pass would poison a single-shot ratio.
double time_pair_ns(Shield<TasLock>& lock, std::uint64_t iters) {
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) {
      lock.acquire();
      lock.release();
    }
    const std::uint64_t t1 = runtime::now_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

struct ContendedRun {
  std::uint32_t threads = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t contentions = 0;
  std::uint64_t probe_contended = 0;
  std::uint64_t wait_p50 = 0, wait_p99 = 0, wait_max = 0;
  std::uint64_t hold_p50 = 0;
  bool reconciled = false;
};

ContendedRun run_contended(const char* label, std::uint32_t threads,
                           std::uint64_t per_thread) {
  observe::LockstatGuard stats(true);
  LockStat::instance().reset();
  Shield<TasLock> lock;
  lock.set_lockdep_label(label);
  runtime::SenseBarrier start(threads);
  runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
    std::uint64_t sink = 0;
    start.arrive_and_wait();
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      lock.acquire();
      // A short critical section, so arrivals find the lock held and
      // the wait counters have something to reconcile. Every 64th hold
      // also gives up the CPU inside the section and after it: a short
      // run's threads can share one CPU before the scheduler spreads
      // them, and a TAS holder re-takes its own lock before a spinning
      // waiter looks, so without the yields such a run sees almost no
      // waits (4 in 800k pairs before they were added).
      sink ^= runtime::busy_work(64, sink + i);
      const bool yield = i % 64 == 0;
      if (yield) std::this_thread::yield();
      lock.release();
      if (yield) std::this_thread::yield();
    }
    if (sink == 42) std::fputc(0, stderr);  // keep the chain alive
  });

  ContendedRun r;
  r.threads = threads;
  r.probe_contended = lock.contended_total();
  for (const observe::ClassReport& c : LockStat::instance().report()) {
    if (c.label != label) continue;
    r.acquisitions = c.acquisitions;
    r.contentions = c.contentions;
    r.wait_p50 = c.wait.percentile(0.50);
    r.wait_p99 = c.wait.percentile(0.99);
    r.wait_max = c.wait.max;
    r.hold_p50 = c.hold.percentile(0.50);
  }
  r.reconciled = r.contentions == r.probe_contended &&
                 r.acquisitions ==
                     static_cast<std::uint64_t>(threads) * per_thread;
  return r;
}

const char* trace_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
  }
  return "lockstat_trace.jsonl";
}

}  // namespace

int main(int argc, char** argv) {
  // Deep rings so the trace phase never drops: the offline/live parity
  // check needs every span on disk. The env still wins if set.
  ::setenv("RESILOCK_RING_CAPACITY", "65536", /*overwrite=*/0);
  const double scale = platform::env_double("RESILOCK_SCALE", 1.0);
  const std::uint32_t max_threads =
      platform::env_u32("RESILOCK_MAX_THREADS", 4);
  // High floor: the fast-path phase is the budget gate, and a pass
  // under a few hundred k pairs is noise-bound (~10 ms each is still
  // cheap at the CI smoke scale).
  const std::uint64_t fast_iters = std::max<std::uint64_t>(
      200000, static_cast<std::uint64_t>(2000000.0 * scale));
  const std::uint64_t contended_per_thread = std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(200000.0 * scale));
  const char* trace_path = trace_out_path(argc, argv);

  // ------------------------------------------------------------------
  // Phase 1: uncontended fast path, lockstat off vs on.
  // ------------------------------------------------------------------
  const std::uint32_t hold_sample = observe::lockstat_sample();
  double pair_ns_off = 0, pair_ns_on = 0, pair_ns_exact = 0;
  {
    Shield<TasLock> lock;
    lock.set_lockdep_label("bench.lockstat.fast");
    {
      observe::LockstatGuard stats(false);
      time_pair_ns(lock, fast_iters / 10);  // warm up
      pair_ns_off = time_pair_ns(lock, fast_iters);
    }
    {
      observe::LockstatGuard stats(true);
      LockStat::instance().reset();
      pair_ns_on = time_pair_ns(lock, fast_iters);
      observe::LockstatSampleGuard exact(1);
      pair_ns_exact = time_pair_ns(lock, fast_iters);
    }
  }
  const double ratio = pair_ns_on / pair_ns_off;
  const double exact_ratio = pair_ns_exact / pair_ns_off;
  std::printf("fast path: lockstat off %.1f ns/pair, on %.1f ns/pair "
              "at hold sampling 1/%u (%.2fx, budget 2x), "
              "%.1f ns/pair exact (%.2fx worst case)\n",
              pair_ns_off, pair_ns_on, hold_sample, ratio,
              pair_ns_exact, exact_ratio);

  // ------------------------------------------------------------------
  // Phase 2: contended percentiles + reconciliation.
  // ------------------------------------------------------------------
  const std::uint32_t threads = std::max<std::uint32_t>(2, max_threads);
  const ContendedRun cr =
      run_contended("bench.lockstat.contended", threads,
                    contended_per_thread);
  std::printf("contended (%u threads): %llu acquisitions, %llu waits "
              "(probe %llu), wait p50 %llu ns p99 %llu ns max %llu ns, "
              "hold p50 %llu ns, reconciled %s\n",
              cr.threads,
              static_cast<unsigned long long>(cr.acquisitions),
              static_cast<unsigned long long>(cr.contentions),
              static_cast<unsigned long long>(cr.probe_contended),
              static_cast<unsigned long long>(cr.wait_p50),
              static_cast<unsigned long long>(cr.wait_p99),
              static_cast<unsigned long long>(cr.wait_max),
              static_cast<unsigned long long>(cr.hold_p50),
              cr.reconciled ? "yes" : "NO");

  // ------------------------------------------------------------------
  // Phase 3: JSONL trace for the offline/live parity check.
  // ------------------------------------------------------------------
  std::uint64_t live_waits = 0, live_acquisitions = 0, trace_drops = 0;
  {
    std::remove(trace_path);
    auto& tb = lockdep::TraceBuffer::instance();
    tb.drain_all();
    const std::uint64_t dropped0 = tb.dropped();
    observe::LockstatGuard stats(true);
    LockStat::instance().reset();
    lockdep::SpanTracingGuard spans(true);
    telemetry::Collector& c = telemetry::Collector::instance();
    c.add_sink(telemetry::make_jsonl_sink(trace_path));
    c.start();
    Shield<TasLock> lock;
    lock.set_lockdep_label("bench.lockstat.hot");
    // Modest: 2 threads, few iterations — every span must land on disk
    // for the offline table to agree with the live counters.
    const std::uint32_t span_threads =
        std::min<std::uint32_t>(2, std::max<std::uint32_t>(1, max_threads));
    const std::uint64_t span_iters = std::max<std::uint64_t>(
        500, contended_per_thread / 100);
    runtime::ThreadTeam::run(span_threads, [&](std::uint32_t) {
      for (std::uint64_t i = 0; i < span_iters; ++i) {
        lock.acquire();
        lock.release();
      }
    });
    c.stop();
    trace_drops = tb.dropped() - dropped0;
    for (const observe::ClassReport& r : LockStat::instance().report()) {
      if (r.label != "bench.lockstat.hot") continue;
      live_waits = r.contentions;
      live_acquisitions = r.acquisitions;
    }
    std::printf("trace: %llu live contended waits, %llu acquisitions, "
                "%llu drops -> %s\n",
                static_cast<unsigned long long>(live_waits),
                static_cast<unsigned long long>(live_acquisitions),
                static_cast<unsigned long long>(trace_drops), trace_path);
  }

  if (const char* json = bench::json_out_path(argc, argv)) {
    const bool ok = bench::write_bench_json(
        json, "lockstat_overhead", max_threads, 1, fast_iters,
        [&](bench::JsonWriter& w) {
          w.begin_object();
          w.field("phase", "fast_path");
          w.field("hold_sample", static_cast<std::uint64_t>(hold_sample));
          w.field("pair_ns_off", pair_ns_off);
          w.field("pair_ns_on", pair_ns_on);
          w.field("lockstat_overhead_ratio", ratio);
          w.field("exact_pair_ns_on", pair_ns_exact);
          w.field("exact_overhead_ratio", exact_ratio);
          w.end_object();
          w.begin_object();
          w.field("phase", "contended");
          w.field("threads", cr.threads);
          w.field("acquisitions", cr.acquisitions);
          w.field("contentions", cr.contentions);
          w.field("probe_contended", cr.probe_contended);
          w.field("wait_p50_ns", cr.wait_p50);
          w.field("wait_p99_ns", cr.wait_p99);
          w.field("wait_max_ns", cr.wait_max);
          w.field("hold_p50_ns", cr.hold_p50);
          w.field("reconciled", cr.reconciled);
          w.end_object();
          w.begin_object();
          w.field("phase", "trace");
          w.field("trace_path", trace_path);
          w.field("hot_class", "bench.lockstat.hot");
          w.field("live_contended_waits", live_waits);
          w.field("live_acquisitions", live_acquisitions);
          w.field("trace_drops", trace_drops);
          w.end_object();
        });
    if (!ok) return 1;
  }
  return 0;
}
