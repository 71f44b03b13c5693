// Telemetry pipeline throughput: can the background collector keep up
// with misuse/span emission at production rates, and what does a live
// collector cost the emit path?
//
// Three phases:
//
//   emit-path   one thread times TraceBuffer::emit with no consumer
//               (baseline: the rings fill and the overflow takes the
//               counted-drop path) and again with the collector
//               running (pushes mostly succeed and are drained). The
//               ratio is the observability tax on the wait-free emit
//               path; the repo's standing budget for a protection or
//               telemetry layer is 2x.
//
//   drain       N producers emit flat out while the collector drains
//               into a counting sink; reports sustained delivered
//               events/sec through the background thread plus the
//               exact-accounting check the rings guarantee:
//               emitted == delivered + dropped after the final drain.
//
//   perfetto    a shielded lock is hammered with span tracing on while
//               the collector streams into a chrome-trace sink
//               (--trace <path>, default telemetry_trace.json). CI
//               parses the document to prove the artifact is loadable.
//
// Scaling mirrors the other benches: RESILOCK_SCALE scales event
// counts, RESILOCK_MAX_THREADS caps producers; `--json out.json`
// emits the table machine-readably for the CI smoke gate.
#include <algorithm>
#include <atomic>
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
#include "platform/env.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace resilock;
using lockdep::EventKind;
using lockdep::TraceBuffer;
using telemetry::Collector;

class CountingSink final : public telemetry::Sink {
 public:
  const char* name() const noexcept override { return "counting"; }
  void consume(const lockdep::TraceEvent&) override { ++count_; }
  void flush() override {}
  void close() override {}
  std::uint64_t written() const noexcept override { return count_; }

 private:
  std::uint64_t count_ = 0;
};

struct PipelineRun {
  std::uint32_t threads = 0;
  std::uint64_t emitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double seconds = 0;
  double emit_mevs = 0;     // producer-side emit rate
  double deliver_mevs = 0;  // collector-side sustained drain rate
  bool exact = false;
};

// Producers hammer emit() flat out; the collector drains live. The
// run is timed from barrier release to the last producer's finish;
// delivery throughput counts everything the collector moved in that
// window plus the final drain (all of it work the collector did).
PipelineRun run_pipeline(std::uint32_t threads, std::uint64_t per_thread) {
  auto& tb = TraceBuffer::instance();
  Collector& c = Collector::instance();
  tb.drain_all();  // start clean

  const std::uint64_t emitted0 = tb.emitted();
  const std::uint64_t dropped0 = tb.dropped();
  const std::uint64_t delivered0 = c.stats().events_delivered;

  c.add_sink(std::make_unique<CountingSink>());
  c.start();

  static int marker = 0;
  runtime::SenseBarrier start(threads);
  std::atomic<std::uint64_t> start_ns{0};
  std::vector<std::uint64_t> end_ns(threads, 0);
  runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
    start.arrive_and_wait();
    if (tid == 0) {
      start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      tb.emit(EventKind::kNonOwnerUnlock, &marker,
              static_cast<std::uint16_t>(tid));
    }
    end_ns[tid] = runtime::now_ns();
  });
  std::uint64_t last = 0;
  for (auto e : end_ns) last = std::max(last, e);
  c.stop();  // final drain: nothing left queued

  PipelineRun r;
  r.threads = threads;
  r.emitted = tb.emitted() - emitted0;
  r.dropped = tb.dropped() - dropped0;
  r.delivered = c.stats().events_delivered - delivered0;
  r.seconds = static_cast<double>(
                  last - start_ns.load(std::memory_order_relaxed)) *
              1e-9;
  r.emit_mevs = static_cast<double>(r.emitted) / r.seconds * 1e-6;
  r.deliver_mevs = static_cast<double>(r.delivered) / r.seconds * 1e-6;
  r.exact = r.emitted == r.delivered + r.dropped;
  return r;
}

// ns per emit() call, single-threaded.
double time_emit_ns(std::uint64_t events) {
  auto& tb = TraceBuffer::instance();
  static int marker = 0;
  const std::uint64_t t0 = runtime::now_ns();
  for (std::uint64_t i = 0; i < events; ++i) {
    tb.emit(EventKind::kDoubleUnlock, &marker);
  }
  const std::uint64_t t1 = runtime::now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(events);
}

const char* trace_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
  }
  return "telemetry_trace.json";
}

}  // namespace

int main(int argc, char** argv) {
  // Throughput wants deep rings: with the default 512 slots a flat-out
  // producer laps the collector between wakeups and everything past the
  // first lap drops (counted, but boring). 64k slots is the realistic
  // production setting for heavy tracing; the env still wins if set.
  ::setenv("RESILOCK_RING_CAPACITY", "65536", /*overwrite=*/0);
  const double scale = platform::env_double("RESILOCK_SCALE", 1.0);
  const std::uint32_t max_threads =
      platform::env_u32("RESILOCK_MAX_THREADS", 4);
  const std::uint64_t per_thread = std::max<std::uint64_t>(
      10000, static_cast<std::uint64_t>(2000000.0 * scale));
  const char* trace_path = trace_out_path(argc, argv);

  auto& tb = TraceBuffer::instance();
  Collector& c = Collector::instance();

  // ------------------------------------------------------------------
  // Phase 1: emit-path cost, idle vs live collector.
  // ------------------------------------------------------------------
  tb.drain_all();
  const double emit_ns_idle = time_emit_ns(per_thread);
  c.add_sink(std::make_unique<CountingSink>());
  c.start();
  const double emit_ns_live = time_emit_ns(per_thread);
  c.stop();
  const double emit_ratio = emit_ns_live / emit_ns_idle;
  std::printf("emit path: idle %.1f ns/ev, collector live %.1f ns/ev "
              "(%.2fx)\n",
              emit_ns_idle, emit_ns_live, emit_ratio);

  // ------------------------------------------------------------------
  // Phase 2: sustained drain throughput, 1..max producers.
  // ------------------------------------------------------------------
  std::vector<PipelineRun> runs;
  std::vector<std::uint32_t> axis{1};
  if (max_threads > 1) axis.push_back(max_threads);
  std::printf("%8s %12s %12s %12s %10s %10s %6s\n", "threads", "emitted",
              "delivered", "dropped", "emit M/s", "drain M/s", "exact");
  for (const std::uint32_t t : axis) {
    runs.push_back(run_pipeline(t, per_thread));
    const PipelineRun& r = runs.back();
    std::printf("%8u %12llu %12llu %12llu %10.2f %10.2f %6s\n", r.threads,
                static_cast<unsigned long long>(r.emitted),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.dropped), r.emit_mevs,
                r.deliver_mevs, r.exact ? "yes" : "NO");
  }

  // ------------------------------------------------------------------
  // Phase 3: perfetto document from real shielded-lock spans.
  // ------------------------------------------------------------------
  std::uint64_t perfetto_events = 0;
  {
    tb.drain_all();
    lockdep::SpanTracingGuard spans(true);
    c.add_sink(telemetry::make_perfetto_sink(trace_path));
    c.start();
    const std::uint32_t span_threads = std::min<std::uint32_t>(
        2, std::max<std::uint32_t>(1, max_threads));
    const std::uint64_t span_iters =
        std::max<std::uint64_t>(1000, per_thread / 100);
    Shield<TasLock> lock;
    runtime::ThreadTeam::run(span_threads, [&](std::uint32_t) {
      for (std::uint64_t i = 0; i < span_iters; ++i) {
        lock.acquire();
        lock.release();
      }
    });
    // A few instants so the timeline shows misuse next to the spans.
    lock.release();  // double unlock, intercepted and traced
    c.stop();
    perfetto_events = c.stats().events_written;
    std::printf("perfetto: %llu events -> %s\n",
                static_cast<unsigned long long>(perfetto_events),
                trace_path);
  }

  if (const char* json = bench::json_out_path(argc, argv)) {
    const bool ok = bench::write_bench_json(
        json, "telemetry_throughput", max_threads, 1, per_thread,
        [&](bench::JsonWriter& w) {
          w.begin_object();
          w.field("phase", "emit_path");
          w.field("emit_ns_idle", emit_ns_idle);
          w.field("emit_ns_live", emit_ns_live);
          w.field("emit_overhead_ratio", emit_ratio);
          w.end_object();
          for (const PipelineRun& r : runs) {
            w.begin_object();
            w.field("phase", "drain");
            w.field("threads", r.threads);
            w.field("events_emitted", r.emitted);
            w.field("events_delivered", r.delivered);
            w.field("events_dropped", r.dropped);
            w.field("seconds", r.seconds);
            w.field("emit_mevs", r.emit_mevs);
            w.field("deliver_mevs", r.deliver_mevs);
            w.field("accounting_exact", r.exact);
            w.end_object();
          }
          w.begin_object();
          w.field("phase", "perfetto");
          w.field("trace_path", trace_path);
          w.field("events_written", perfetto_events);
          w.end_object();
        });
    if (!ok) return 1;
  }
  return 0;
}
