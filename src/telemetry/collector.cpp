#include "telemetry/collector.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "interpose/reentry.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/futex.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/env.hpp"
#include "response/response.hpp"
#include "runtime/timer.hpp"
#include "telemetry/metrics.hpp"

namespace {

// Adaptive duty cycle bounds: the floor keeps a hot producer's queue
// latency in the tens of microseconds; the ceiling bounds an idle
// process to ~200 wakeups/sec worst case, near zero once backed off.
constexpr std::uint64_t kMinSleepUs = 50;
constexpr std::uint64_t kMaxSleepUs = 5000;

std::atomic<bool> g_hook_fired{false};

}  // namespace

namespace resilock::telemetry {

struct Collector::Impl {
  // Lifecycle (start/stop) serialization.
  std::mutex lifecycle;
  std::thread worker;

  // Worker wakeup: stop() sets the word and wakes the duty cycle's
  // sleep on it.
  std::atomic<std::uint32_t> stop_word{0};

  std::atomic<bool> running{false};
  std::atomic<bool> in_start{false};

  // Sink set; drained into under this mutex by exactly one thread at a
  // time (the TraceBuffer drain guard already enforces one drainer,
  // this one covers add_sink/close racing a drain).
  std::mutex sink_mu;
  std::vector<std::unique_ptr<Sink>> sinks;

  // Stats, all lock-free for MetricsRegistry::snapshot.
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::uint64_t> drain_cycles{0};
  std::atomic<std::uint64_t> empty_cycles{0};
  std::atomic<std::uint64_t> hard_drains{0};
  std::atomic<std::uint64_t> sleep_us{kMinSleepUs};
  std::atomic<std::uint64_t> metrics_dumps{0};
  std::atomic<std::uint64_t> lockstat_dumps{0};

  // Periodic metrics dump (read from env at start()).
  const char* metrics_path = nullptr;
  MetricsFormat metrics_fmt = MetricsFormat::kText;
  std::uint64_t metrics_interval_ns = 0;
  std::uint64_t last_metrics_ns = 0;  // worker/stop thread only

  // Periodic lockstat report (read from env at start()).
  const char* lockstat_path = nullptr;
  std::uint64_t lockstat_interval_ns = 0;
  std::uint64_t last_lockstat_ns = 0;  // worker/stop thread only

  // One drain of every ring into every sink, one flush per sink.
  // With no sinks attached (a collector started for metrics or
  // lockstat only) the rings are left untouched: draining them would
  // cost a cycle per event for nothing. `pressed`: some ring was at
  // least half full (its producer is outrunning the duty cycle).
  std::size_t drain_cycle(bool* pressed = nullptr) {
    std::lock_guard<std::mutex> lk(sink_mu);
    if (sinks.empty()) return 0;
    std::size_t seen = 0;  // events and drop records
    const std::size_t n = lockdep::TraceBuffer::instance().drain(
        [this, &seen](const lockdep::TraceEvent& e) {
          ++seen;
          for (auto& s : sinks) s->consume(e);
        },
        pressed);
    drain_cycles.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) empty_cycles.fetch_add(1, std::memory_order_relaxed);
    if (seen == 0) return 0;
    delivered.fetch_add(n, std::memory_order_relaxed);
    std::uint64_t w = 0;
    for (auto& s : sinks) {
      s->flush();
      if (s->written() > w) w = s->written();
    }
    written.store(w, std::memory_order_relaxed);
    return n;
  }

  void maybe_dump_metrics(bool force) {
    if (metrics_path == nullptr) return;
    const std::uint64_t now = runtime::now_ns();
    if (!force && now - last_metrics_ns < metrics_interval_ns) return;
    last_metrics_ns = now;
    if (MetricsRegistry::instance().dump(metrics_path, metrics_fmt)) {
      metrics_dumps.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Periodic lockstat report plus the signal-trigger service point: a
  // SIGUSR2 handler only flags the request (async-signal-safe); this
  // duty-cycle check is what actually renders the report — to the
  // configured file, or stderr when none is set.
  void maybe_dump_lockstat(bool force) {
    if (observe::consume_dump_request()) {
      observe::dump_report(lockstat_path);  // nullptr -> stderr
      lockstat_dumps.fetch_add(1, std::memory_order_relaxed);
      last_lockstat_ns = runtime::now_ns();
      return;
    }
    if (lockstat_path == nullptr || !observe::lockstat_enabled()) return;
    const std::uint64_t now = runtime::now_ns();
    if (!force && now - last_lockstat_ns < lockstat_interval_ns) return;
    last_lockstat_ns = now;
    if (observe::dump_report(lockstat_path)) {
      lockstat_dumps.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void run() {
    // Under LD_PRELOAD interposition, every pthread call this thread
    // makes must reach glibc directly — the collector's entire lifetime
    // is resilock machinery, never application lock traffic.
    interpose::preload_pin_thread();
    // An env-seeded lockstat or span flag turns timing on with no
    // set_*() call; the collector starts on a lock's cold init path,
    // so calibrating here keeps the clock's 250 us out of every hold
    // and off the application's own start-up.
    runtime::calibrate_tsc();
    std::uint64_t cur_sleep = kMinSleepUs;
    for (;;) {
      bool pressed = false;
      const std::size_t n = drain_cycle(&pressed);
      maybe_dump_metrics(false);
      maybe_dump_lockstat(false);
      if (stop_word.load(std::memory_order_acquire) != 0) return;
      if (pressed) {
        // A ring was half full or dropping: producers are outrunning
        // the cycle; drain back-to-back until every ring thins out.
        hard_drains.fetch_add(1, std::memory_order_relaxed);
        cur_sleep = kMinSleepUs;
        sleep_us.store(cur_sleep, std::memory_order_relaxed);
        continue;
      }
      cur_sleep = (n == 0) ? std::min(cur_sleep * 2, kMaxSleepUs)
                           : kMinSleepUs;
      sleep_us.store(cur_sleep, std::memory_order_relaxed);
      const timespec rel = platform::timespec_from_ns(cur_sleep * 1000);
      park::futex_wait(&stop_word, 0, &rel);
      if (stop_word.load(std::memory_order_acquire) != 0) return;
    }
  }
};

Collector& Collector::instance() {
  static Collector c;
  return c;
}

Collector::Collector() : impl_(new Impl) {
  // Pin destruction order: everything the worker and the final drain
  // touch (rings, the class table for JSONL labels) must be
  // constructed — hence destroyed after — this singleton. Neither
  // touch fires the first-use hook (a ring's first allocation does).
  lockdep::TraceBuffer::instance();
  lockdep::Graph::instance();
}

Collector::~Collector() {
  // Static destruction runs on whatever thread called exit(), outside
  // any interposition reentry scope. Without the pin, stop()'s own
  // std::mutex operations would be adopted by the preload layer —
  // whose rl_mutex_init autostarts the collector being destroyed.
  interpose::preload_pin_thread();
  stop();
  delete impl_;
}

bool Collector::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

void Collector::add_sink(std::unique_ptr<Sink> sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lk(impl_->sink_mu);
  impl_->sinks.push_back(std::move(sink));
}

std::size_t Collector::drain_now() { return impl_->drain_cycle(); }

CollectorStats Collector::stats() const noexcept {
  auto& tb = lockdep::TraceBuffer::instance();
  CollectorStats s;
  s.running = impl_->running.load(std::memory_order_acquire);
  s.events_delivered = impl_->delivered.load(std::memory_order_relaxed);
  s.events_written = impl_->written.load(std::memory_order_relaxed);
  s.events_dropped = tb.dropped();
  s.events_emitted = tb.emitted();
  s.drain_cycles = impl_->drain_cycles.load(std::memory_order_relaxed);
  s.empty_cycles = impl_->empty_cycles.load(std::memory_order_relaxed);
  s.hard_drains = impl_->hard_drains.load(std::memory_order_relaxed);
  s.sleep_us = impl_->sleep_us.load(std::memory_order_relaxed);
  s.metrics_dumps = impl_->metrics_dumps.load(std::memory_order_relaxed);
  s.lockstat_dumps =
      impl_->lockstat_dumps.load(std::memory_order_relaxed);
  return s;
}

bool Collector::start() {
  // Deflect the reentrant edge: start -> first ring touch -> first-use
  // hook -> autostart -> start. The inner call returns immediately;
  // the outer one finishes the job.
  if (impl_->in_start.exchange(true, std::memory_order_acq_rel)) {
    return impl_->running.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lk(impl_->lifecycle);
  if (!impl_->running.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> sg(impl_->sink_mu);
      if (impl_->sinks.empty()) {
        if (auto s = make_sink_from_env()) {
          impl_->sinks.push_back(std::move(s));
        }
      }
    }
    impl_->metrics_path = platform::env_raw("RESILOCK_METRICS_FILE");
    impl_->metrics_fmt = MetricsRegistry::format_from_env();
    impl_->metrics_interval_ns =
        std::uint64_t{platform::env_u32("RESILOCK_METRICS_INTERVAL_MS",
                                        1000)} *
        1000000ull;
    impl_->last_metrics_ns = 0;
    impl_->lockstat_path = platform::env_raw("RESILOCK_LOCKSTAT_FILE");
    impl_->lockstat_interval_ns =
        std::uint64_t{platform::env_u32("RESILOCK_LOCKSTAT_INTERVAL_MS",
                                        1000)} *
        1000000ull;
    impl_->last_lockstat_ns = 0;
    observe::install_signal_trigger_from_env();
    impl_->stop_word.store(0, std::memory_order_relaxed);
    impl_->worker = std::thread([impl = impl_] { impl->run(); });
    impl_->running.store(true, std::memory_order_release);
  }
  impl_->in_start.store(false, std::memory_order_release);
  return true;
}

void Collector::stop() {
  std::lock_guard<std::mutex> lk(impl_->lifecycle);
  if (impl_->worker.joinable()) {
    if (impl_->worker.get_id() == std::this_thread::get_id()) {
      return;  // never expected; refuse to self-join
    }
    impl_->stop_word.store(1, std::memory_order_release);
    park::futex_wake_all(&impl_->stop_word);
    impl_->worker.join();
    impl_->worker = std::thread();
    impl_->running.store(false, std::memory_order_release);
  }
  // Final drain (no-op without sinks), final metrics dump, and sink
  // close so single-document formats are valid on disk. The sink set
  // is cleared — a later start() rebuilds from the environment.
  impl_->drain_cycle();
  impl_->maybe_dump_metrics(true);
  impl_->maybe_dump_lockstat(true);
  std::lock_guard<std::mutex> sg(impl_->sink_mu);
  for (auto& s : impl_->sinks) s->close();
  impl_->sinks.clear();
}

void autostart_from_env() {
  if (platform::env_raw("RESILOCK_TRACE_FILE") == nullptr &&
      platform::env_raw("RESILOCK_METRICS_FILE") == nullptr &&
      !platform::env_flag("RESILOCK_LOCKSTAT", false)) {
    return;
  }
  Collector::instance().start();
}

}  // namespace resilock::telemetry

namespace resilock::lockdep {

// Called when a ring is first allocated — i.e. on a thread's first
// trace emission. Exchange-after-load keeps later calls to one acquire
// load once fired.
void telemetry_first_use_hook() {
  if (g_hook_fired.load(std::memory_order_acquire)) return;
  if (g_hook_fired.exchange(true, std::memory_order_acq_rel)) return;
  // Runs on the response engine's DEFAULT abort path, just before
  // std::abort(), which skips the collector's destructor. Every abort
  // site emits its trace event before dispatching, so the final drain
  // lands the fatal event on disk and closing the sinks finalizes a
  // perfetto document.
  response::set_abort_flush_hook(
      [] { telemetry::Collector::instance().stop(); });
  telemetry::autostart_from_env();
}

}  // namespace resilock::lockdep
