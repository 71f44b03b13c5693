// Background trace collector — the live half of the observability
// plane (ROADMAP: "background collector with a bounded duty cycle,
// batched writes, drop accounting"), and the only writer of
// RESILOCK_TRACE_FILE.
//
// A production service emitting misuse and span events for hours
// overflows the 128-entry rings in microseconds. The collector is one
// background thread that drains every TraceBuffer ring on an ADAPTIVE
// duty cycle:
//
//   empty drain  -> sleep doubles (50us .. 5ms) — an idle process
//                   costs a few hundred wakeups/sec at worst, and
//                   near-zero once backed off;
//   busy drain   -> sleep resets to the 50us floor;
//   hard drain   -> a ring was at least half full (against its own
//                   capacity) or dropped: no sleep at all; re-drain
//                   immediately until the producers stop outrunning
//                   us ("drain hard").
//
// Every drained event goes to each attached sink (sink.hpp) inside
// one buffered write cycle; sinks are flushed once per cycle, so disk
// traffic is batched appends. Producers never block and never wait on
// the collector — when they outrun it, rings drop the newest events
// and COUNT them; the collector surfaces those counts (and its own
// delivery counters) through stats(), which the metrics registry
// snapshots, and into the trace itself as drop records. Accounting is
// exact: emitted == delivered + dropped + still-queued, and after a
// final drain the queue term is zero.
//
// Lifecycle: the collector starts when it has a job — a trace file, a
// metrics file or lockstat (autostart_from_env) — on a ring's first
// allocation (lockdep::telemetry_first_use_hook()) or an interposed
// lock's init, or explicitly by embedders; start() is idempotent.
// stop() requests, joins, runs a final drain, and CLOSES the sinks so
// single-document formats (perfetto) are finalized; a subsequent
// start() rebuilds the sink set from the environment. Process exit
// stops it from the singleton's destructor, and an aborting verdict
// stops it from the response engine's abort-flush hook, so both land
// the whole trace on disk.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/sink.hpp"

namespace resilock::telemetry {

struct CollectorStats {
  bool running = false;
  std::uint64_t events_delivered = 0;  // popped from rings, fed to sinks
  std::uint64_t events_written = 0;    // max over sinks (all see each event)
  std::uint64_t events_dropped = 0;    // TraceBuffer drop total at snapshot
  std::uint64_t events_emitted = 0;    // TraceBuffer emit attempts
  std::uint64_t drain_cycles = 0;
  std::uint64_t empty_cycles = 0;
  std::uint64_t hard_drains = 0;       // pressed cycles, slept 0
  std::uint64_t sleep_us = 0;          // current adaptive sleep (gauge)
  std::uint64_t metrics_dumps = 0;
  std::uint64_t lockstat_dumps = 0;    // periodic + signal-triggered
};

class Collector {
 public:
  static Collector& instance();

  // Starts the background thread if it is not running. Sinks present
  // from add_sink() are kept; otherwise the set is built from
  // RESILOCK_TRACE_FILE / RESILOCK_TRACE_FORMAT. True when the
  // collector is running on return.
  bool start();

  // Stops the thread (if running), runs a final drain, flushes and
  // closes all sinks. Safe to call when not running (still closes
  // sinks and drains once — the abort path relies on that).
  void stop();

  bool running() const noexcept;

  // Attach a sink (used by tests and embedders; production attaches
  // via environment). Takes effect for events drained after the call.
  void add_sink(std::unique_ptr<Sink> sink);

  // Drain rings into the attached sinks right now, on the calling
  // thread (respects TraceBuffer's single-consumer guard: returns 0 if
  // the background thread is mid-drain). Events delivered.
  std::size_t drain_now();

  // Lock-free; callable from the metrics registry while the collector
  // itself is dumping metrics.
  CollectorStats stats() const noexcept;

 private:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  struct Impl;
  Impl* impl_;
};

// Starts the collector when it has a job: RESILOCK_TRACE_FILE or
// RESILOCK_METRICS_FILE is set, or RESILOCK_LOCKSTAT is on (its duty
// cycle serves periodic and signal-triggered lockstat reports). Called
// from the first-use hook and from interposed lock init; idempotent.
void autostart_from_env();

}  // namespace resilock::telemetry
