// Pluggable trace sinks for the background collector.
//
// The collector (collector.hpp) drains TraceBuffer's SPSC rings and
// feeds every event to each attached sink; a sink turns the stream
// into some on-disk artifact. Two ship with the library:
//
//   jsonl     one JSON object per line, append-mode — the same schema
//             as trace_export (the formatter IS trace_export's
//             JsonlWriter, so the two cannot drift), opened by a schema
//             version line. Greppable, concatenates across runs.
//   perfetto  a chrome-trace JSON document ({"traceEvents":[...]})
//             loadable in chrome://tracing and ui.perfetto.dev, with a
//             "trace_schema" metadata entry: misuse / inversion / cycle
//             reports and drop records as instant events and — with
//             RESILOCK_TELEMETRY_SPANS on — lock-hold, contention-wait
//             and park records as complete ("X") slices, all on
//             per-thread tracks. Unlike JSONL it is a single document:
//             the file is only valid after close(), which is why the
//             collector closes sinks on stop and why the abort-flush
//             hook stops the collector before the process dies.
//
// Sinks are driven by ONE thread (the collector, or whoever called
// Collector::stop) — they need no internal locking. Batching is
// stdio's: each sink installs a large stream buffer and the collector
// calls flush() once per drain cycle, so events reach the OS in
// batched appends rather than one write(2) per event.
#pragma once

#include <cstdint>
#include <memory>

#include "lockdep/event_ring.hpp"

namespace resilock::telemetry {

class Sink {
 public:
  virtual ~Sink() = default;

  virtual const char* name() const noexcept = 0;

  // Consume one drained event. May buffer; never blocks on anything
  // but the filesystem.
  virtual void consume(const lockdep::TraceEvent& e) = 0;

  // Push buffered bytes to the OS (end of a drain cycle; anything a
  // sink caches per cycle, such as resolved labels, is dropped here).
  virtual void flush() = 0;

  // Finalize the artifact (write the document tail, fclose). The sink
  // accepts no events afterwards. Idempotent.
  virtual void close() = 0;

  // Events this sink has written so far.
  virtual std::uint64_t written() const noexcept = 0;
};

// nullptr when the file cannot be opened (a warning is printed).
std::unique_ptr<Sink> make_jsonl_sink(const char* path);
std::unique_ptr<Sink> make_perfetto_sink(const char* path);

// The sink RESILOCK_TRACE_FILE + RESILOCK_TRACE_FORMAT (jsonl|perfetto,
// default jsonl) ask for; nullptr when no trace file is configured.
std::unique_ptr<Sink> make_sink_from_env();

}  // namespace resilock::telemetry
