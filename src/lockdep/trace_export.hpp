// JSONL trace format — the line formatter of the telemetry plane's
// JSONL sink (telemetry/sinks.cpp), which the background collector
// drives into RESILOCK_TRACE_FILE.
//
// Counters say THAT misuse happened; the ring says when/who/what; this
// format gets that record out of the process so it can be inspected
// post-mortem: one JSON object per line, append-mode, so successive
// runs accumulate into one greppable log. A new file starts with one
// schema version record (lockdep::kTraceSchemaVersion); every other
// line is an event:
//
//   {"schema":"resilock-trace","version":2}
//   {"ns":123,"kind":"non-owner-unlock","lock":"0x...","pid":3,
//    "cls":7,"cls_label":"shield<MCS>","verdict":"log"}
//   {"ns":130,"kind":"hold","lock":"0x...","pid":3,"cls":7,
//    "cls_label":"shield<MCS>","site":"0x...","dur_ns":412}
//   {"ns":990,"kind":"events-dropped","lock":"(nil)","pid":3,
//    "dropped":17}
//
// Hold, wait and park records carry `dur_ns` (their `ns` is the
// begin); a drop record carries `dropped`, the events its pid's ring
// lost since the previous one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace resilock::lockdep {

struct TraceEvent;

// Formats events as JSONL lines: each line is built in one buffer
// (std::to_chars, no stdio formatting) and written with one fwrite.
// Class labels are user strings, resolved against the LIVE class table
// once per drain, not once per event (new_drain() starts the next
// resolution, so a class retired between drains loses its label), and
// JSON-escaped only when a class's label string changes.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::FILE* f) : f_(f) {}

  void write(const TraceEvent& e);

  // The line write(e) puts out, newline included. Valid until the
  // next call.
  std::string_view format(const TraceEvent& e);

  void new_drain() { ++drain_; }

 private:
  // Direct-mapped by class slot; a colliding class just re-resolves.
  struct Label {
    std::uint32_t cls = 0;
    std::uint32_t drain = 0;       // 0: never filled
    const char* text = nullptr;    // label_of(cls) at that drain
    std::string json;              // `text` escaped, with its quotes
  };
  static constexpr std::size_t kLabelSlots = 256;

  // The class's escaped label, or nullptr when it has none.
  const std::string* label(std::uint32_t cls);

  std::FILE* f_;
  std::string line_;
  std::uint32_t drain_ = 1;
  std::array<Label, kLabelSlots> labels_{};
};

// Writes the schema version record when `f` is positioned at the start
// of an empty file (a JSONL trace being started).
void write_jsonl_header(std::FILE* f);

}  // namespace resilock::lockdep
