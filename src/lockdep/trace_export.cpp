#include "lockdep/trace_export.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "core/access_mode.hpp"
#include "interpose/reentry.hpp"
#include "lockdep/lockdep.hpp"
#include "platform/env.hpp"
#include "platform/json.hpp"
#include "response/response.hpp"

namespace resilock::lockdep {

namespace {

// Appenders over a raw buffer the caller sized for the line.
template <std::size_t N>
char* put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

char* put_hex(char* p, std::uint64_t v) {
  p = put(p, "0x");
  return std::to_chars(p, p + 16, v, 16).ptr;
}

// glibc's %p spelling, which the trace format has always used.
char* put_ptr(char* p, const void* ptr) {
  if (ptr == nullptr) return put(p, "(nil)");
  return put_hex(p, reinterpret_cast<std::uintptr_t>(ptr));
}

// Room for every fixed part of a line: keys, five 20-digit numbers,
// three 18-character hex values and the longest kind/mode/verdict name.
constexpr std::size_t kFixedLine = 384;

}  // namespace

const std::string* JsonlWriter::label(std::uint32_t cls) {
  Label& l = labels_[cls % kLabelSlots];
  if (l.drain != drain_ || l.cls != cls) {
    const char* text = Graph::instance().label_of(cls);
    // Escaped again only when the class now names another string.
    if (l.drain == 0 || l.cls != cls || text != l.text) {
      l.json.clear();
      if (text != nullptr) platform::append_json_escaped(l.json, text);
    }
    l.cls = cls;
    l.drain = drain_;
    l.text = text;
  }
  return l.text != nullptr ? &l.json : nullptr;
}

std::string_view JsonlWriter::format(const TraceEvent& e) {
  const bool pair = e.kind == EventKind::kOrderInversion ||
                    e.kind == EventKind::kDeadlockCycle;
  // Labels resolve against the LIVE class table; a class retired
  // between emission and drain simply drops its label.
  const std::string* la =
      pair || e.a != kNoClassTag ? label(e.a) : nullptr;
  const std::string* lb = pair ? label(e.b) : nullptr;
  const std::size_t need = kFixedLine + (la != nullptr ? la->size() : 0) +
                           (lb != nullptr ? lb->size() : 0);
  if (line_.size() < need) line_.resize(need);
  char* const begin = line_.data();
  char* p = put(begin, "{\"ns\":");
  p = put_u64(p, e.ns);
  p = put(p, ",\"kind\":\"");
  p = put(p, to_string(e.kind));
  p = put(p, "\",\"lock\":\"");
  p = put_ptr(p, e.lock);
  p = put(p, "\",\"pid\":");
  p = put_u64(p, e.pid);
  if (pair) {
    p = put(p, ",\"a\":");
    p = put_u64(p, e.a);
    p = put(p, ",\"b\":");
    p = put_u64(p, e.b);
    if (la != nullptr) p = put(put(p, ",\"a_label\":"), *la);
    if (lb != nullptr) p = put(put(p, ",\"b_label\":"), *lb);
  } else if (e.a != kNoClassTag) {
    // Misuse events and records attribute to one class (`a`): the
    // shield's own class, or the entry-level class of a hierarchical
    // lock — which is what makes a per-level key like "hmcs.level1"
    // show up next to the misuse that happened at that depth.
    p = put(p, ",\"cls\":");
    p = put_u64(p, e.a);
    if (la != nullptr) p = put(put(p, ",\"cls_label\":"), *la);
  }
  if (e.mode != kNoMode) {
    // Reader-writer payload: the hold's AccessMode and the indicator's
    // live-reader estimate.
    p = put(p, ",\"mode\":\"");
    p = put(p, to_string(static_cast<AccessMode>(e.mode)));
    p = put(p, "\",\"readers\":");
    p = put_u64(p, e.readers);
  }
  if (e.verdict != kNoVerdict && e.verdict < response::kActions) {
    p = put(p, ",\"verdict\":\"");
    p = put(p, to_string(static_cast<response::Action>(e.verdict)));
    p = put(p, "\"");
  }
  if (e.site != 0) {
    // Acquisition call site (lockstat return-address capture); the
    // offline analyzer attributes holds to sites through this.
    p = put(p, ",\"site\":\"");
    p = put_hex(p, e.site);
    p = put(p, "\"");
  }
  if (is_span_kind(e.kind)) {
    p = put(p, ",\"dur_ns\":");
    p = put_u64(p, e.dur_ns);
  } else if (e.kind == EventKind::kEventsDropped) {
    p = put(p, ",\"dropped\":");
    p = put_u64(p, e.dropped);
  }
  p = put(p, "}\n");
  return {begin, static_cast<std::size_t>(p - begin)};
}

void JsonlWriter::write(const TraceEvent& e) {
  const std::string_view line = format(e);
  std::fwrite(line.data(), 1, line.size(), f_);
}

void write_jsonl_header(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0 || std::ftell(f) != 0) return;
  std::fprintf(f, "{\"schema\":\"resilock-trace\",\"version\":%d}\n",
               kTraceSchemaVersion);
}

void write_event_jsonl(std::FILE* f, const TraceEvent& e) {
  JsonlWriter(f).write(e);
}

std::size_t write_trace_jsonl(std::FILE* f) {
  write_jsonl_header(f);
  JsonlWriter w(f);
  return TraceBuffer::instance().drain(
      [&](const TraceEvent& e) { w.write(e); });
}

bool export_trace_jsonl(const char* path, std::size_t* written) {
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "resilock[trace]: cannot open %s for append\n",
                 path);
    return false;
  }
  const std::size_t n = write_trace_jsonl(f);
  std::fclose(f);
  if (written != nullptr) *written = n;
  return true;
}

namespace {
void atexit_trace_dump() {
  // Runs on the exiting thread OUTSIDE any interposed frame. Under
  // LD_PRELOAD the drain below operates resilock-internal locks, which
  // must reach glibc rather than be adopted mid-exit.
  interpose::preload_pin_thread();
  if (const char* path = platform::env_raw("RESILOCK_TRACE_FILE")) {
    export_trace_jsonl(path);
  }
}
}  // namespace

void register_env_trace_exporter() {
  static const bool once = [] {
    if (platform::env_raw("RESILOCK_TRACE_FILE") != nullptr) {
      std::atexit(atexit_trace_dump);
    }
    return true;
  }();
  (void)once;
}

}  // namespace resilock::lockdep
