#include "telemetry/sink.hpp"

#include <cstdio>
#include <set>
#include <string_view>
#include <utility>

#include "core/access_mode.hpp"
#include "lockdep/lockdep.hpp"
#include "lockdep/trace_export.hpp"
#include "platform/env.hpp"
#include "platform/json.hpp"
#include "response/response.hpp"

namespace resilock::telemetry {

namespace {

// Big enough that a full drain cycle of a default-sized ring set
// accumulates in userspace and hits the kernel as one append.
constexpr std::size_t kStreamBuf = 1 << 18;

class FileSink : public Sink {
 public:
  FileSink(std::FILE* f, std::unique_ptr<char[]> buf)
      : f_(f), buf_(std::move(buf)) {}
  ~FileSink() override { FileSink::close(); }

  void flush() override {
    if (f_ != nullptr) std::fflush(f_);
  }

  void close() override {
    if (f_ == nullptr) return;
    std::fclose(f_);
    f_ = nullptr;
  }

  std::uint64_t written() const noexcept override { return written_; }

 protected:
  std::FILE* f_ = nullptr;
  std::uint64_t written_ = 0;

 private:
  std::unique_ptr<char[]> buf_;  // stdio stream buffer, owned here
};

std::FILE* open_buffered(const char* path, const char* mode,
                         std::unique_ptr<char[]>& buf) {
  std::FILE* f = std::fopen(path, mode);
  if (f == nullptr) {
    std::fprintf(stderr, "resilock[telemetry]: cannot open %s\n", path);
    return nullptr;
  }
  buf.reset(new char[kStreamBuf]);
  std::setvbuf(f, buf.get(), _IOFBF, kStreamBuf);
  return f;
}

// ---------------------------------------------------------------------
// JSONL: trace_export's line formatter, streamed instead of
// atexit-dumped. Class labels are resolved once per drain cycle.
// ---------------------------------------------------------------------

class JsonlSink final : public FileSink {
 public:
  JsonlSink(std::FILE* f, std::unique_ptr<char[]> buf)
      : FileSink(f, std::move(buf)), writer_(f) {
    lockdep::write_jsonl_header(f);
  }

  const char* name() const noexcept override { return "jsonl"; }

  void consume(const lockdep::TraceEvent& e) override {
    if (f_ == nullptr) return;
    writer_.write(e);
    ++written_;
  }

  void flush() override {
    writer_.new_drain();
    FileSink::flush();
  }

 private:
  lockdep::JsonlWriter writer_;
};

// ---------------------------------------------------------------------
// Perfetto / chrome-trace JSON.
//
// Events stream into the array as they drain; only close() writes the
// "]}"` tail. Hold, wait and park records are complete ("X") slices as
// they arrive — lock holds legally overlap without nesting (acquire A,
// acquire B, release A), which B/E tracks would render as corruption.
// Misuse reports and drop records are instants.
// ---------------------------------------------------------------------

class PerfettoSink final : public FileSink {
 public:
  PerfettoSink(std::FILE* f, std::unique_ptr<char[]> buf)
      : FileSink(f, std::move(buf)) {
    std::fputs("{\"traceEvents\":[", f_);
    emit_meta("process_name", 0, "resilock");
    comma();
    std::fprintf(f_,
                 "{\"name\":\"trace_schema\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":0,\"args\":{\"name\":\"resilock-trace\","
                 "\"version\":%d}}",
                 lockdep::kTraceSchemaVersion);
  }

  ~PerfettoSink() override { PerfettoSink::close(); }

  const char* name() const noexcept override { return "perfetto"; }

  void consume(const lockdep::TraceEvent& e) override {
    if (f_ == nullptr) return;
    note_thread(e.pid);
    using lockdep::EventKind;
    switch (e.kind) {
      case EventKind::kHold:
        slice(e, "lock-hold");
        return;
      case EventKind::kWait:
        slice(e, "lock-wait");
        return;
      case EventKind::kPark:
        slice(e, "lock-park");
        return;
      default:
        break;
    }
    // Misuse / lockdep reports and drop records: instant events,
    // thread-scoped.
    comma();
    std::fprintf(f_,
                 "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                 "\"pid\":0,\"tid\":%u,\"args\":{\"lock\":\"%p\"",
                 to_string(e.kind), us(e.ns), static_cast<unsigned>(e.pid),
                 e.lock);
    if (e.kind == EventKind::kEventsDropped) {
      std::fprintf(f_, ",\"dropped\":%llu",
                   static_cast<unsigned long long>(e.dropped));
    } else if (e.kind == EventKind::kOrderInversion ||
               e.kind == EventKind::kDeadlockCycle) {
      std::fprintf(f_, ",\"a\":%u,\"b\":%u", static_cast<unsigned>(e.a),
                   static_cast<unsigned>(e.b));
    } else if (e.a != lockdep::kNoClassTag) {
      std::fprintf(f_, ",\"cls\":%u", static_cast<unsigned>(e.a));
      emit_cls_label(e.a);
    }
    if (e.mode != lockdep::kNoMode) {
      std::fprintf(f_, ",\"mode\":\"%s\",\"readers\":%u",
                   to_string(static_cast<AccessMode>(e.mode)),
                   static_cast<unsigned>(e.readers));
    }
    if (e.verdict != lockdep::kNoVerdict && e.verdict < response::kActions) {
      std::fprintf(f_, ",\"verdict\":\"%s\"",
                   to_string(static_cast<response::Action>(e.verdict)));
    }
    std::fputs("}}", f_);
    ++written_;
  }

  void close() override {
    if (f_ == nullptr) return;
    std::fputs("]}\n", f_);
    FileSink::close();
  }

 private:
  static double us(std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  }

  void comma() {
    if (any_) std::fputc(',', f_);
    any_ = true;
  }

  void emit_meta(const char* what, std::uint32_t tid, const char* name) {
    comma();
    // Metadata names can carry user text (thread names are ours today,
    // but the escaper costs nothing and closes the door).
    std::fprintf(f_, "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"name\":",
                 what, static_cast<unsigned>(tid));
    platform::write_json_escaped(f_, name);
    std::fputs("}}", f_);
  }

  // Class label as an escaped arg (user-controlled string).
  void emit_cls_label(std::uint32_t cls) {
    if (const char* label = lockdep::Graph::instance().label_of(cls)) {
      std::fputs(",\"cls_label\":", f_);
      platform::write_json_escaped(f_, label);
    }
  }

  void note_thread(std::uint32_t pid) {
    if (named_.insert(pid).second) {
      char label[32];
      std::snprintf(label, sizeof label, "resilock-pid-%u",
                    static_cast<unsigned>(pid));
      emit_meta("thread_name", pid, label);
    }
  }

  void slice(const lockdep::TraceEvent& e, const char* name) {
    comma();
    std::fprintf(f_,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":0,\"tid\":%u,\"args\":{\"lock\":\"%p\"",
                 name, us(e.ns), us(e.dur_ns), static_cast<unsigned>(e.pid),
                 e.lock);
    if (e.a != lockdep::kNoClassTag) {
      std::fprintf(f_, ",\"cls\":%u", static_cast<unsigned>(e.a));
      emit_cls_label(e.a);
    }
    if (e.mode != lockdep::kNoMode) {
      std::fprintf(f_, ",\"mode\":\"%s\"",
                   to_string(static_cast<AccessMode>(e.mode)));
    }
    if (e.site != 0) {
      std::fprintf(f_, ",\"site\":\"0x%llx\"",
                   static_cast<unsigned long long>(e.site));
    }
    std::fputs("}}", f_);
    ++written_;
  }

  bool any_ = false;
  std::set<std::uint32_t> named_;
};

}  // namespace

std::unique_ptr<Sink> make_jsonl_sink(const char* path) {
  std::unique_ptr<char[]> buf;
  // Append: JSONL concatenates across dumps and runs, same as the
  // atexit exporter it upgrades.
  std::FILE* f = open_buffered(path, "a", buf);
  if (f == nullptr) return nullptr;
  return std::make_unique<JsonlSink>(f, std::move(buf));
}

std::unique_ptr<Sink> make_perfetto_sink(const char* path) {
  std::unique_ptr<char[]> buf;
  // Truncate: a chrome-trace file is one document, not a log.
  std::FILE* f = open_buffered(path, "w", buf);
  if (f == nullptr) return nullptr;
  return std::make_unique<PerfettoSink>(f, std::move(buf));
}

std::unique_ptr<Sink> make_sink_from_env() {
  const char* path = platform::env_raw("RESILOCK_TRACE_FILE");
  if (path == nullptr) return nullptr;
  const char* fmt = platform::env_raw("RESILOCK_TRACE_FORMAT");
  if (fmt != nullptr && std::string_view(fmt) == "perfetto") {
    return make_perfetto_sink(path);
  }
  if (fmt != nullptr && std::string_view(fmt) != "jsonl") {
    std::fprintf(stderr,
                 "resilock[telemetry]: unknown RESILOCK_TRACE_FORMAT "
                 "'%s', using jsonl\n",
                 fmt);
  }
  return make_jsonl_sink(path);
}

}  // namespace resilock::telemetry
