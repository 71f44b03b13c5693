// resilock_report: offline lock-contention analyzer.
//
// Ingests the traces the telemetry plane already emits — the JSONL
// event stream (RESILOCK_TRACE_FILE) or the perfetto/chrome-trace
// document (RESILOCK_TRACE_FORMAT=perfetto) — and reconstructs the
// same /proc/lock_stat-shaped contention table a live process renders
// through the lockstat report (observe::write_report), plus a
// per-thread wait timeline. Post-mortem traces and live processes
// answer the same questions in the same format:
//
//   resilock_report trace.jsonl                # contention table
//   resilock_report trace.json --top 8         # more call sites
//   resilock_report trace.jsonl --timeline     # every wait span
//   resilock_report trace.jsonl --json out.json  # machine-readable
//
// Input: trace schema v2 (lockdep::kTraceSchemaVersion) — a JSONL
// file whose first line is the {"schema":"resilock-trace","version":2}
// record, or a perfetto document with a "trace_schema" metadata entry.
// A v1 trace (begin/end span pairs) is refused with a one-line message
// rather than misread.
//
// Reconstruction semantics: each hold record (one per hold, `ns` =
// begin, `dur_ns` = length) adds to the hold histogram and acquisition
// count; each wait record adds to the wait histogram and contention
// count (the shield only brackets CONTENDED acquires, matching
// lockstat's on_contended_wait); park records rebuild the park
// columns. A record is already a slice, so nothing is paired. Call
// sites come from the hold record's `site` field (captured when
// RESILOCK_LOCKSTAT was on in the traced process) and render as raw
// hex — symbolization is meaningless in a different process. Trylock
// failures never reach the trace, so that column reads 0 offline.
//
// Loss: drop records (one per drain in which a thread's ring dropped
// events) are added up. A lossy trace's report opens with an
// "incomplete: N events dropped" line, and --json carries
// "dropped_events". A hold that ended behind its owner's back (the §5
// hand-off, the shield's stale-entry self-heal) has no record, just as
// lockstat keeps no window for it.
//
// The JSON "parsing" is deliberately a tolerant hand-rolled key
// scanner, not a JSON library: the emitters' schemas are flat and
// known, the tool must build with zero dependencies, and a trace
// truncated mid-line (crashed process) should still yield every
// complete event before the tear.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "lockdep/event_ring.hpp"
#include "observe/histogram.hpp"
#include "observe/lockstat.hpp"

namespace {

constexpr std::uint32_t kNoClsTag = 0xFFFFFFFFu;

// ---------------------------------------------------------------------
// Tolerant key extraction. Searches `"key":` and parses the value that
// follows — a number, or a quoted string with minimal unescaping.
// Top-level and args keys in our schemas never collide, so a flat scan
// over one event object is unambiguous.
// ---------------------------------------------------------------------

std::size_t find_key(std::string_view obj, std::string_view key) {
  std::string pat;
  pat.reserve(key.size() + 3);
  pat += '"';
  pat += key;
  pat += "\":";
  const std::size_t pos = obj.find(pat);
  if (pos == std::string_view::npos) return std::string_view::npos;
  return pos + pat.size();
}

bool find_string(std::string_view obj, std::string_view key,
                 std::string& out) {
  std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return false;
  while (p < obj.size() && (obj[p] == ' ' || obj[p] == '\t')) ++p;
  if (p >= obj.size() || obj[p] != '"') return false;
  ++p;
  out.clear();
  while (p < obj.size() && obj[p] != '"') {
    char c = obj[p];
    if (c == '\\' && p + 1 < obj.size()) {
      ++p;
      switch (obj[p]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u':
          // \uXXXX: decode the low byte (the escaper only emits
          // control bytes this way).
          if (p + 4 < obj.size()) {
            c = static_cast<char>(
                std::strtoul(std::string(obj.substr(p + 1, 4)).c_str(),
                             nullptr, 16));
            p += 4;
          }
          break;
        default: c = obj[p];
      }
    }
    out += c;
    ++p;
  }
  return p < obj.size();
}

bool find_double(std::string_view obj, std::string_view key, double& out) {
  const std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return false;
  out = std::strtod(std::string(obj.substr(p, 32)).c_str(), nullptr);
  return true;
}

bool find_u64(std::string_view obj, std::string_view key,
              std::uint64_t& out) {
  double d = 0;
  if (!find_double(obj, key, d)) return false;
  out = static_cast<std::uint64_t>(d);
  return true;
}

// "0x..." hex string field (lock addresses, call sites).
bool find_hex(std::string_view obj, std::string_view key,
              std::uint64_t& out) {
  std::string s;
  if (!find_string(obj, key, s)) return false;
  out = std::strtoull(s.c_str(), nullptr, 16);
  return true;
}

bool is_misuse_kind(std::string_view kind) {
  return kind == "unbalanced-unlock" || kind == "double-unlock" ||
         kind == "non-owner-unlock" || kind == "reentrant-relock" ||
         kind == "unbalanced-read-unlock" || kind == "rw-mode-mismatch" ||
         kind == "non-owner-write-unlock";
}

std::size_t mode_index(std::string_view mode) {
  if (mode == "read") return 1;
  if (mode == "write") return 2;
  return 0;  // exclusive (or absent)
}

// ---------------------------------------------------------------------
// Accumulators, shaped to feed observe::write_report unchanged.
// ---------------------------------------------------------------------

struct ClassAgg {
  std::string label;
  resilock::observe::HistogramSnapshot wait;
  resilock::observe::HistogramSnapshot hold;
  std::uint64_t misuses = 0;
  std::uint64_t parks = 0;    // park-begin .. park-end kernel sleeps
  std::uint64_t park_ns = 0;  // descheduled total, subset of wait
  std::uint64_t by_mode[3] = {};
  std::map<std::uint64_t, std::uint64_t> sites;  // addr -> count
};

struct ThreadAgg {
  std::uint64_t waits = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t first_ns = ~std::uint64_t{0};
  std::uint64_t last_ns = 0;
};

struct WaitSpan {
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t pid = 0;
  std::uint32_t cls = kNoClsTag;
};

struct Analysis {
  std::map<std::uint32_t, ClassAgg> classes;
  std::map<std::uint32_t, ThreadAgg> threads;
  std::vector<WaitSpan> wait_spans;
  std::uint64_t dropped = 0;  // events the traced process's rings lost
  int schema = 0;             // trace schema version; 0 when absent

  ClassAgg& cls_agg(std::uint32_t cls, const std::string& label) {
    ClassAgg& a = classes[cls];
    if (a.label.empty() && !label.empty()) a.label = label;
    return a;
  }

  void add_wait(std::uint32_t pid, std::uint32_t cls,
                const std::string& label, std::uint64_t begin_ns,
                std::uint64_t dur_ns) {
    cls_agg(cls, label).wait.add(dur_ns);
    ThreadAgg& t = threads[pid];
    ++t.waits;
    t.total_ns += dur_ns;
    if (dur_ns > t.max_ns) t.max_ns = dur_ns;
    if (begin_ns < t.first_ns) t.first_ns = begin_ns;
    if (begin_ns + dur_ns > t.last_ns) t.last_ns = begin_ns + dur_ns;
    wait_spans.push_back(WaitSpan{begin_ns, dur_ns, pid, cls});
  }

  void add_hold(std::uint32_t cls, const std::string& label,
                std::uint64_t dur_ns, std::size_t mode,
                std::uint64_t site) {
    ClassAgg& a = cls_agg(cls, label);
    a.hold.add(dur_ns);
    ++a.by_mode[mode % 3];
    if (site != 0) ++a.sites[site];
  }

  void add_park(std::uint32_t cls, const std::string& label,
                std::uint64_t dur_ns) {
    ClassAgg& a = cls_agg(cls, label);
    ++a.parks;
    a.park_ns += dur_ns;
  }
};

// ---------------------------------------------------------------------
// JSONL ingestion: the schema record, then one event per line.
// ---------------------------------------------------------------------

void ingest_jsonl(std::istream& in, Analysis& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::string schema;
    if (find_string(line, "schema", schema)) {
      std::uint64_t version = 0;
      find_u64(line, "version", version);
      if (schema == "resilock-trace") out.schema = static_cast<int>(version);
      continue;
    }
    std::string kind;
    if (!find_string(line, "kind", kind)) continue;
    if (out.schema == 0) return;  // events before any schema record: v1
    std::uint64_t ns = 0, dur = 0, pid = 0, cls64 = kNoClsTag;
    find_u64(line, "ns", ns);
    find_u64(line, "dur_ns", dur);
    find_u64(line, "pid", pid);
    find_u64(line, "cls", cls64);
    const auto cls = static_cast<std::uint32_t>(cls64);
    std::string label;
    find_string(line, "cls_label", label);
    if (kind == "hold") {
      std::string mode;
      find_string(line, "mode", mode);
      std::uint64_t site = 0;
      find_hex(line, "site", site);
      out.add_hold(cls, label, dur, mode_index(mode), site);
    } else if (kind == "wait") {
      out.add_wait(static_cast<std::uint32_t>(pid), cls, label, ns, dur);
    } else if (kind == "park") {
      out.add_park(cls, label, dur);
    } else if (kind == "events-dropped") {
      std::uint64_t n = 0;
      find_u64(line, "dropped", n);
      out.dropped += n;
    } else if (is_misuse_kind(kind)) {
      ++out.cls_agg(cls, label).misuses;
    }
  }
}

// ---------------------------------------------------------------------
// Perfetto ingestion: the sink already paired spans into ph:"X"
// complete events; scan the traceEvents array elements (brace-depth
// walk, string-aware) and read them off directly.
// ---------------------------------------------------------------------

void ingest_perfetto_event(std::string_view obj, Analysis& out) {
  std::string ph;
  if (!find_string(obj, "ph", ph)) return;
  std::string name;
  find_string(obj, "name", name);
  if (ph == "M") {
    std::uint64_t version = 0;
    if (name == "trace_schema" && find_u64(obj, "version", version)) {
      out.schema = static_cast<int>(version);
    }
    return;
  }
  std::uint64_t tid = 0, cls64 = kNoClsTag;
  find_u64(obj, "tid", tid);
  find_u64(obj, "cls", cls64);
  const auto cls = static_cast<std::uint32_t>(cls64);
  std::string label;
  find_string(obj, "cls_label", label);
  if (ph == "X") {
    double ts_us = 0, dur_us = 0;
    find_double(obj, "ts", ts_us);
    find_double(obj, "dur", dur_us);
    const auto begin_ns =
        static_cast<std::uint64_t>(std::llround(ts_us * 1000.0));
    const auto dur_ns =
        static_cast<std::uint64_t>(std::llround(dur_us * 1000.0));
    if (name == "lock-wait") {
      out.add_wait(static_cast<std::uint32_t>(tid), cls, label, begin_ns,
                   dur_ns);
    } else if (name == "lock-park") {
      out.add_park(cls, label, dur_ns);
    } else if (name == "lock-hold") {
      std::string mode;
      find_string(obj, "mode", mode);
      std::uint64_t site = 0;
      find_hex(obj, "site", site);
      out.add_hold(cls, label, dur_ns, mode_index(mode), site);
    }
    return;
  }
  if (ph == "i" && name == "events-dropped") {
    std::uint64_t n = 0;
    find_u64(obj, "dropped", n);
    out.dropped += n;
  } else if (ph == "i" && is_misuse_kind(name)) {
    ++out.cls_agg(cls, label).misuses;
  }
}

void ingest_perfetto(std::string_view doc, Analysis& out) {
  // Element objects of traceEvents sit at brace depth 2 (document
  // object -> element). Braces inside strings are skipped.
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (++depth == 2) start = i;
    } else if (c == '}') {
      if (depth-- == 2) {
        ingest_perfetto_event(doc.substr(start, i - start + 1), out);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

std::vector<resilock::observe::ClassReport> to_reports(
    const Analysis& a) {
  std::vector<resilock::observe::ClassReport> out;
  for (const auto& [cls, agg] : a.classes) {
    resilock::observe::ClassReport r;
    r.cls = static_cast<resilock::lockdep::ClassId>(cls);
    if (!agg.label.empty()) {
      r.label = agg.label;
    } else if (cls == kNoClsTag) {
      r.label = "(untracked)";
    } else {
      r.label = "class#" + std::to_string(cls);
    }
    r.acquisitions = agg.hold.count;
    r.contentions = agg.wait.count;
    r.misuses = agg.misuses;
    r.parks = agg.parks;
    r.park_time = agg.park_ns;
    // Every park span in the trace ended with a wake (a timed-out or
    // interrupted park re-checks and loops inside one span), so the
    // offline reconstruction equates wakes with parks.
    r.wakes = agg.parks;
    for (std::size_t m = 0; m < 3; ++m) r.by_mode[m] = agg.by_mode[m];
    r.wait = agg.wait;
    r.hold = agg.hold;
    for (const auto& [site, count] : agg.sites) {
      r.sites.push_back(resilock::observe::CallSiteRow{
          static_cast<std::uintptr_t>(site), count});
    }
    std::sort(r.sites.begin(), r.sites.end(),
              [](const auto& x, const auto& y) { return x.count > y.count; });
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.wait.total != y.wait.total) return x.wait.total > y.wait.total;
    return x.acquisitions > y.acquisitions;
  });
  return out;
}

void write_thread_timeline(std::FILE* f, const Analysis& a,
                           bool full_timeline) {
  if (a.threads.empty()) return;
  std::fputs(
      "\nper-thread wait timeline (times in ns)\n"
      "  pid      waits      total wait        max       first ts"
      "        last ts\n",
      f);
  for (const auto& [pid, t] : a.threads) {
    std::fprintf(f, "  %-5u %8llu %15llu %10llu %14llu %14llu\n",
                 static_cast<unsigned>(pid),
                 static_cast<unsigned long long>(t.waits),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.max_ns),
                 static_cast<unsigned long long>(
                     t.first_ns == ~std::uint64_t{0} ? 0 : t.first_ns),
                 static_cast<unsigned long long>(t.last_ns));
  }
  if (!full_timeline) return;
  std::vector<WaitSpan> spans = a.wait_spans;
  std::sort(spans.begin(), spans.end(),
            [](const WaitSpan& x, const WaitSpan& y) {
              return x.begin_ns < y.begin_ns;
            });
  std::fputs("\nwait spans (chronological)\n", f);
  for (const WaitSpan& s : spans) {
    const auto it = a.classes.find(s.cls);
    const char* label = it != a.classes.end() && !it->second.label.empty()
                            ? it->second.label.c_str()
                            : "?";
    std::fprintf(f, "  %14llu  pid %-5u  %10llu ns  %s\n",
                 static_cast<unsigned long long>(s.begin_ns),
                 static_cast<unsigned>(s.pid),
                 static_cast<unsigned long long>(s.dur_ns), label);
  }
}

void escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

bool write_json(const char* path, const Analysis& a,
                const std::vector<resilock::observe::ClassReport>& reports) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fputs("{\"classes\":[", f);
  bool first = true;
  for (const auto& r : reports) {
    std::string label;
    escape_into(label, r.label);
    std::fprintf(
        f,
        "%s{\"label\":\"%s\",\"cls\":%u,\"waits\":%llu,"
        "\"acquisitions\":%llu,\"misuses\":%llu,"
        "\"wait_total_ns\":%llu,\"wait_p50_ns\":%llu,"
        "\"wait_p99_ns\":%llu,\"wait_max_ns\":%llu,"
        "\"hold_total_ns\":%llu,\"parks\":%llu,\"park_ns\":%llu,"
        "\"sites\":%zu}",
        first ? "" : ",", label.c_str(), static_cast<unsigned>(r.cls),
        static_cast<unsigned long long>(r.contentions),
        static_cast<unsigned long long>(r.acquisitions),
        static_cast<unsigned long long>(r.misuses),
        static_cast<unsigned long long>(r.wait.total),
        static_cast<unsigned long long>(r.wait.percentile(0.50)),
        static_cast<unsigned long long>(r.wait.percentile(0.99)),
        static_cast<unsigned long long>(r.wait.max),
        static_cast<unsigned long long>(r.hold.total),
        static_cast<unsigned long long>(r.parks),
        static_cast<unsigned long long>(r.park_time), r.sites.size());
    first = false;
  }
  std::fputs("],\"threads\":[", f);
  first = true;
  for (const auto& [pid, t] : a.threads) {
    std::fprintf(f,
                 "%s{\"pid\":%u,\"waits\":%llu,\"wait_total_ns\":%llu,"
                 "\"wait_max_ns\":%llu}",
                 first ? "" : ",", static_cast<unsigned>(pid),
                 static_cast<unsigned long long>(t.waits),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.max_ns));
    first = false;
  }
  std::fprintf(f, "],\"dropped_events\":%llu}\n",
               static_cast<unsigned long long>(a.dropped));
  std::fclose(f);
  return true;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <trace.jsonl|trace.json> [--top N] [--timeline] "
      "[--json <out.json>]\n"
      "  Reconstructs the lockstat contention table and per-thread\n"
      "  wait timeline from a resilock JSONL or perfetto trace.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* json_out = nullptr;
  std::size_t top_sites = 4;
  bool full_timeline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top_sites = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--timeline") {
      full_timeline = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path == nullptr) return usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "resilock_report: cannot open %s\n", path);
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  // Format sniff: a perfetto document is one object owning
  // "traceEvents"; everything else is treated as JSONL.
  const std::size_t first_ch = doc.find_first_not_of(" \t\r\n");
  Analysis a;
  if (first_ch != std::string::npos && doc[first_ch] == '{' &&
      doc.compare(first_ch, 15, "{\"traceEvents\":") == 0) {
    ingest_perfetto(doc, a);
  } else {
    std::istringstream lines(doc);
    ingest_jsonl(lines, a);
  }

  // A trace with events but no v2 schema record is a v1 trace (span
  // begin/end pairs), which this reader would misread as empty.
  const int want = resilock::lockdep::kTraceSchemaVersion;
  if (a.schema != want &&
      (a.schema != 0 || doc.find("\"kind\":") != std::string::npos ||
       doc.find("\"ph\":") != std::string::npos)) {
    std::fprintf(stderr,
                 "resilock_report: %s is a schema v%d trace; this reader "
                 "takes v%d only (re-record it with this build)\n",
                 path, a.schema != 0 ? a.schema : 1, want);
    return 1;
  }

  const auto reports = to_reports(a);
  if (a.dropped != 0) {
    std::fprintf(stdout, "incomplete: %llu events dropped\n",
                 static_cast<unsigned long long>(a.dropped));
  }
  // Same renderer as the live lockstat dump; raw-hex sites (symbol
  // resolution in a different process would be fiction).
  resilock::observe::write_report(stdout, reports, top_sites,
                                  /*symbolize=*/false);
  write_thread_timeline(stdout, a, full_timeline);
  if (json_out != nullptr && !write_json(json_out, a, reports)) {
    std::fprintf(stderr, "resilock_report: cannot write %s\n", json_out);
    return 1;
  }
  return 0;
}
