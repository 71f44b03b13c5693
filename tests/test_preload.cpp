// End-to-end LD_PRELOAD fixture: compiles the shim-unaware pthread
// programs in tests/children/ at test time (with the same compiler
// that built this test), runs them under libresilock_preload.so, and
// asserts on what an operator would see — program output, the misuse
// trace JSONL, the SIGUSR2 lock_stat report, and the preload's own
// adoption counters.
//
// Skipped under TSan (CMake gates the target): a sanitized .so cannot
// be preloaded into an unsanitized child. The adopt-once machinery has
// an in-process TSan test instead (test_preload_registry.cpp).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include <sys/wait.h>

#ifndef RESILOCK_PRELOAD_LIB
#error "CMake must define RESILOCK_PRELOAD_LIB"
#endif
#ifndef RESILOCK_CHILD_SRC_DIR
#error "CMake must define RESILOCK_CHILD_SRC_DIR"
#endif
#ifndef RESILOCK_CXX_COMPILER
#error "CMake must define RESILOCK_CXX_COMPILER"
#endif
#ifndef RESILOCK_WORKLOAD_BIN
#error "CMake must define RESILOCK_WORKLOAD_BIN"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// system(3) with captured stdout+stderr; the preload children are
// whole processes, so popen-style capture is the natural harness.
RunResult run(const std::string& cmd) {
  RunResult r;
  const std::string out_path =
      ::testing::TempDir() + "preload_child_out.txt";
  const int rc =
      std::system((cmd + " > " + out_path + " 2>&1").c_str());
  r.exit_code = rc;
  r.out = slurp(out_path);
  std::remove(out_path.c_str());
  return r;
}

// Compile-once cache: every test in this file shares the two child
// binaries; gtest runs tests in one process, so function-local statics
// do the memoization.
const std::string& child_bin(const std::string& name) {
  static std::string dir = ::testing::TempDir();
  static std::string compiler = RESILOCK_CXX_COMPILER;
  struct Built {
    std::string path;
    bool ok;
  };
  static auto build = [](const std::string& n) {
    Built b;
    b.path = dir + "resilock_" + n;
    // -rdynamic: lockstat symbolizes call sites with dladdr, which
    // only sees exported symbols — exactly how an operator would
    // build an app they intend to profile.
    const std::string cmd = compiler + " -O1 -g -pthread -rdynamic " +
                            std::string(RESILOCK_CHILD_SRC_DIR) + "/" +
                            n + ".cpp -o " + b.path;
    b.ok = std::system(cmd.c_str()) == 0;
    return b;
  };
  static Built child = build("preload_child");
  static Built static_init = build("preload_static_init");
  static Built clock_child = build("preload_clock_child");
  static Built cond_child = build("preload_cond_child");
  static Built manylocks = build("preload_manylocks");
  static Built rwlock_kinds = build("preload_rwlock_kinds");
  static Built misuse_exit = build("preload_misuse_exit");
  static Built chain_child = build("preload_chain_child");
  static const Built none{"", false};
  const Built& b = name == "preload_child"         ? child
                   : name == "preload_static_init" ? static_init
                   : name == "preload_clock_child" ? clock_child
                   : name == "preload_cond_child"  ? cond_child
                   : name == "preload_manylocks"   ? manylocks
                   : name == "preload_rwlock_kinds" ? rwlock_kinds
                   : name == "preload_misuse_exit" ? misuse_exit
                   : name == "preload_chain_child" ? chain_child
                                                   : none;
  EXPECT_TRUE(b.ok) << "failed to compile child " << name;
  return b.path;
}

// True when one line of the JSONL trace carries every needle.
bool trace_line_has(const std::string& trace, const std::string& a,
                    const std::string& b) {
  std::istringstream in(trace);
  for (std::string line; std::getline(in, line);) {
    if (line.find(a) != std::string::npos &&
        line.find(b) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Strict JSON syntax check of a whole file: one value and nothing after
// it, so a JSONL stream or two documents run together fail.
class JsonDocument {
 public:
  static bool valid(const std::string& text) {
    JsonDocument d(text);
    d.ws();
    const bool ok = d.value();
    d.ws();
    return ok && d.i_ == text.size();
  }

 private:
  explicit JsonDocument(const std::string& s) : s_(s) {}

  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return members('}', true);
      case '[': return members(']', false);
      case '"': return string();
      case 't': return word("true");
      case 'f': return word("false");
      case 'n': return word("null");
      default: return number();
    }
  }
  bool members(char close, bool object) {
    ++i_;
    ws();
    if (eat(close)) return true;
    do {
      ws();
      if (object && !(string() && (ws(), eat(':')))) return false;
      ws();
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat(close);
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      i_ += s_[i_] == '\\' ? 2 : 1;
    }
    return eat('"');
  }
  bool word(const char* w) {
    const std::string_view v(w);
    if (s_.compare(i_, v.size(), v) != 0) return false;
    i_ += v.size();
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    eat('-');
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            std::string_view(".eE+-").find(s_[i_]) != std::string_view::npos))
      ++i_;
    return i_ > start &&
           std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// The children are unsanitized, so a sanitized preload needs the ASan
// runtime loaded ahead of it (ASan insists on coming first).
std::string preload_env() {
#ifdef PRELOAD_ASAN_RUNTIME
  return std::string("LD_PRELOAD=") + PRELOAD_ASAN_RUNTIME + ":" +
         RESILOCK_PRELOAD_LIB;
#else
  return std::string("LD_PRELOAD=") + RESILOCK_PRELOAD_LIB;
#endif
}

}  // namespace

// (a) Correct output through the whole interposition stack: four
// threads of counter traffic over an adopted static-initializer mutex
// add up exactly, and the injected double-unlock comes back EPERM
// instead of corrupting the protocol (the program keeps running to a
// clean exit).
TEST(PreloadE2E, ShieldedChildComputesCorrectlyAndAbsorbsMisuse) {
  const std::string trace =
      ::testing::TempDir() + "preload_trace.jsonl";
  std::remove(trace.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_TRACE_FILE=" + trace + " " +
                    child_bin("preload_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("total=80000\n"), std::string::npos) << r.out;
  // EPERM == 1 on Linux: the shield's errorcheck-style report.
  EXPECT_NE(r.out.find("double-unlock-rc=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("child-exit"), std::string::npos) << r.out;
  // glibc's trylock results for the owner (EBUSY == 16): a default
  // mutex and an rwlock under a write hold refuse, a recursive mutex
  // recurses. After the refusal the one unlock left the mutex free.
  for (const char* line :
       {"owner-trylock-default=16\n", "owner-trylock-then-free=0\n",
        "owner-trylock-recursive=0\n", "owner-tryrdlock-wrheld=16\n",
        "owner-trywrlock-wrheld=16\n", "owner-trywrlock-rdheld=16\n",
        "owner-tryrdlock-rdheld=0\n"}) {
    EXPECT_NE(r.out.find(line), std::string::npos) << line << r.out;
  }

  // (b) The misuse landed in the trace pipeline with the absorb
  // verdict — evidence an unmodified binary gets the paper's §5
  // observability, not just survival.
  const std::string t = slurp(trace);
  EXPECT_NE(t.find("\"kind\":\"double-unlock\""), std::string::npos)
      << t;
  EXPECT_NE(t.find("\"verdict\":\"suppress\""), std::string::npos)
      << t;
  std::remove(trace.c_str());
}

// (c) SIGUSR2 at runtime produces a lock_stat report that names the
// child's own function — the call-site attribution must pierce the
// interposition layer (the return address inside libresilock_preload
// would be useless to an operator).
TEST(PreloadE2E, SigusrDumpNamesChildCallSites) {
  const std::string report =
      ::testing::TempDir() + "preload_lockstat.txt";
  std::remove(report.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_LOCKSTAT=1 RESILOCK_LOCKSTAT_FILE=" +
                    report + " " + child_bin("preload_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  const std::string rep = slurp(report);
  EXPECT_NE(rep.find("lock_stat"), std::string::npos) << rep;
  EXPECT_NE(rep.find("call sites"), std::string::npos) << rep;
  EXPECT_NE(rep.find("worker_loop"), std::string::npos)
      << "lock_stat did not name the child's call site:\n"
      << rep;
  std::remove(report.c_str());
}

// Static-initializer adoption is exactly-once under a 4-thread race:
// the preload's stats JSON counts one adoption for the one mutex, and
// the counter total proves the four threads really did serialize on a
// single shield instance (two instances would lose increments).
TEST(PreloadE2E, StaticInitializerAdoptedExactlyOnce) {
  const std::string stats =
      ::testing::TempDir() + "preload_stats.json";
  std::remove(stats.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_PRELOAD_STATS_FILE=" + stats + " " +
                    child_bin("preload_static_init"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("static-init-total=20000\n"), std::string::npos)
      << r.out;
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"adopted_mutexes\":1"), std::string::npos) << s;
  std::remove(stats.c_str());
}

// The glibc 2.30+ clock entry points are interposed too: a child that
// mixes pthread_mutex_lock and pthread_mutex_clocklock threads over
// one mutex keeps an exact total (un-interposed clock variants would
// lock the raw glibc object while the others hold the adopted handle
// — no mutual exclusion), monotonic deadlines produce ETIMEDOUT
// against held locks, unsupported clocks produce EINVAL, and a
// cond_clockwait with no signaler times out with the lock reacquired.
TEST(PreloadE2E, ClockVariantsRouteThroughAdoptedHandles) {
  RunResult r = run("env " + preload_env() + " " +
                    child_bin("preload_clock_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("clock-total=80000\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clocklock-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clocklock-einval=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockrdlock-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockrwlock-free=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clockwait-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clock-child-exit"), std::string::npos) << r.out;
}

// A cond wait on a mutex the caller does not hold is the unbalanced
// unlock the shield exists for: the release inside the wait returns
// EPERM, the wait returns it at once (no wait, no re-acquire, so the
// mutex is free for another thread's trylock), and the trace records
// the unlock with its verdict. Covers a never-touched static mutex
// (first seen by the wait itself) and one this thread released before.
TEST(PreloadE2E, CondWaitWithoutLockReturnsEpermAndHoldsNothing) {
  const std::string trace =
      ::testing::TempDir() + "preload_cond_trace.jsonl";
  std::remove(trace.c_str());
  RunResult r = run("env " + preload_env() + " RESILOCK_TRACE_FILE=" +
                    trace + " " + child_bin("preload_cond_child") +
                    " misuse");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  // EPERM == 1 on Linux; the trylock's 0 means nothing was acquired.
  EXPECT_NE(r.out.find("wait-unheld-rc=1\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("wait-unheld-trylock=0\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("wait-released-rc=1\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("wait-released-trylock=0\n"), std::string::npos)
      << r.out;
  const std::string t = slurp(trace);
  EXPECT_TRUE(trace_line_has(t, "\"kind\":\"unbalanced-unlock\"",
                             "\"verdict\":\"suppress\""))
      << t;
  EXPECT_TRUE(trace_line_has(t, "\"kind\":\"double-unlock\"",
                             "\"verdict\":\"suppress\""))
      << t;
  std::remove(trace.c_str());
}

// The native condvar against the POSIX contract, from an unmodified
// binary: exact ping-pong handoff count, one broadcast waking all 8
// waiters, the cond clock attribute honoured, EINVAL on a bad tv_nsec,
// PTHREAD_COND_INITIALIZER without init, and no waiter stranded after
// timed waiters time out under racing signals. The child's alarm()
// turns any lost wakeup into a nonzero exit.
TEST(PreloadE2E, NativeCondvarKeepsPosixSemantics) {
  RunResult r = run("env " + preload_env() + " " +
                    child_bin("preload_cond_child") + " cond");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("handoffs=200000\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("broadcast-woken=8\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("monotonic-timeout=ok"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("bad-nsec-einval=ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("static-cond=ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("timed-race=ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cancel=ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cond-child-exit"), std::string::npos) << r.out;
}

// A thread pool shut down by a static destructor: exit() runs it after
// the telemetry collector's destructor has pinned the exiting thread to
// glibc, so the stop broadcast comes from a pinned thread while the
// workers sleep in the native condvar. Every condvar call must reach
// the same condvar whichever way the thread's mutex calls are routed,
// or the join never returns and the child's alarm() fires.
TEST(PreloadE2E, ExitPathBroadcastFromPinnedThreadWakesWorkers) {
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_TRACE_FILE=/dev/null " +
                    child_bin("preload_cond_child") + " exit");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("exit-pool-started\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("exit-pool-joined=4\n"), std::string::npos) << r.out;
}

// RESILOCK_TRACE_FILE has one writer, the collector, which the file
// itself starts. A child whose 50 double unlocks are still queued when
// it exits gets, whether or not lockstat also wants the collector, a
// perfetto trace that is one JSON document holding all 50, and a JSONL
// trace with exactly one schema line.
TEST(PreloadTrace, PerfettoTraceIsOneDocumentWithTheMisuse) {
  const std::string trace =
      ::testing::TempDir() + "preload_trace_perfetto.json";
  for (const std::string extra : {"RESILOCK_LOCKSTAT=1 ", ""}) {
    std::remove(trace.c_str());
    RunResult r = run("env " + preload_env() + " " + extra +
                      "RESILOCK_TRACE_FORMAT=perfetto RESILOCK_TRACE_FILE=" +
                      trace + " " + child_bin("preload_misuse_exit"));
    EXPECT_EQ(r.exit_code, 0) << extra << r.out;
    EXPECT_NE(r.out.find("double-unlock-eperm=50\n"), std::string::npos)
        << extra << r.out;
    const std::string doc = slurp(trace);
    EXPECT_TRUE(JsonDocument::valid(doc)) << extra << doc;
    EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u) << extra << doc;
    const std::string instant = "\"name\":\"double-unlock\",\"ph\":\"i\"";
    EXPECT_EQ(count_of(doc, instant), 50u) << extra << doc;
  }
  std::remove(trace.c_str());
}

TEST(PreloadTrace, JsonlTraceHasOneSchemaLine) {
  const std::string trace =
      ::testing::TempDir() + "preload_trace_schema.jsonl";
  for (const std::string extra : {"RESILOCK_LOCKSTAT=1 ", ""}) {
    std::remove(trace.c_str());
    RunResult r = run("env " + preload_env() + " " + extra +
                      "RESILOCK_TRACE_FILE=" + trace + " " +
                      child_bin("preload_misuse_exit"));
    EXPECT_EQ(r.exit_code, 0) << extra << r.out;
    const std::string t = slurp(trace);
    EXPECT_EQ(count_of(t, "\"schema\":"), 1u) << extra << t;
    EXPECT_EQ(t.rfind("{\"schema\":\"resilock-trace\"", 0), 0u)
        << extra << t;
    EXPECT_EQ(count_of(t, "\"kind\":\"double-unlock\""), 50u)
        << extra << t;
  }
  std::remove(trace.c_str());
}

// A metrics file alone is a job for the collector: its final dump at
// exit writes the file.
TEST(PreloadTrace, MetricsFileAloneIsWritten) {
  const std::string metrics =
      ::testing::TempDir() + "preload_metrics.json";
  std::remove(metrics.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_METRICS_FORMAT=json RESILOCK_METRICS_FILE=" +
                    metrics + " " + child_bin("preload_misuse_exit"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  const std::string m = slurp(metrics);
  EXPECT_TRUE(JsonDocument::valid(m)) << m;
  EXPECT_NE(m.find("\"trace.events_emitted\""), std::string::npos) << m;
  std::remove(metrics.c_str());
}

// Lockdep on an unmodified program: 20k repeats of one lock order and
// one inversion record exactly the two orders and one report, and the
// repeats hit the chain-key cache — each thread walks the graph a few
// times at most, not once per acquire.
TEST(PreloadTrace, RepeatedOrderHitsTheChainCache) {
  const std::string metrics =
      ::testing::TempDir() + "preload_chain_metrics.json";
  std::remove(metrics.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_METRICS_FORMAT=json RESILOCK_METRICS_FILE=" +
                    metrics + " " + child_bin("preload_chain_child"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  const std::string m = slurp(metrics);
  ASSERT_TRUE(JsonDocument::valid(m)) << m;
  const auto metric = [&m](const std::string& name) -> long long {
    const std::string key = "\"" + name + "\":";
    const std::size_t at = m.find(key);
    if (at == std::string::npos) return -1;
    return std::strtoll(m.c_str() + at + key.size(), nullptr, 10);
  };
  EXPECT_EQ(metric("lockdep.edges"), 2) << m;
  EXPECT_EQ(metric("lockdep.inversions"), 1) << m;
  EXPECT_GE(metric("lockdep.chains"), 1) << m;
  EXPECT_GE(metric("lockdep.chain_walks"), 2) << m;  // A->B once, B->A once
  EXPECT_LE(metric("lockdep.chain_walks"), 8) << m;
  std::remove(metrics.c_str());
}

// A lock costs bytes, not kilobytes: 100k mutexes, or 20k rwlocks,
// each adopted and locked once, stay under 60 MB of peak RSS for the
// whole child — about 500 B per mutex and 2.5 KB per rwlock beyond the
// process itself. Under ASan the child carries the sanitizer's
// redzones and quarantine, so only the run itself is checked there.
namespace {
void expect_footprint(const std::string& mode) {
  RunResult r = run("env " + preload_env() + " " +
                    child_bin("preload_manylocks") + " " + mode);
  ASSERT_EQ(r.exit_code, 0) << r.out;
  const std::string key = mode + "-maxrss-kb=";
  const std::size_t at = r.out.find(key);
  ASSERT_NE(at, std::string::npos) << r.out;
  const long kb = std::strtol(r.out.c_str() + at + key.size(), nullptr, 10);
#ifndef PRELOAD_ASAN_RUNTIME
  EXPECT_LT(kb, 60L * 1024) << mode << " peak RSS " << kb << " KB";
#else
  EXPECT_GT(kb, 0L);
#endif
}
}  // namespace

TEST(PreloadE2E, HundredThousandMutexesStayUnderSixtyMegabytes) {
  expect_footprint("mutex");
}

TEST(PreloadE2E, TwentyThousandRwlocksStayUnderSixtyMegabytes) {
  expect_footprint("rwlock");
}

// The kind an app stores in a pthread_rwlock_t picks the C-RW variant,
// and the stats file counts each adoption by what it built: 2 NULL-attr
// inits, 1 PTHREAD_RWLOCK_INITIALIZER static and 1 PREFER_WRITER_NP
// (which glibc runs as reader preference) are reader preference; 2
// PREFER_WRITER_NONRECURSIVE_NP inits and 1
// PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP static, adopted on
// its first rdlock, are writer preference; 1 pshared lock passes
// through.
TEST(PreloadE2E, RwlockKindPicksTheVariantAndIsCountedExactly) {
  const std::string stats =
      ::testing::TempDir() + "preload_stats_rwkinds.json";
  std::remove(stats.c_str());
  RunResult r = run("env " + preload_env() +
                    " RESILOCK_PRELOAD_STATS_FILE=" + stats + " " +
                    child_bin("preload_rwlock_kinds") + " kinds");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("kinds-exercised=ok\n"), std::string::npos)
      << r.out;
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"rwlocks_reader_pref\":4,"), std::string::npos) << s;
  EXPECT_NE(s.find("\"rwlocks_writer_pref\":3,"), std::string::npos) << s;
  EXPECT_NE(s.find("\"rwlocks_passthrough\":1,"), std::string::npos) << s;
  std::remove(stats.c_str());
}

// A PTHREAD_PROCESS_SHARED rwlock stays glibc's: a write hold under the
// preload is glibc's own writer state, the holder's own clockrdlock
// gets glibc's EDEADLK (35), another thread and another process are
// refused a read (EBUSY = 16), and the lock reads free again after the
// unlock.
namespace {

// The text of `"key":"..."` in the workload's JSON line, or "".
std::string json_string(const std::string& out, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = out.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  return out.substr(begin, out.find('"', begin) - begin);
}

// The number after `"key":` in the workload's JSON line, or 0.
std::uint64_t json_number(const std::string& out, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = out.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(out.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

// The paper's headline on the benchmark's app, built with no resilock
// header: with 1% of its ops an injected unbalanced unlock, the run
// under the preload exits cleanly with its invariants intact. The bare
// run is printed, not asserted: it usually corrupts or dies (SIGABRT in
// glibc's checks, or the app's SIGALRM watchdog on a hang; `timeout`
// cuts the wait short), and a clean bare run is a lucky schedule.
TEST(PreloadE2E, WorkloadSurvivesInjectedMisuse) {
  for (const char* w : {"ledger", "rwcache", "pipeline"}) {
    SCOPED_TRACE(w);
    const std::string cmd = std::string(RESILOCK_WORKLOAD_BIN) +
                            " --workload " + w +
                            " --threads 3 --duration-ms 500"
                            " --misuse-rate 0.01";
    const RunResult bare = run("timeout 5 " + cmd);
    std::printf("%s bare: exit %d, check \"%s\"\n", w,
                WEXITSTATUS(bare.exit_code),
                json_string(bare.out, "check").c_str());
    const RunResult shielded = run("env " + preload_env() + " " + cmd);
    EXPECT_EQ(shielded.exit_code, 0) << shielded.out;
    EXPECT_EQ(json_string(shielded.out, "check"), "ok") << shielded.out;
    EXPECT_GT(json_number(shielded.out, "misuses_injected"), 0u)
        << shielded.out;
    std::printf("%s preload: check \"%s\", %llu misuses injected\n", w,
                json_string(shielded.out, "check").c_str(),
                static_cast<unsigned long long>(
                    json_number(shielded.out, "misuses_injected")));
  }
}

TEST(PreloadE2E, ProcessSharedRwlockPassesThroughToGlibc) {
  RunResult r = run("env " + preload_env() + " " +
                    child_bin("preload_rwlock_kinds") + " pshared");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("pshared-cur-writer=ok\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("pshared-thread-tryrdlock=16\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("pshared-own-clockrdlock=35\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("pshared-fork-tryrdlock=16\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("pshared-released-tryrdlock=0\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("pshared-destroy=0\n"), std::string::npos) << r.out;
}
