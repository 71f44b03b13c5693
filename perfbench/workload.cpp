// The benchmark's driven application.
//
// An extended copy of tools/resilock_workload.cpp: it keeps that
// program's three workload shapes, every flag (--threads, --duration-ms,
// --misuse-rate, --cpus) and every output key, so it can take that
// file's place (perfbench/README.md: "Out of scope"). Like it, this
// program includes no resilock header and links only libpthread:
// everything resilock does to it arrives through
// LD_PRELOAD=libresilock_preload.so (run.py sets that up). What it adds
// is what a repeatable measurement needs:
//
//   --seed N       every per-thread RNG derives from it, so the same
//                  seed replays the same op stream per thread.
//   start barrier  workers start together; main prints `ready_mono_ns`
//                  (CLOCK_MONOTONIC once every worker has passed it),
//                  from which run.py takes its spawn-to-ready set-up time.
//   warmup         0.25 s of unmeasured work before the measured window
//                  (lazy adoption, first lockdep edges, first page
//                  touches all finish within milliseconds).
//                  --duration-ms 0 skips it and stops at the barrier:
//                  that is the set-up probe.
//   latency        every measured op lands in a per-thread histogram
//                  (log2 buckets x 32 linear sub-buckets, ~3%).
//   failed ops     an op fails when its critical section saw another
//                  holder, when a pipeline item is lost or altered, or
//                  when an injected unbalanced unlock returned 0.
//   --trace FILE   per pthread-call-kind histogram, busy time and call
//                  count, plus a span for 1 in 1024 ops with its pthread
//                  calls as children, written as Chrome-trace JSON that
//                  Perfetto opens.
//
// Workloads:
//   ledger    N account mutexes (plus one PTHREAD_MUTEX_INITIALIZER stats
//             mutex: the lazy-adoption path); each op locks a pair in
//             address order and moves money. Invariant: total conserved.
//   rwcache   read-mostly table under one pthread_rwlock_t. Invariant:
//             paired fields never observed torn.
//   pipeline  producer -> transformer -> consumer over two bounded
//             queues built on pthread_mutex_t + pthread_cond_t.
//             Invariant: every item arrives once and unaltered.
//
// --misuse-rate injects the paper's bug: an unlock of a lock the thread
// does not hold, at the given per-op probability. Under the preload the
// shield refuses it (EPERM); bare glibc returns 0 and breaks exclusion.
//
// Output: one JSON line on stdout (keys listed at the printf in main).
// `--speed-probe` instead times a fixed single-thread loop and prints
// {"probe_ns":N}: run.py's host speed reference.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Config, clock, RNG
// ---------------------------------------------------------------------

struct Config {
  std::string workload = "ledger";
  int threads = 3;
  long duration_ms = 2000;
  double misuse_rate = 0.0;
  std::uint64_t seed = 1;
  const char* trace_path = nullptr;
  std::vector<int> cpus;  // pin thread i to cpus[i % n]; empty = no pin
};

constexpr long kWarmupMs = 250;

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_ms(long ms) {
  timespec ts = {ms / 1000, (ms % 1000) * 1000000};
  while (nanosleep(&ts, &ts) == -1 && errno == EINTR) {
  }
}

struct Rng {  // xorshift64*, per thread
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s((seed * 2685821657736338717ull) | 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
  double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
};

// Widens a critical section so an invader is actually observed. The
// empty asm is a compiler barrier: the loop can be neither elided nor
// hoisted out of the section.
void widen_cs(int steps) {
  for (int i = 0; i < steps; ++i) asm volatile("" ::: "memory");
}

// Per-transaction compute between lock episodes (~0.5us): real apps
// compute; a pure lock/unlock spin would measure nothing but dispatch.
constexpr int kThinkSteps = 512;

// ---------------------------------------------------------------------
// Latency histogram: values below 32 ns exact, above that each power of
// two is split into 32 linear sub-buckets (~3% relative resolution).
// ---------------------------------------------------------------------

class Histogram {
 public:
  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++total_;
  }

  void merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t total() const { return total_; }

  // Interpolates linearly inside the bucket holding the q-quantile.
  double percentile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double below = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && below + c >= target) {
        double lo = 0, width = 0;
        bounds(i, &lo, &width);
        return lo + width * (target - below) / c;
      }
      below += c;
    }
    return 0.0;
  }

 private:
  static constexpr int kSub = 32;
  static constexpr int kBuckets = 60 * kSub;  // up to 2^63 ns

  static int index(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= 5
    return (e - 4) * kSub + static_cast<int>((v >> (e - 5)) & (kSub - 1));
  }

  static void bounds(int idx, double* lo, double* width) {
    if (idx < kSub) {
      *lo = idx;
      *width = 1;
      return;
    }
    const int e = idx / kSub + 4;
    const double unit = static_cast<double>(std::uint64_t{1} << (e - 5));
    *lo = static_cast<double>(kSub + idx % kSub) * unit;
    *width = unit;
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------
// Tracing (--trace): every pthread call timed per kind, 1 in 1024 ops
// kept as a span tree. Buffers are allocated before the workers start;
// the hot path only appends into reserved capacity.
// ---------------------------------------------------------------------

enum Call : int {
  kMutexLock,
  kMutexUnlock,
  kCondWait,
  kCondSignal,
  kCondBroadcast,
  kRwRdlock,
  kRwWrlock,
  kRwUnlock,
  kCalls,
};

constexpr const char* kCallNames[kCalls] = {
    "mutex_lock",  "mutex_unlock",   "cond_wait",     "cond_signal",
    "cond_broadcast", "rwlock_rdlock", "rwlock_wrlock", "rwlock_unlock",
};

constexpr int kOpSpan = -1;

struct Span {
  std::uint64_t t0, t1, op_id;
  int name;  // a Call, or kOpSpan
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 16;
  static constexpr std::uint64_t kSampleMask = 1023;

  Tracer() { spans_.reserve(kMaxSpans); }

  void begin_op(std::uint64_t op_id, bool measured) {
    sampled_ = measured && (op_id & kSampleMask) == 0;
    op_id_ = op_id;
  }

  void end_op(std::uint64_t t0, std::uint64_t t1) {
    if (sampled_) add({t0, t1, op_id_, kOpSpan});
    sampled_ = false;
  }

  void on_call(Call c, std::uint64_t t0, std::uint64_t t1) {
    calls_[c].record(t1 - t0);
    busy_ns_[c] += t1 - t0;
    if (sampled_) add({t0, t1, op_id_, c});
  }

  const Histogram& calls(int c) const { return calls_[c]; }
  std::uint64_t busy_ns(int c) const { return busy_ns_[c]; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void add(const Span& s) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  Histogram calls_[kCalls];
  std::uint64_t busy_ns_[kCalls] = {};
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t op_id_ = 0;
  bool sampled_ = false;
};

// ---------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------

enum Phase : int { kWarmup, kMeasure, kStop };
std::atomic<int> g_phase{kWarmup};
std::atomic<std::uint64_t> g_misuses{0};
pthread_barrier_t g_start;

struct alignas(64) Worker {  // own cache lines: no false sharing
  const Config* cfg = nullptr;
  int tid = 0;
  std::uint64_t ops = 0;        // ops completed in the measured window
  std::uint64_t ops_total = 0;  // every op, warmup included
  std::uint64_t failed = 0;
  Histogram lat;
  std::unique_ptr<Tracer> tracer;  // null unless --trace

  Rng rng(std::uint64_t salt) const {
    return Rng(cfg->seed * 0x9E3779B97F4A7C15ull + salt +
               static_cast<std::uint64_t>(tid));
  }

  // Pins the thread (--cpus, for resilock_drive's placement rows; the
  // benchmark leaves threads unpinned), then waits at the start barrier.
  void start() const {
    if (!cfg->cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cfg->cpus[static_cast<std::size_t>(tid) % cfg->cpus.size()],
              &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
    pthread_barrier_wait(&g_start);
  }

  bool misuse_due(Rng& r) const {
    return cfg->misuse_rate > 0 && r.uniform() < cfg->misuse_rate;
  }

  // Op bracket: `measured` is the phase seen at op start.
  void begin_op(bool measured) {
    if (tracer) {
      tracer->begin_op(
          ((static_cast<std::uint64_t>(tid) + 1) << 40) | ops_total,
          measured);
    }
  }
  void end_op(bool measured, std::uint64_t t0, std::uint64_t t1, bool ok) {
    if (measured) {
      lat.record(t1 - t0);
      ++ops;
    }
    ++ops_total;
    if (!ok) ++failed;
    if (tracer) tracer->end_op(t0, t1);
  }
};

template <typename Fn>
int timed_call(Worker& w, Call c, Fn&& fn) {
  if (!w.tracer) return fn();
  const std::uint64_t t0 = now_ns();
  const int rc = fn();
  w.tracer->on_call(c, t0, now_ns());
  return rc;
}

int mutex_lock(Worker& w, pthread_mutex_t* m) {
  return timed_call(w, kMutexLock, [m] { return pthread_mutex_lock(m); });
}
int mutex_unlock(Worker& w, pthread_mutex_t* m) {
  return timed_call(w, kMutexUnlock, [m] { return pthread_mutex_unlock(m); });
}
int cond_wait(Worker& w, pthread_cond_t* c, pthread_mutex_t* m) {
  return timed_call(w, kCondWait, [c, m] { return pthread_cond_wait(c, m); });
}
int cond_signal(Worker& w, pthread_cond_t* c) {
  return timed_call(w, kCondSignal, [c] { return pthread_cond_signal(c); });
}
int cond_broadcast(Worker& w, pthread_cond_t* c) {
  return timed_call(w, kCondBroadcast,
                    [c] { return pthread_cond_broadcast(c); });
}
int rw_rdlock(Worker& w, pthread_rwlock_t* l) {
  return timed_call(w, kRwRdlock, [l] { return pthread_rwlock_rdlock(l); });
}
int rw_wrlock(Worker& w, pthread_rwlock_t* l) {
  return timed_call(w, kRwWrlock, [l] { return pthread_rwlock_wrlock(l); });
}
int rw_unlock(Worker& w, pthread_rwlock_t* l) {
  return timed_call(w, kRwUnlock, [l] { return pthread_rwlock_unlock(l); });
}

// ---------------------------------------------------------------------
// ledger
// ---------------------------------------------------------------------

constexpr int kAccounts = 64;
constexpr long kInitialBalance = 1000;

struct Ledger {
  pthread_mutex_t lock[kAccounts];
  long balance[kAccounts];
  // Occupancy per account, only ever touched under lock[i]: any value
  // other than 1 inside the section means a second thread got in.
  int in_cs[kAccounts];
};
Ledger g_ledger;
// The lazy-adoption path: never pthread_mutex_init'ed, first touched
// by a lock call from a worker thread.
pthread_mutex_t g_ledger_stats_mu = PTHREAD_MUTEX_INITIALIZER;
std::uint64_t g_ledger_batches = 0;  // guarded by g_ledger_stats_mu

void* ledger_worker(void* p) {
  Worker& w = *static_cast<Worker*>(p);
  Rng rng = w.rng(0x9E3779B9u);
  w.start();
  for (;;) {
    const int phase = g_phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const bool measured = phase == kMeasure;
    // Account 0 is hot: every fourth transaction touches it, and it is
    // where misuse injection aims.
    const int i = rng.uniform() < 0.25
                      ? 0
                      : static_cast<int>(rng.next() % kAccounts);
    int j = static_cast<int>(rng.next() % kAccounts);
    if (j == i) j = (j + 1) % kAccounts;
    const long amount = static_cast<long>(rng.next() % 100);
    pthread_mutex_t* first = &g_ledger.lock[i < j ? i : j];
    pthread_mutex_t* second = &g_ledger.lock[i < j ? j : i];

    w.begin_op(measured);
    const std::uint64_t t0 = now_ns();
    mutex_lock(w, first);
    mutex_lock(w, second);
    bool ok = ++g_ledger.in_cs[i] == 1;
    ok = ++g_ledger.in_cs[j] == 1 && ok;
    g_ledger.balance[i] -= amount;
    widen_cs(32);
    g_ledger.balance[j] += amount;
    --g_ledger.in_cs[j];
    --g_ledger.in_cs[i];
    mutex_unlock(w, second);
    mutex_unlock(w, first);
    w.end_op(measured, t0, now_ns(), ok);

    for (int k = 0; k < kThinkSteps; ++k) rng.next();
    if (w.misuse_due(rng)) {
      // The paper's bug: unlock of the hot account, which this thread
      // does not hold. Returning 0 means it went through.
      if (mutex_unlock(w, &g_ledger.lock[0]) == 0) ++w.failed;
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    if ((w.ops_total & 1023) == 0) {
      mutex_lock(w, &g_ledger_stats_mu);
      ++g_ledger_batches;
      mutex_unlock(w, &g_ledger_stats_mu);
    }
  }
  return nullptr;
}

bool ledger_check() {
  long total = 0;
  for (long b : g_ledger.balance) total += b;
  return total == static_cast<long>(kAccounts) * kInitialBalance;
}

// ---------------------------------------------------------------------
// rwcache
// ---------------------------------------------------------------------

constexpr int kEntries = 256;

struct RwCache {
  pthread_rwlock_t lock;
  // Invariant under the lock: a == b for every entry.
  std::uint64_t a[kEntries];
  std::uint64_t b[kEntries];
};
RwCache g_cache;

void* rwcache_worker(void* p) {
  Worker& w = *static_cast<Worker*>(p);
  Rng rng = w.rng(0xC0FFEEull);
  w.start();
  for (;;) {
    const int phase = g_phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const bool measured = phase == kMeasure;
    const int e = static_cast<int>(rng.next() % kEntries);
    const bool read = rng.uniform() < 0.9;

    w.begin_op(measured);
    const std::uint64_t t0 = now_ns();
    bool ok = true;
    if (read) {
      rw_rdlock(w, &g_cache.lock);
      ok = g_cache.a[e] == g_cache.b[e];
      rw_unlock(w, &g_cache.lock);
    } else {
      rw_wrlock(w, &g_cache.lock);
      g_cache.a[e] += 1;
      widen_cs(64);
      g_cache.b[e] += 1;
      rw_unlock(w, &g_cache.lock);
    }
    w.end_op(measured, t0, now_ns(), ok);

    if (w.misuse_due(rng)) {
      if (rw_unlock(w, &g_cache.lock) == 0) ++w.failed;
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    for (int k = 0; k < kThinkSteps; ++k) rng.next();
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// pipeline: produce -> transform -> consume over two bounded queues
// (mutex + two condvars each). An item's low 16 bits are a hash of its
// high 48, so the consumer can tell an altered item.
// ---------------------------------------------------------------------

std::uint64_t item_check(std::uint64_t hi) {
  return ((hi >> 16) * 0x9E3779B97F4A7C15ull) >> 48;
}

struct BoundedQueue {
  static constexpr int kCap = 64;
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t not_empty = PTHREAD_COND_INITIALIZER;
  pthread_cond_t not_full = PTHREAD_COND_INITIALIZER;
  std::uint64_t items[kCap];
  int head = 0, count = 0;
  bool closed = false;

  // False when the queue closed while we were blocked (nothing pushed).
  bool push(Worker& w, std::uint64_t v) {
    mutex_lock(w, &mu);
    while (count == kCap && !closed) cond_wait(w, &not_full, &mu);
    if (closed) {
      mutex_unlock(w, &mu);
      return false;
    }
    items[(head + count) % kCap] = v;
    ++count;
    cond_signal(w, &not_empty);
    mutex_unlock(w, &mu);
    return true;
  }

  // False when the queue is closed and drained.
  bool pop(Worker& w, std::uint64_t* out) {
    mutex_lock(w, &mu);
    while (count == 0 && !closed) cond_wait(w, &not_empty, &mu);
    if (count == 0) {
      mutex_unlock(w, &mu);
      return false;
    }
    *out = items[head];
    head = (head + 1) % kCap;
    --count;
    cond_signal(w, &not_full);
    mutex_unlock(w, &mu);
    return true;
  }

  void close(Worker& w) {
    mutex_lock(w, &mu);
    closed = true;
    cond_broadcast(w, &not_empty);
    cond_broadcast(w, &not_full);
    mutex_unlock(w, &mu);
  }
};

BoundedQueue g_q1, g_q2;
std::atomic<std::uint64_t> g_produced{0}, g_produced_sum{0};
std::atomic<std::uint64_t> g_consumed{0}, g_consumed_sum{0};
// Pipeline throughput counts items delivered end to end in the measured
// window, not the pushes and pops the latency histogram samples.
std::atomic<std::uint64_t> g_consumed_measured{0};
std::atomic<int> g_transformers_left{0};

bool measuring() {
  return g_phase.load(std::memory_order_relaxed) == kMeasure;
}

// One timed push or pop; false when the queue closed under it.
template <typename Fn>
bool queue_op(Worker& w, bool measured, Fn&& fn) {
  w.begin_op(measured);
  const std::uint64_t t0 = now_ns();
  const bool ok = fn();
  if (ok) w.end_op(measured, t0, now_ns(), true);
  return ok;
}

void* pipeline_producer(void* p) {
  Worker& w = *static_cast<Worker*>(p);
  Rng rng = w.rng(0xA5A5A5A5u);
  w.start();
  while (g_phase.load(std::memory_order_relaxed) != kStop) {
    const std::uint64_t hi = rng.next() & ~0xFFFFull;
    const std::uint64_t v = hi | item_check(hi);
    if (!queue_op(w, measuring(), [&] { return g_q1.push(w, v); })) {
      break;
    }
    g_produced_sum.fetch_add(v, std::memory_order_relaxed);
    g_produced.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void* pipeline_transformer(void* p) {
  Worker& w = *static_cast<Worker*>(p);
  Rng rng = w.rng(0x5A5A5A5Au);
  w.start();
  std::uint64_t v = 0;
  while (queue_op(w, measuring(), [&] { return g_q1.pop(w, &v); })) {
    if (w.misuse_due(rng)) {
      if (mutex_unlock(w, &g_q2.mu) == 0) ++w.failed;  // not held
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    queue_op(w, measuring(), [&] { return g_q2.push(w, v); });  // identity
  }
  // Only the LAST transformer may close q2, or consumers drain early
  // while peers still push.
  if (g_transformers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g_q2.close(w);
  }
  return nullptr;
}

void* pipeline_consumer(void* p) {
  Worker& w = *static_cast<Worker*>(p);
  w.start();
  std::uint64_t v = 0;
  for (;;) {
    const bool measured = measuring();
    if (!queue_op(w, measured, [&] { return g_q2.pop(w, &v); })) break;
    if ((v & 0xFFFF) != item_check(v & ~0xFFFFull)) ++w.failed;
    g_consumed_sum.fetch_add(v, std::memory_order_relaxed);
    g_consumed.fetch_add(1, std::memory_order_relaxed);
    if (measured) g_consumed_measured.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void write_chrome_trace(const char* path, const std::vector<Worker>& workers,
                        const std::string& workload, std::uint64_t base_ns) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Worker& w : workers) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"worker-%d\"}}",
                 first ? "" : ",", w.tid + 1, w.tid);
    first = false;
    for (const Span& s : w.tracer->spans()) {
      const double ts = static_cast<double>(s.t0 - base_ns) / 1000.0;
      const double dur = static_cast<double>(s.t1 - s.t0) / 1000.0;
      const bool op = s.name == kOpSpan;
      std::fprintf(f,
                   ",{\"name\":\"%s%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"op_id\":%" PRIu64 "}}",
                   op ? workload.c_str() : "pthread_",
                   op ? ".op" : kCallNames[s.name], op ? "op" : "pthread",
                   ts, dur, w.tid + 1, s.op_id);
    }
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

// Per call kind: {"calls":N,"busy_ns":N,"p50_ns":X,"p99_ns":X}.
void print_call_summary(const std::vector<Worker>& workers) {
  std::printf(",\"calls\":{");
  std::uint64_t spans = 0, dropped = 0;
  for (int c = 0; c < kCalls; ++c) {
    Histogram h;
    std::uint64_t busy = 0;
    for (const Worker& w : workers) {
      h.merge(w.tracer->calls(c));
      busy += w.tracer->busy_ns(c);
    }
    std::printf("%s\"%s\":{\"calls\":%" PRIu64 ",\"busy_ns\":%" PRIu64
                ",\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                c == 0 ? "" : ",", kCallNames[c], h.total(), busy,
                h.percentile(0.50), h.percentile(0.99));
  }
  for (const Worker& w : workers) {
    spans += w.tracer->spans().size();
    dropped += w.tracer->dropped();
  }
  std::printf("},\"spans\":%" PRIu64 ",\"spans_dropped\":%" PRIu64, spans,
              dropped);
}

// Host speed probe: a fixed single-thread xorshift chain, timed in 31
// chunks of 2^20 steps. The median chunk, scaled to the whole chain,
// is the probe: a preemption or a neighbour's burst lands in a few
// chunks and moves the median by none, while a slower host moves every
// chunk.
std::uint64_t speed_probe_ns() {
  constexpr int kChunks = 31;
  Rng r(1);
  std::uint64_t x = 0;
  std::uint64_t chunk_ns[kChunks];
  for (int c = 0; c < kChunks; ++c) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < (1 << 20); ++i) x ^= r.next();
    chunk_ns[c] = now_ns() - t0;
  }
  if (x == 42) std::fputc(0, stderr);  // keeps the chain live
  std::sort(chunk_ns, chunk_ns + kChunks);
  return chunk_ns[kChunks / 2] * kChunks;
}

std::vector<int> parse_cpu_list(const char* s) {
  std::vector<int> cpus;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    cpus.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return cpus;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload ledger|pipeline|rwcache] [--threads N]\n"
      "          [--duration-ms MS] [--misuse-rate P] [--seed N]\n"
      "          [--cpus 0,2,4] [--trace FILE] | --speed-probe\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--speed-probe") {
      std::printf("{\"probe_ns\":%" PRIu64 "}\n", speed_probe_ns());
      return 0;
    }
    const char* v = (i + 1 < argc) ? argv[++i] : nullptr;
    if (v == nullptr) return usage(argv[0]);
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(v);
    } else if (arg == "--duration-ms") {
      cfg.duration_ms = std::atol(v);
    } else if (arg == "--misuse-rate") {
      cfg.misuse_rate = std::atof(v);
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace") {
      cfg.trace_path = v;
    } else if (arg == "--cpus") {
      cfg.cpus = parse_cpu_list(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.threads < 1) cfg.threads = 1;
  if (cfg.duration_ms < 0) cfg.duration_ms = 0;
  const bool pipeline = cfg.workload == "pipeline";
  void* (*worker_fn)(void*) = nullptr;
  if (cfg.workload == "ledger") {
    worker_fn = ledger_worker;
  } else if (cfg.workload == "rwcache") {
    worker_fn = rwcache_worker;
  } else if (!pipeline) {
    return usage(argv[0]);
  } else if (cfg.threads < 3) {
    std::fprintf(stderr, "pipeline needs >= 3 threads\n");
    return 2;
  }

  // Watchdog: a corrupted lock can hang a bare+misuse run forever;
  // SIGALRM's default action keeps the run finite.
  alarm(static_cast<unsigned>((cfg.duration_ms + kWarmupMs) / 1000 + 15));

  for (int i = 0; i < kAccounts; ++i) {
    pthread_mutex_init(&g_ledger.lock[i], nullptr);
    g_ledger.balance[i] = kInitialBalance;
  }
  pthread_rwlock_init(&g_cache.lock, nullptr);

  std::vector<Worker> workers(static_cast<std::size_t>(cfg.threads));
  for (int i = 0; i < cfg.threads; ++i) {
    workers[i].cfg = &cfg;
    workers[i].tid = i;
    if (cfg.trace_path != nullptr) {
      workers[i].tracer = std::make_unique<Tracer>();
    }
  }
  pthread_barrier_init(&g_start, nullptr,
                       static_cast<unsigned>(cfg.threads) + 1);
  // Pipeline stage split: 1/3 producers, 1/3 transformers, rest
  // consumers (at least one of each).
  const int producers = cfg.threads / 3;
  const int transformers = cfg.threads / 3;
  g_transformers_left.store(transformers, std::memory_order_relaxed);
  std::vector<pthread_t> threads(static_cast<std::size_t>(cfg.threads));
  for (int i = 0; i < cfg.threads; ++i) {
    void* (*fn)(void*) = worker_fn;
    if (pipeline) {
      fn = i < producers                  ? pipeline_producer
           : i < producers + transformers ? pipeline_transformer
                                          : pipeline_consumer;
    }
    pthread_create(&threads[i], nullptr, fn, &workers[i]);
  }

  pthread_barrier_wait(&g_start);
  const std::uint64_t ready_ns = now_ns();
  std::uint64_t t_start = ready_ns;
  if (cfg.duration_ms > 0) {
    sleep_ms(kWarmupMs);
    t_start = now_ns();
    g_phase.store(kMeasure, std::memory_order_relaxed);
    sleep_ms(cfg.duration_ms);
  }
  const std::uint64_t t_end = now_ns();
  g_phase.store(kStop, std::memory_order_relaxed);
  if (pipeline) {
    Worker closer;  // main's own, untraced
    closer.cfg = &cfg;
    g_q1.close(closer);
  }

  Histogram lat;
  std::uint64_t ops = 0, ops_total = 0, failed = 0;
  for (int i = 0; i < cfg.threads; ++i) {
    pthread_join(threads[i], nullptr);
    lat.merge(workers[i].lat);
    ops += workers[i].ops;
    ops_total += workers[i].ops_total;
    failed += workers[i].failed;
  }

  bool ok = true;
  if (cfg.workload == "ledger") {
    ok = ledger_check() && failed == 0;
  } else if (pipeline) {
    const std::uint64_t produced = g_produced.load();
    const std::uint64_t consumed = g_consumed.load();
    failed += produced > consumed ? produced - consumed : consumed - produced;
    ok = failed == 0 && g_produced_sum.load() == g_consumed_sum.load();
    ops = g_consumed_measured.load();
    ops_total = produced;
  } else {
    ok = failed == 0;
  }

  const std::uint64_t measured_ns = t_end - t_start;
  const double secs =
      measured_ns > 0 ? static_cast<double>(measured_ns) * 1e-9 : 1.0;
  std::printf(
      "{\"workload\":\"%s\",\"threads\":%d,\"ops\":%" PRIu64
      ",\"duration_ms\":%" PRIu64
      ",\"throughput_ops_s\":%.1f,\"check\":\"%s\","
      "\"misuses_injected\":%" PRIu64 ",\"seed\":%" PRIu64
      ",\"measured_ns\":%" PRIu64 ",\"ready_mono_ns\":%" PRIu64
      ",\"ops_total\":%" PRIu64 ",\"failed_ops\":%" PRIu64
      ",\"lat_samples\":%" PRIu64 ",\"lat_p50_ns\":%.1f,\"lat_p90_ns\":%.1f"
      ",\"lat_p99_ns\":%.1f",
      cfg.workload.c_str(), cfg.threads, ops, measured_ns / 1000000,
      static_cast<double>(ops) / secs, ok ? "ok" : "corrupt",
      g_misuses.load(), cfg.seed, measured_ns, ready_ns, ops_total, failed,
      lat.total(), lat.percentile(0.50), lat.percentile(0.90),
      lat.percentile(0.99));
  if (cfg.trace_path != nullptr) {
    print_call_summary(workers);
    write_chrome_trace(cfg.trace_path, workers, cfg.workload, ready_ns);
  }
  std::printf("}\n");
  return 0;
}
