// Driven app-shaped workloads for the LD_PRELOAD harness.
//
// This binary is the "unmodified application" of the paper's
// evaluation: it includes no resilock header and links only libpthread.
// Everything resilock does to it happens from the outside, via
// LD_PRELOAD=libresilock_preload.so (resilock_drive orchestrates that).
//
// Three workloads, grown from the examples/ programs into
// parameterized, invariant-checked drivers:
//
//   ledger    examples/bank_ledger shape: N account mutexes (plus one
//             PTHREAD_MUTEX_INITIALIZER stats mutex — the lazy-adoption
//             path), random pairwise transfers in address order.
//             Invariant: total balance conserved.
//   pipeline  examples/pipeline shape: 3 stages over bounded queues
//             built on pthread_mutex_t + pthread_cond_t — exercises the
//             preload's native futex condvar.
//             Invariant: every produced item consumed, checksum intact.
//   rwcache   examples/rwcache shape: read-mostly table under a
//             pthread_rwlock_t. Invariant: paired fields never observed
//             torn.
//
// --misuse-rate injects the paper's §2 bug: an unlock of a lock the
// thread does not hold, at the given per-op probability. Bare glibc
// silently breaks mutual exclusion (the invariant check reports
// "corrupt"); under the preload the shield absorbs each one (EPERM)
// and the run stays "ok" — that head-to-head is the point.
//
// Output: one JSON line on stdout:
//   {"workload":"ledger","threads":8,"ops":123,"duration_ms":3000,
//    "throughput_ops_s":41.0,"check":"ok","misuses_injected":7}

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Config + shared state
// ---------------------------------------------------------------------

struct Config {
  std::string workload = "ledger";
  int threads = 4;
  long duration_ms = 2000;
  double misuse_rate = 0.0;
  std::vector<int> cpus;  // pin thread i to cpus[i % n]; empty = no pin
};

std::atomic<bool> g_stop{false};
std::atomic<std::uint64_t> g_misuses{0};

std::uint64_t now_ms() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

struct Rng {  // xorshift64*, per thread
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2685821657736338717ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
  double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
};

void maybe_pin(const Config& cfg, int tid) {
  if (cfg.cpus.empty()) return;
  const int cpu = cfg.cpus[static_cast<std::size_t>(tid) % cfg.cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---------------------------------------------------------------------
// ledger
// ---------------------------------------------------------------------

constexpr int kAccounts = 64;
constexpr long kInitialBalance = 1000;
// Per-transaction compute between lock episodes (~0.5us): the ratio a
// lock-bound microbench would hide is exactly what the head-to-head
// wants to show for an app-shaped profile.
constexpr int kThinkSteps = 512;

struct Ledger {
  pthread_mutex_t lock[kAccounts];
  long balance[kAccounts];
  // CS occupancy counter per account, only ever touched under lock[i]
  // — so any observation != 1 inside the CS means mutual exclusion
  // broke (a stray unlock let a second thread in). Much more sensitive
  // than waiting for a lost balance update to surface.
  int in_cs[kAccounts];
  std::atomic<bool> invaded{false};
  std::uint64_t ops = 0;
};
Ledger g_ledger;
// The lazy-adoption path: never pthread_mutex_init'ed, first touched
// by a lock call from a worker thread.
pthread_mutex_t g_ledger_stats_mu = PTHREAD_MUTEX_INITIALIZER;

struct WorkerArgs {
  const Config* cfg;
  int tid;
  std::uint64_t ops = 0;
};

void* ledger_worker(void* p) {
  auto* a = static_cast<WorkerArgs*>(p);
  maybe_pin(*a->cfg, a->tid);
  Rng rng(0x9E3779B9u + static_cast<std::uint64_t>(a->tid));
  std::uint64_t local_ops = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    // Account 0 is deliberately hot (a "house account" every fourth
    // transaction touches): contention concentrates there, which is
    // also where misuse injection aims — a freed-while-held hot lock
    // is how a stray unlock becomes an observable invasion.
    const int i = rng.uniform() < 0.25
                      ? 0
                      : static_cast<int>(rng.next() % kAccounts);
    int j = static_cast<int>(rng.next() % kAccounts);
    if (j == i) j = (j + 1) % kAccounts;
    pthread_mutex_t* first = &g_ledger.lock[i < j ? i : j];
    pthread_mutex_t* second = &g_ledger.lock[i < j ? j : i];
    pthread_mutex_lock(first);
    pthread_mutex_lock(second);
    if (++g_ledger.in_cs[i] != 1) {
      g_ledger.invaded.store(true, std::memory_order_relaxed);
    }
    const long amount = static_cast<long>(rng.next() % 100);
    g_ledger.balance[i] -= amount;
    for (volatile int spin = 0; spin < 32; spin = spin + 1) {
    }  // widen the CS so an invader is actually observed
    g_ledger.balance[j] += amount;
    --g_ledger.in_cs[i];
    pthread_mutex_unlock(second);
    pthread_mutex_unlock(first);
    // App-shaped think time between transactions (outside the CS):
    // real ledgers compute; a pure lock/unlock spin would measure
    // nothing but interposition dispatch.
    for (int k = 0; k < kThinkSteps; ++k) rng.next();
    if (a->cfg->misuse_rate > 0 && rng.uniform() < a->cfg->misuse_rate) {
      // The §2 bug: unlock of a lock this thread does NOT hold, aimed
      // at the hot account. Bare glibc frees it under the current
      // holder and the next acquirer invades the CS (in_cs detects).
      pthread_mutex_unlock(&g_ledger.lock[0]);
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    if ((++local_ops & 1023) == 0) {
      pthread_mutex_lock(&g_ledger_stats_mu);
      g_ledger.ops += 1024;
      pthread_mutex_unlock(&g_ledger_stats_mu);
    }
  }
  a->ops = local_ops;
  return nullptr;
}

bool ledger_check() {
  long total = 0;
  for (long b : g_ledger.balance) total += b;
  return total == static_cast<long>(kAccounts) * kInitialBalance &&
         !g_ledger.invaded.load();
}

// ---------------------------------------------------------------------
// pipeline: produce → transform → consume over two bounded queues
// (mutex + two condvars each), the dedup/ferret shape LiTL calls out.
// ---------------------------------------------------------------------

struct BoundedQueue {
  static constexpr int kCap = 64;
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t not_empty = PTHREAD_COND_INITIALIZER;
  pthread_cond_t not_full = PTHREAD_COND_INITIALIZER;
  std::uint64_t items[kCap];
  int head = 0, count = 0;
  bool closed = false;

  // False when the queue closed while we were blocked (nothing pushed)
  // — without the closed check a producer could land an item after the
  // last popper exited, leaking it.
  bool push(std::uint64_t v) {
    pthread_mutex_lock(&mu);
    while (count == kCap && !closed) pthread_cond_wait(&not_full, &mu);
    if (closed) {
      pthread_mutex_unlock(&mu);
      return false;
    }
    items[(head + count) % kCap] = v;
    ++count;
    pthread_cond_signal(&not_empty);
    pthread_mutex_unlock(&mu);
    return true;
  }

  // False when the queue is closed and drained.
  bool pop(std::uint64_t* out) {
    pthread_mutex_lock(&mu);
    while (count == 0 && !closed) pthread_cond_wait(&not_empty, &mu);
    if (count == 0) {
      pthread_mutex_unlock(&mu);
      return false;
    }
    *out = items[head];
    head = (head + 1) % kCap;
    --count;
    pthread_cond_signal(&not_full);
    pthread_mutex_unlock(&mu);
    return true;
  }

  void close() {
    pthread_mutex_lock(&mu);
    closed = true;
    pthread_cond_broadcast(&not_empty);
    pthread_cond_broadcast(&not_full);
    pthread_mutex_unlock(&mu);
  }
};

BoundedQueue g_q1, g_q2;
std::atomic<std::uint64_t> g_produced{0}, g_produced_sum{0};
std::atomic<std::uint64_t> g_consumed{0}, g_consumed_sum{0};
std::atomic<int> g_transformers_left{0};

void* pipeline_producer(void* p) {
  auto* a = static_cast<WorkerArgs*>(p);
  maybe_pin(*a->cfg, a->tid);
  Rng rng(0xA5A5A5A5u + static_cast<std::uint64_t>(a->tid));
  std::uint64_t n = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    const std::uint64_t v = rng.next() & 0xFFFF;
    if (!g_q1.push(v)) break;
    g_produced_sum.fetch_add(v, std::memory_order_relaxed);
    g_produced.fetch_add(1, std::memory_order_relaxed);
    ++n;
  }
  a->ops = n;
  return nullptr;
}

void* pipeline_transformer(void* p) {
  auto* a = static_cast<WorkerArgs*>(p);
  maybe_pin(*a->cfg, a->tid);
  Rng rng(0x5A5A5A5Au + static_cast<std::uint64_t>(a->tid));
  std::uint64_t v = 0, n = 0;
  while (g_q1.pop(&v)) {
    if (a->cfg->misuse_rate > 0 && rng.uniform() < a->cfg->misuse_rate) {
      pthread_mutex_unlock(&g_q2.mu);  // not held: the §2 bug
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    g_q2.push(v);  // checksum-preserving transform (identity)
    ++n;
  }
  // Only the LAST transformer may close q2, or consumers drain early
  // while peers still push.
  if (g_transformers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g_q2.close();
  }
  a->ops = n;
  return nullptr;
}

void* pipeline_consumer(void* p) {
  auto* a = static_cast<WorkerArgs*>(p);
  maybe_pin(*a->cfg, a->tid);
  std::uint64_t v = 0, n = 0;
  while (g_q2.pop(&v)) {
    g_consumed_sum.fetch_add(v, std::memory_order_relaxed);
    g_consumed.fetch_add(1, std::memory_order_relaxed);
    ++n;
  }
  a->ops = n;
  return nullptr;
}

// ---------------------------------------------------------------------
// rwcache
// ---------------------------------------------------------------------

constexpr int kEntries = 256;

struct RwCache {
  pthread_rwlock_t lock;
  // Invariant under the lock: a == b for every entry. A reader that
  // observes a != b has raced a writer — mutual exclusion broke.
  std::uint64_t a[kEntries];
  std::uint64_t b[kEntries];
  std::atomic<bool> torn{false};
};
RwCache g_cache;

void* rwcache_worker(void* p) {
  auto* a = static_cast<WorkerArgs*>(p);
  maybe_pin(*a->cfg, a->tid);
  Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(a->tid));
  std::uint64_t n = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    const int e = static_cast<int>(rng.next() % kEntries);
    if (rng.uniform() < 0.9) {  // read-mostly
      pthread_rwlock_rdlock(&g_cache.lock);
      const std::uint64_t va = g_cache.a[e];
      const std::uint64_t vb = g_cache.b[e];
      pthread_rwlock_unlock(&g_cache.lock);
      if (va != vb) g_cache.torn.store(true, std::memory_order_relaxed);
    } else {
      pthread_rwlock_wrlock(&g_cache.lock);
      // Widen the write window so a reader invading the CS (after a
      // misuse empties the read indicator) actually observes the tear.
      g_cache.a[e] += 1;
      for (volatile int spin = 0; spin < 64; spin = spin + 1) {
      }
      g_cache.b[e] += 1;
      pthread_rwlock_unlock(&g_cache.lock);
    }
    if (a->cfg->misuse_rate > 0 && rng.uniform() < a->cfg->misuse_rate) {
      pthread_rwlock_unlock(&g_cache.lock);  // not held: the §4 bug
      g_misuses.fetch_add(1, std::memory_order_relaxed);
    }
    for (int k = 0; k < kThinkSteps; ++k) rng.next();  // think, see ledger
    ++n;
  }
  a->ops = n;
  return nullptr;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

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
      "          [--duration-ms MS] [--misuse-rate P] [--cpus 0,2,4]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.workload = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.threads = std::atoi(v);
    } else if (arg == "--duration-ms") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.duration_ms = std::atol(v);
    } else if (arg == "--misuse-rate") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.misuse_rate = std::atof(v);
    } else if (arg == "--cpus") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.cpus = parse_cpu_list(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.threads < 1) cfg.threads = 1;

  // Watchdog: a corrupted lock can hang a bare+misuse run forever
  // (glibc rwlock misuse reliably wedges rdlock); SIGALRM's default
  // action keeps the drive finite — the parent records check="died".
  alarm(static_cast<unsigned>(cfg.duration_ms / 1000 + 15));

  for (int i = 0; i < kAccounts; ++i) {
    pthread_mutex_init(&g_ledger.lock[i], nullptr);
    g_ledger.balance[i] = kInitialBalance;
  }
  pthread_rwlock_init(&g_cache.lock, nullptr);
  for (int i = 0; i < kEntries; ++i) g_cache.a[i] = g_cache.b[i] = 0;

  std::vector<pthread_t> threads(static_cast<std::size_t>(cfg.threads));
  std::vector<WorkerArgs> args(static_cast<std::size_t>(cfg.threads));
  for (int i = 0; i < cfg.threads; ++i) args[i] = {&cfg, i, 0};

  const std::uint64_t t0 = now_ms();
  if (cfg.workload == "ledger") {
    for (int i = 0; i < cfg.threads; ++i) {
      pthread_create(&threads[i], nullptr, ledger_worker, &args[i]);
    }
  } else if (cfg.workload == "pipeline") {
    if (cfg.threads < 3) {
      std::fprintf(stderr, "pipeline needs >= 3 threads\n");
      return 2;
    }
    // Stage split: 1/3 producers, 1/3 transformers, rest consumers
    // (at least one of each).
    const int p = cfg.threads / 3;
    const int t = cfg.threads / 3;
    g_transformers_left.store(t, std::memory_order_relaxed);
    for (int i = 0; i < cfg.threads; ++i) {
      void* (*fn)(void*) = (i < p)       ? pipeline_producer
                           : (i < p + t) ? pipeline_transformer
                                         : pipeline_consumer;
      pthread_create(&threads[i], nullptr, fn, &args[i]);
    }
  } else if (cfg.workload == "rwcache") {
    for (int i = 0; i < cfg.threads; ++i) {
      pthread_create(&threads[i], nullptr, rwcache_worker, &args[i]);
    }
  } else {
    return usage(argv[0]);
  }

  timespec sleep_ts = {cfg.duration_ms / 1000,
                       (cfg.duration_ms % 1000) * 1000000};
  while (nanosleep(&sleep_ts, &sleep_ts) == -1 && errno == EINTR) {
  }
  g_stop.store(true, std::memory_order_relaxed);
  if (cfg.workload == "pipeline") g_q1.close();

  std::uint64_t ops = 0;
  for (int i = 0; i < cfg.threads; ++i) {
    pthread_join(threads[i], nullptr);
    ops += args[i].ops;
  }
  const std::uint64_t elapsed = now_ms() - t0;

  bool ok = true;
  if (cfg.workload == "ledger") {
    ok = ledger_check();
  } else if (cfg.workload == "pipeline") {
    ok = g_produced.load() == g_consumed.load() &&
         g_produced_sum.load() == g_consumed_sum.load();
    ops = g_consumed.load();
  } else if (cfg.workload == "rwcache") {
    ok = !g_cache.torn.load();
  }

  const double secs =
      elapsed > 0 ? static_cast<double>(elapsed) / 1000.0 : 1.0;
  std::printf(
      "{\"workload\":\"%s\",\"threads\":%d,\"ops\":%" PRIu64
      ",\"duration_ms\":%" PRIu64
      ",\"throughput_ops_s\":%.1f,\"check\":\"%s\","
      "\"misuses_injected\":%" PRIu64 "}\n",
      cfg.workload.c_str(), cfg.threads, ops, elapsed,
      static_cast<double>(ops) / secs, ok ? "ok" : "corrupt",
      g_misuses.load());
  return 0;
}
