// In-process layer ladder for the end-to-end benchmark (run.py --trace).
//
// The workload app times its pthread calls from outside the library;
// this binary times the same op shapes by calling each layer's public
// API directly, so every nanosecond of the app's interpose cost has an
// owner. The ledger op shape (two nested acquires, a short critical
// section, two releases) is priced on a cumulative ladder:
//
//   core       bare resilient MCS (the preload's default algorithm)
//   shield     Shield<MCS>, lockdep off
//   lockdep    + lockdep in report mode (the preload's default)
//   observe    + lockstat
//   park       + parking
//   telemetry  + hold/wait spans, collector draining to a counting sink
//   interpose  the same op through rl_mutex_lock/unlock (the shim the
//              preload routes pthread_mutex_* into)
//
// Rungs are switched with the runtime guards the layers already have,
// both single-thread (uncontended) and with 3 threads sharing the same
// two locks (contended). Within a rep every rung runs once, so host
// drift touches all rungs alike; the median over reps is reported.
// Each layer's own hot call is then timed alone.
//
// Output: one flat JSON object (name -> number) on stdout.
// `--scale X` multiplies every iteration count (default 1).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cohort.hpp"
#include "core/mcs.hpp"
#include "core/rw/crw.hpp"
#include "interpose/preload_registry.hpp"
#include "interpose/pthread_shim.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "response/response.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace resilock;

constexpr int kReps = 5;
constexpr std::uint32_t kContendedThreads = 3;

// Keeps a computed value live without a store the timing would see.
template <typename T>
void keep(T v) {
  asm volatile("" : : "r"(v) : "memory");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over kReps of the ns per call of `body`, run `iters` times.
template <typename Fn>
double ns_per_call(std::uint64_t iters, Fn&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) body();
    reps.push_back(static_cast<double>(runtime::now_ns() - t0) /
                   static_cast<double>(iters));
  }
  return median(reps);
}

class CountingSink final : public telemetry::Sink {
 public:
  const char* name() const noexcept override { return "counting"; }
  void consume(const lockdep::TraceEvent&) override { ++count_; }
  void flush() override {}
  void close() override {}
  std::uint64_t written() const noexcept override { return count_; }

 private:
  std::uint64_t count_ = 0;
};

// The ledger's critical section: a short dependent chain.
void critical_section(std::uint64_t& sink) {
  sink ^= runtime::busy_work(8, sink);
}

// ---------------------------------------------------------------------
// The ledger op shape over two locks, for a typed lock and for the shim.
// ---------------------------------------------------------------------

template <typename Lock>
struct TypedPair {
  Lock a, b;
  struct PerThread {
    typename Lock::Context ca, cb;
  };
  void op(PerThread& t, std::uint64_t& sink) {
    a.acquire(t.ca);
    b.acquire(t.cb);
    critical_section(sink);
    b.release(t.cb);
    a.release(t.ca);
  }
};

struct ShimPair {
  interpose::rl_mutex_t a{}, b{};
  struct PerThread {};
  ShimPair() {
    interpose::rl_mutex_init(&a, "MCS", 1);
    interpose::rl_mutex_init(&b, "MCS", 1);
  }
  ~ShimPair() {
    interpose::rl_mutex_destroy(&b);
    interpose::rl_mutex_destroy(&a);
  }
  ShimPair(const ShimPair&) = delete;
  ShimPair& operator=(const ShimPair&) = delete;
  void op(PerThread&, std::uint64_t& sink) {
    interpose::rl_mutex_lock(&a);
    interpose::rl_mutex_lock(&b);
    critical_section(sink);
    interpose::rl_mutex_unlock(&b);
    interpose::rl_mutex_unlock(&a);
  }
};

// ns per op: wall time from barrier release to the last thread's finish,
// over every thread's ops. Each thread warms its own path first.
template <typename Pair>
double pair_ns(std::uint32_t threads, std::uint64_t per_thread) {
  Pair pair;
  runtime::SenseBarrier start(threads);
  std::atomic<std::uint64_t> start_ns{0};
  std::vector<std::uint64_t> end_ns(threads, 0);
  runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
    typename Pair::PerThread t;
    std::uint64_t sink = tid;
    for (std::uint64_t i = 0; i < per_thread / 10; ++i) pair.op(t, sink);
    start.arrive_and_wait();
    if (tid == 0) start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < per_thread; ++i) pair.op(t, sink);
    end_ns[tid] = runtime::now_ns();
    keep(sink);
  });
  const std::uint64_t last = *std::max_element(end_ns.begin(), end_ns.end());
  return static_cast<double>(last - start_ns.load()) /
         static_cast<double>(per_thread * threads);
}

struct Rung {
  const char* name;
  bool shield, lockdep, lockstat, park, spans, shim;
};

constexpr Rung kRungs[] = {
    {"core", false, false, false, false, false, false},
    {"shield", true, false, false, false, false, false},
    {"lockdep", true, true, false, false, false, false},
    {"observe", true, true, true, false, false, false},
    {"park", true, true, true, true, false, false},
    {"telemetry", true, true, true, true, true, false},
    {"interpose", true, true, true, true, true, true},
};
constexpr int kRungCount = sizeof(kRungs) / sizeof(kRungs[0]);

double run_rung(const Rung& r, std::uint32_t threads,
                std::uint64_t per_thread) {
  lockdep::LockdepModeGuard lockdep(r.lockdep ? lockdep::LockdepMode::kReport
                                              : lockdep::LockdepMode::kOff);
  observe::LockstatGuard lockstat(r.lockstat);
  park::ParkingGuard parking(r.park);
  lockdep::SpanTracingGuard spans(r.spans);
  telemetry::Collector& collector = telemetry::Collector::instance();
  if (r.spans) {
    collector.add_sink(std::make_unique<CountingSink>());
    collector.start();
  }
  double ns = 0;
  if (r.shim) {
    ns = pair_ns<ShimPair>(threads, per_thread);
  } else if (r.shield) {
    ns = pair_ns<TypedPair<Shield<McsLockResilient>>>(threads, per_thread);
  } else {
    ns = pair_ns<TypedPair<McsLockResilient>>(threads, per_thread);
  }
  if (r.spans) collector.stop();
  return ns;
}

// ---------------------------------------------------------------------
// Single-layer calls
// ---------------------------------------------------------------------

using Crw = CrwLock<kResilient, SplitReadIndicator, RwPreference::kNeutral,
                    CPtktTktLock<kResilient>>;

// Two threads ping-pong through park_until/wake_word; us per round trip.
double park_round_trip_us(std::uint64_t rounds) {
  std::atomic<std::uint32_t> ping{park::kWordParked};
  std::atomic<std::uint32_t> pong{park::kWordParked};
  auto wait_granted = [](std::atomic<std::uint32_t>& w) {
    while (w.load(std::memory_order_acquire) != park::kWordGranted) {
      park::park_until(w, park::kWordParked,
                       runtime::now_ns() + 1000000000ull);
    }
  };
  std::thread partner([&] {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      wait_granted(ping);
      ping.store(park::kWordParked, std::memory_order_release);
      park::wake_word(pong);
    }
  });
  const std::uint64_t t0 = runtime::now_ns();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    park::wake_word(ping);
    wait_granted(pong);
    pong.store(park::kWordParked, std::memory_order_release);
  }
  const std::uint64_t t1 = runtime::now_ns();
  partner.join();
  return static_cast<double>(t1 - t0) / 1000.0 /
         static_cast<double>(rounds);
}

// Mevents/s through Collector::drain_now, one full ring per drain (the
// default ring is small, so the total over many drains is timed).
double drain_mevs(int drains) {
  auto& tb = lockdep::TraceBuffer::instance();
  telemetry::Collector& c = telemetry::Collector::instance();
  c.add_sink(std::make_unique<CountingSink>());
  static int marker = 0;
  std::uint64_t events = 0, ns = 0;
  for (int d = 0; d < drains; ++d) {
    for (int i = 0; i < 4096; ++i) {
      tb.emit(lockdep::EventKind::kDoubleUnlock, &marker);
    }
    const std::uint64_t t0 = runtime::now_ns();
    events += c.drain_now();
    ns += runtime::now_ns() - t0;
  }
  c.stop();  // closes and clears the sink
  return ns > 0 ? static_cast<double>(events) * 1e3 / static_cast<double>(ns)
                : 0.0;
}

void put(const char* name, double v, bool& first) {
  std::printf("%s\"%s\":%.4f", first ? "" : ",", name, v);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
  }
  auto scaled = [scale](double n) {
    return std::max<std::uint64_t>(100, static_cast<std::uint64_t>(n * scale));
  };
  const std::uint64_t solo_ops = scaled(100000);
  const std::uint64_t contended_ops = scaled(10000);
  const std::uint64_t calls = scaled(200000);

  // The ladder, interleaved: rep-major, rung-minor.
  std::vector<double> solo[kRungCount], contended[kRungCount];
  for (int rep = 0; rep < kReps; ++rep) {
    for (int r = 0; r < kRungCount; ++r) {
      solo[r].push_back(run_rung(kRungs[r], 1, solo_ops));
      contended[r].push_back(
          run_rung(kRungs[r], kContendedThreads, contended_ops));
    }
  }
  double solo_ns[kRungCount], contended_ns[kRungCount];
  for (int r = 0; r < kRungCount; ++r) {
    solo_ns[r] = median(solo[r]);
    contended_ns[r] = median(contended[r]);
  }

  // Single-layer calls, each in the default configuration unless noted.
  double registry_ns = 0;
  {
    static pthread_mutex_t m;
    auto& reg = interpose::PreloadRegistry::instance();
    reg.init_mutex(&m);
    registry_ns = ns_per_call(calls, [&] { keep(reg.mutex_for(&m)); });
    reg.destroy_mutex(&m);
  }
  double held_ns = 0;
  {
    // The ledger holds one account while taking the second.
    int first = 0, second = 0;
    auto& tbl = shield::HeldLockTable::mine();
    tbl.note_acquired(&first);
    held_ns = ns_per_call(calls, [&] {
      tbl.note_acquired(&second);
      keep(tbl.note_released(&second));
    });
    tbl.note_released(&first);
  }
  double crw_ns = 0, rw_shield_ns = 0;
  {
    lockdep::LockdepModeGuard off(lockdep::LockdepMode::kOff);
    Crw rw;
    Crw::Context ctx;
    crw_ns = ns_per_call(calls, [&] {
      rw.rlock(ctx);
      keep(rw.runlock(ctx));
    });
    shield::RwShield<Crw> srw;
    rw_shield_ns = ns_per_call(calls, [&] {
      srw.rlock(ctx);
      keep(srw.unlock(ctx));
    });
  }
  double decide_ns = 0;
  {
    auto& engine = response::ResponseEngine::instance();
    response::EventContext ctx;
    decide_ns = ns_per_call(calls, [&] {
      keep(engine.decide(response::ResponseEvent::kDoubleUnlock, ctx,
                         response::Action::kSuppress));
    });
  }
  double edge_ns = 0, hook_ns = 0;
  {
    auto& g = lockdep::Graph::instance();
    int x = 0, y = 0;
    const lockdep::ClassId a = g.register_class(&x, "perfbench.a");
    const lockdep::ClassId b = g.register_class(&y, "perfbench.b");
    g.ensure_edge(a, b, &y);
    edge_ns = ns_per_call(calls, [&] { keep(g.has_edge(a, b)); });
    hook_ns = ns_per_call(calls, [&] {
      observe::on_acquired(&y, b, AccessMode::kExclusive, nullptr);
      observe::on_released(&y);
    });
    g.retire_class(b);
    g.retire_class(a);
  }
  double wake_ns = 0;
  {
    std::atomic<std::uint32_t> word{park::kWordGranted};
    wake_ns = ns_per_call(calls, [&] { park::wake_word(word); });
  }
  std::vector<double> round_trips;
  for (int r = 0; r < kReps; ++r) {
    round_trips.push_back(park_round_trip_us(scaled(2000)));
  }
  double emit_ns = 0;
  {
    auto& tb = lockdep::TraceBuffer::instance();
    telemetry::Collector& c = telemetry::Collector::instance();
    c.add_sink(std::make_unique<CountingSink>());
    c.start();
    static int marker = 0;
    emit_ns = ns_per_call(calls, [&] {
      tb.emit(lockdep::EventKind::kDoubleUnlock, &marker);
    });
    c.stop();
  }
  const double drain = drain_mevs(static_cast<int>(scaled(200)));

  bool first = true;
  std::printf("{");
  for (int r = 0; r < kRungCount; ++r) {
    const std::string solo_key =
        std::string("ladder.solo.") + kRungs[r].name + "_ns";
    const std::string cont_key =
        std::string("ladder.contended.") + kRungs[r].name + "_ns";
    put(solo_key.c_str(), solo_ns[r], first);
    put(cont_key.c_str(), contended_ns[r], first);
  }
  put("interpose.registry_lookup_ns", registry_ns, first);
  put("interpose.rl_pair_ns", solo_ns[6], first);
  put("core.mcs_pair_ns", solo_ns[0], first);
  put("core.crw_read_pair_ns", crw_ns, first);
  put("core.contended_pair_ns", contended_ns[0], first);
  put("shield.pair_ns", solo_ns[1], first);
  put("shield.delta_ns", solo_ns[1] - solo_ns[0], first);
  put("shield.held_table_ns", held_ns, first);
  put("shield.rw_read_pair_ns", rw_shield_ns, first);
  put("lockdep.delta_ns", solo_ns[2] - solo_ns[1], first);
  put("lockdep.edge_probe_ns", edge_ns, first);
  put("response.decide_ns", decide_ns, first);
  put("observe.delta_ns", solo_ns[3] - solo_ns[2], first);
  put("observe.hook_ns", hook_ns, first);
  put("park.delta_ns", solo_ns[4] - solo_ns[3], first);
  put("park.wake_word_ns", wake_ns, first);
  put("park.handoff_us", median(round_trips), first);
  put("telemetry.delta_ns", solo_ns[5] - solo_ns[4], first);
  put("telemetry.emit_ns", emit_ns, first);
  put("telemetry.drain_mevs", drain, first);
  std::printf("}\n");
  return 0;
}
