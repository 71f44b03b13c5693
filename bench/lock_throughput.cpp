// Lock throughput, spin vs park, with an oversubscription workload.
//
// The paper's blocking-tier motivation: a spinning queue-lock waiter
// burns its whole timeslice re-reading a cache line, which is merely
// wasteful when cores are free and catastrophic when the thread count
// exceeds the core count — the spinner's timeslice is exactly the
// time the lock HOLDER is descheduled for. The parking tier
// (RESILOCK_PARK, src/park/) converts that burned CPU into a
// futex_wait. This bench prices the conversion:
//
//   oversub     threads = 4x hardware cores hammer one queue lock
//               (MCS, CLH, Ticket), parking off then on. Reported per
//               (lock, mode): wall ns, total process CPU ns
//               (CLOCK_PROCESS_CPUTIME_ID), throughput. The headline
//               claim CI gates on: parked CPU time < spinning CPU
//               time at equal-or-better throughput.
//
//   matched     the same comparison at threads = hardware cores (no
//               oversubscription), where parking should cost little:
//               the spin budget (RESILOCK_PARK_SPINS) absorbs short
//               waits and the futex is rarely entered.
//
//   solo        one thread, an uncontended acquire/release pair,
//               parking off then on: a granted word never reaches the
//               futex, so the price is the park-word bookkeeping on
//               the hand-off path. ns per pair, best of 3 passes taken
//               spin/park alternately; CI gates the park/spin ratio of
//               MCS and Ticket.
//
// RESILOCK_SCALE scales iteration counts; `--json out.json` writes
// the table for the CI smoke gate, which runs at the default scale.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "core/clh.hpp"
#include "core/generic.hpp"
#include "core/mcs.hpp"
#include "core/ticket.hpp"
#include "json_writer.hpp"
#include "park/parking_lot.hpp"
#include "platform/env.hpp"
#include "runtime/barrier.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace resilock;

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Run {
  std::string lock;
  std::string mode;  // "spin" | "park"
  std::uint32_t threads = 0;
  std::uint64_t total_acquires = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  double ops_per_sec = 0;
};

template <typename Lock>
Run run_one(const char* name, bool parking, std::uint32_t threads,
            std::uint64_t per_thread) {
  park::ParkingGuard park_guard(parking);
  Lock lock;
  runtime::SenseBarrier start(threads);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = runtime::now_ns();
  runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
    context_of_t<Lock> ctx;
    start.arrive_and_wait();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      generic_acquire(lock, ctx);
      sink ^= runtime::busy_work(4, sink);  // tiny critical section
      generic_release(lock, ctx);
    }
    if (sink == 42) std::fputc(0, stderr);  // keep the chain alive
  });
  const std::uint64_t t1 = runtime::now_ns();
  const std::uint64_t cpu1 = process_cpu_ns();

  Run r;
  r.lock = name;
  r.mode = parking ? "park" : "spin";
  r.threads = threads;
  r.total_acquires = static_cast<std::uint64_t>(threads) * per_thread;
  r.wall_ns = t1 - t0;
  r.cpu_ns = cpu1 - cpu0;
  r.ops_per_sec = r.wall_ns != 0
                      ? static_cast<double>(r.total_acquires) * 1e9 /
                            static_cast<double>(r.wall_ns)
                      : 0;
  return r;
}

// ns per uncontended pair with parking off and on; the best pass counts.
struct Solo {
  explicit Solo(const char* name) : lock(name) {}

  std::string lock;
  runtime::RunStats spin_ns, park_ns;

  void add(const Run& r) {
    (r.mode == "park" ? park_ns : spin_ns)
        .add(static_cast<double>(r.wall_ns) /
             static_cast<double>(r.total_acquires));
  }
  double ratio() const { return park_ns.min() / spin_ns.min(); }
};

void print_run(const Run& r) {
  std::printf("  %-8s %-5s %2u threads  %9.0f acq/s  wall %8.1f ms  "
              "cpu %8.1f ms\n",
              r.lock.c_str(), r.mode.c_str(), r.threads, r.ops_per_sec,
              static_cast<double>(r.wall_ns) * 1e-6,
              static_cast<double>(r.cpu_ns) * 1e-6);
}

void emit_run(bench::JsonWriter& w, const Run& r) {
  w.begin_object();
  w.field("lock", r.lock);
  w.field("mode", r.mode);
  w.field("threads", r.threads);
  w.field("acquires", r.total_acquires);
  w.field("wall_ns", r.wall_ns);
  w.field("cpu_ns", r.cpu_ns);
  w.field("ops_per_sec", r.ops_per_sec);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  const double scale = platform::env_double("RESILOCK_SCALE", 1.0);
  const std::uint32_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t oversub = cores * 4;
  const auto per_thread =
      static_cast<std::uint64_t>(2000.0 * scale) + 1;

  std::vector<Run> runs;
  const auto sweep = [&](std::uint32_t threads, const char* phase) {
    std::printf("%s (threads=%u, %llu acq/thread):\n", phase, threads,
                static_cast<unsigned long long>(per_thread));
    for (const bool parking : {false, true}) {
      runs.push_back(run_one<McsLockResilient>("MCS", parking, threads,
                                               per_thread));
      print_run(runs.back());
      runs.push_back(run_one<ClhLockResilient>("CLH", parking, threads,
                                               per_thread));
      print_run(runs.back());
      runs.push_back(run_one<TicketLockResilient>("Ticket", parking,
                                                  threads, per_thread));
      print_run(runs.back());
    }
  };
  sweep(cores, "matched");
  sweep(oversub, "oversubscribed");

  const auto solo_iters = std::max<std::uint64_t>(
      200000, static_cast<std::uint64_t>(2000000.0 * scale));
  std::vector<Solo> solos = {Solo("MCS"), Solo("CLH"), Solo("Ticket")};
  for (int pass = 0; pass < 3; ++pass) {
    for (const bool parking : {false, true}) {
      solos[0].add(run_one<McsLockResilient>("MCS", parking, 1, solo_iters));
      solos[1].add(run_one<ClhLockResilient>("CLH", parking, 1, solo_iters));
      solos[2].add(
          run_one<TicketLockResilient>("Ticket", parking, 1, solo_iters));
    }
  }
  std::printf("solo (1 thread, %llu pairs, best of 3):\n",
              static_cast<unsigned long long>(solo_iters));
  for (const Solo& s : solos) {
    std::printf("  %-8s spin %6.1f ns/pair  park %6.1f ns/pair  (%.2fx)\n",
                s.lock.c_str(), s.spin_ns.min(), s.park_ns.min(), s.ratio());
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "lock_throughput");
    w.field("hw_cores", cores);
    w.field("oversub_threads", oversub);
    w.field("per_thread", per_thread);
    w.begin_array("runs");
    for (const Run& r : runs) emit_run(w, r);
    w.end_array();
    w.field("solo_pairs", solo_iters);
    w.begin_array("solo");
    for (const Solo& s : solos) {
      w.begin_object();
      w.field("lock", s.lock);
      w.field("pair_ns_spin", s.spin_ns.min());
      w.field("pair_ns_park", s.park_ns.min());
      w.field("park_overhead_ratio", s.ratio());
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}
