// Parking-tier overhead: what does RESILOCK_PARK cost a lock that
// never actually parks, and what does it buy one that should?
//
// Three phases, all feeding BENCH_parking.json:
//
//   uncontended   one thread hammers an uncontended acquire/release
//                 pair (MCS and Ticket resilient), parking off then
//                 on. The "on" path must stay on the spin fast path —
//                 a granted word never reaches the futex — so the
//                 price is the extra park-word bookkeeping on the
//                 handoff path. CI gates the ratio against the repo's
//                 standing 2x budget.
//
//   timedlock     the shim's rl_mutex_timedlock on a FREE mutex (the
//                 common case for a deadline that never fires): one
//                 realtime->monotonic rebase plus a TimedGate trylock
//                 that succeeds first try, priced against the plain
//                 rl_mutex_lock/unlock pair.
//
//   oversub       compact spin-vs-park summary at 4x hardware cores
//                 on one MCS lock — the headline numbers (wall, total
//                 process CPU, throughput ratio) CI gates on: parked
//                 waiters must burn less CPU than spinners without
//                 giving up throughput. bench_lock_throughput has the
//                 full matched+oversubscribed table across lock
//                 algorithms; this phase exists so one JSON file
//                 carries every parking gate.
//
// RESILOCK_SCALE scales iteration counts; `--json out.json` writes
// the table (checked-in full-scale run: BENCH_parking.json).
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <thread>

#include "core/generic.hpp"
#include "core/mcs.hpp"
#include "core/ticket.hpp"
#include "interpose/pthread_shim.hpp"
#include "json_writer.hpp"
#include "park/parking_lot.hpp"
#include "platform/env.hpp"
#include "runtime/barrier.hpp"
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

// ns per uncontended acquire/release pair, best of three passes (the
// CI smoke scale is short enough that one scheduler hiccup would
// poison a single-shot ratio).
template <typename Lock>
double time_pair_ns(Lock& lock, std::uint64_t iters) {
  context_of_t<Lock> ctx;
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) {
      generic_acquire(lock, ctx);
      generic_release(lock, ctx);
    }
    const std::uint64_t t1 = runtime::now_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

template <typename Lock>
double pair_with_parking(bool parking, std::uint64_t iters) {
  park::ParkingGuard guard(parking);
  Lock lock;
  time_pair_ns(lock, iters / 10);  // warm up
  return time_pair_ns(lock, iters);
}

// ns per rl_mutex_timedlock/unlock pair on a free mutex with a
// deadline that never fires (best of three).
double timed_pair_ns(interpose::rl_mutex_t& m, std::uint64_t iters) {
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    timespec abs{};
    clock_gettime(CLOCK_REALTIME, &abs);
    abs.tv_sec += 3600;  // far future: the deadline is never consulted
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) {
      interpose::rl_mutex_timedlock(&m, &abs);
      interpose::rl_mutex_unlock(&m);
    }
    const std::uint64_t t1 = runtime::now_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

double plain_pair_ns(interpose::rl_mutex_t& m, std::uint64_t iters) {
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) {
      interpose::rl_mutex_lock(&m);
      interpose::rl_mutex_unlock(&m);
    }
    const std::uint64_t t1 = runtime::now_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

struct OversubRun {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  double ops_per_sec = 0;
};

OversubRun run_oversub(bool parking, std::uint32_t threads,
                       std::uint64_t per_thread) {
  park::ParkingGuard guard(parking);
  McsLockResilient lock;
  runtime::SenseBarrier start(threads);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = runtime::now_ns();
  runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
    McsLockResilient::Context ctx;
    start.arrive_and_wait();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      lock.acquire(ctx);
      sink ^= runtime::busy_work(4, sink);
      lock.release(ctx);
    }
    if (sink == 42) std::fputc(0, stderr);
  });
  OversubRun r;
  r.wall_ns = runtime::now_ns() - t0;
  r.cpu_ns = process_cpu_ns() - cpu0;
  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * per_thread;
  r.ops_per_sec = r.wall_ns != 0
                      ? static_cast<double>(total) * 1e9 /
                            static_cast<double>(r.wall_ns)
                      : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = platform::env_double("RESILOCK_SCALE", 1.0);
  const std::uint64_t fast_iters = std::max<std::uint64_t>(
      200000, static_cast<std::uint64_t>(2000000.0 * scale));
  const std::uint64_t oversub_per_thread = std::max<std::uint64_t>(
      2000, static_cast<std::uint64_t>(20000.0 * scale));
  const std::uint32_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t oversub_threads = cores * 4;

  // ------------------------------------------------------------------
  // Phase 1: uncontended pair, parking off vs on.
  // ------------------------------------------------------------------
  const double mcs_off =
      pair_with_parking<McsLockResilient>(false, fast_iters);
  const double mcs_on =
      pair_with_parking<McsLockResilient>(true, fast_iters);
  const double ticket_off =
      pair_with_parking<TicketLockResilient>(false, fast_iters);
  const double ticket_on =
      pair_with_parking<TicketLockResilient>(true, fast_iters);
  const double mcs_ratio = mcs_on / mcs_off;
  const double ticket_ratio = ticket_on / ticket_off;
  std::printf("uncontended: MCS %.1f -> %.1f ns/pair (%.2fx), "
              "Ticket %.1f -> %.1f ns/pair (%.2fx), budget 2x\n",
              mcs_off, mcs_on, mcs_ratio, ticket_off, ticket_on,
              ticket_ratio);

  // ------------------------------------------------------------------
  // Phase 2: shim timedlock on a free mutex.
  // ------------------------------------------------------------------
  double plain_ns = 0, timed_ns = 0;
  {
    interpose::rl_mutex_t m{};
    interpose::rl_mutex_init(&m, "MCS", /*resilient=*/1);
    plain_pair_ns(m, fast_iters / 10);  // warm up
    plain_ns = plain_pair_ns(m, fast_iters);
    timed_ns = timed_pair_ns(m, fast_iters);
    interpose::rl_mutex_destroy(&m);
  }
  std::printf("timedlock (free mutex): plain %.1f ns/pair, timed %.1f "
              "ns/pair (%.2fx — one clock rebase + gate trylock)\n",
              plain_ns, timed_ns, timed_ns / plain_ns);

  // ------------------------------------------------------------------
  // Phase 3: oversubscribed MCS, spin vs park.
  // ------------------------------------------------------------------
  const OversubRun spin =
      run_oversub(false, oversub_threads, oversub_per_thread);
  const OversubRun park =
      run_oversub(true, oversub_threads, oversub_per_thread);
  const double cpu_ratio = spin.cpu_ns != 0
                               ? static_cast<double>(park.cpu_ns) /
                                     static_cast<double>(spin.cpu_ns)
                               : 0;
  const double tput_ratio =
      spin.ops_per_sec != 0 ? park.ops_per_sec / spin.ops_per_sec : 0;
  std::printf("oversub MCS (%u threads on %u cores): spin %9.0f acq/s "
              "cpu %.1f ms, park %9.0f acq/s cpu %.1f ms "
              "(cpu %.2fx, throughput %.2fx)\n",
              oversub_threads, cores, spin.ops_per_sec,
              static_cast<double>(spin.cpu_ns) * 1e-6, park.ops_per_sec,
              static_cast<double>(park.cpu_ns) * 1e-6, cpu_ratio,
              tput_ratio);

  if (const char* json = bench::json_out_path(argc, argv)) {
    const bool ok = bench::write_bench_json(
        json, "parking_overhead", oversub_threads, 1, fast_iters,
        [&](bench::JsonWriter& w) {
          w.begin_object();
          w.field("phase", "uncontended");
          w.field("lock", "MCS");
          w.field("pair_ns_spin", mcs_off);
          w.field("pair_ns_park", mcs_on);
          w.field("park_overhead_ratio", mcs_ratio);
          w.end_object();
          w.begin_object();
          w.field("phase", "uncontended");
          w.field("lock", "Ticket");
          w.field("pair_ns_spin", ticket_off);
          w.field("pair_ns_park", ticket_on);
          w.field("park_overhead_ratio", ticket_ratio);
          w.end_object();
          w.begin_object();
          w.field("phase", "timedlock");
          w.field("pair_ns_plain", plain_ns);
          w.field("pair_ns_timed", timed_ns);
          w.field("timed_overhead_ratio",
                  plain_ns != 0 ? timed_ns / plain_ns : 0);
          w.end_object();
          w.begin_object();
          w.field("phase", "oversub");
          w.field("lock", "MCS");
          w.field("threads", oversub_threads);
          w.field("hw_cores", cores);
          w.field("per_thread", oversub_per_thread);
          w.field("spin_wall_ns", spin.wall_ns);
          w.field("spin_cpu_ns", spin.cpu_ns);
          w.field("spin_ops_per_sec", spin.ops_per_sec);
          w.field("park_wall_ns", park.wall_ns);
          w.field("park_cpu_ns", park.cpu_ns);
          w.field("park_ops_per_sec", park.ops_per_sec);
          w.field("park_cpu_ratio", cpu_ratio);
          w.field("park_throughput_ratio", tput_ratio);
          w.end_object();
        });
    if (!ok) return 1;
  }
  return 0;
}
