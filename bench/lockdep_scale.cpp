// Lockdep class-table scale: what does the sharded, chunk-growable,
// epoch-reclaimed table (PR 9) cost as the live-class population grows
// far past the old fixed 1024-slot table?
//
// Three sections, each emitted as rows under --json:
//
//   churn     — steady-state retire+register churn with the table held
//               at 1k / 100k / 1M LIVE classes. Each op is one retire
//               (logical, epoch-limbo push) plus one register (shard
//               freelist pop, stealing/reclaiming/growing as needed).
//               Also records the hot-path edge-probe latency (has_edge
//               on a known edge) AT that population — the wait-free
//               chunk-indirection probe must not care how big the
//               table is — and the limbo depth after a full drain
//               (must be 0: no leaked rows).
//   sweep     — multi-thread shard contention: T threads churning
//               private live sets concurrently, aggregate Mops across
//               the thread axis. Shard freelists (RESILOCK_LOCKDEP_
//               SHARDS) are the contention dial this prices.
//   hier      — the per-level hooks on a 3-level fanout HMCS tree
//               behind the shield, at 1 and RESILOCK_MAX_THREADS
//               threads: every acquisition climbs the hierarchy, so
//               the per-level class hooks (attempt/acquired per level,
//               the skip-set scan, the per-level release pops) sit on
//               the hand-off hot path. Shield alone vs shield + lockdep
//               in report mode; CI gates lockdep_over_shield.
//
// Methodology: barrier start, RESILOCK_SCALE-sized op counts; churn
// and sweep keep the best of RESILOCK_REPS, hier the median of at least
// 3 reps, timed rep-major (both configurations once per rep, so host
// drift touches them alike) after an untimed warm pass.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/hmcs.hpp"
#include "harness/evaluation.hpp"
#include "json_writer.hpp"
#include "lockdep/lockdep.hpp"
#include "runtime/barrier.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "shield/shield.hpp"

namespace {

using namespace resilock;
using lockdep::ClassId;
using lockdep::Graph;

void drain_limbo(Graph& g) {
  while (g.try_reclaim() > 0) {
  }
}

struct ChurnRow {
  std::uint32_t live_target = 0;
  std::uint32_t live_achieved = 0;  // registrations that stayed tracked
  double churn_mops = 0;            // retire+register pairs per second
  double probe_ns = 0;              // has_edge hot path at this scale
  std::uint64_t capacity = 0;       // mapped slots after the fill
  std::uint64_t chunks = 0;
  std::uint64_t limbo_after_drain = 0;  // MUST be 0 (leak gate)
};

ChurnRow churn_at(std::uint32_t live_target, std::uint64_t churn_ops,
                  std::uint32_t reps) {
  auto& g = Graph::instance();
  drain_limbo(g);
  ChurnRow row;
  row.live_target = live_target;

  static int anchor = 0;
  std::vector<ClassId> live;
  live.reserve(live_target);
  for (std::uint32_t i = 0; i < live_target; ++i) {
    const ClassId c = g.register_class(&anchor, "bench.scale");
    if (c == lockdep::kUntrackedClass) break;
    live.push_back(c);
  }
  row.live_achieved = static_cast<std::uint32_t>(live.size());

  // Hot-path probe at this population: one known edge, hammered. The
  // probe is the same chunk→slot→row→segment load chain ensure_edge
  // takes per held lock on every blocking acquire.
  if (live.size() >= 2) {
    g.ensure_edge(live[0], live[1], &anchor);
    const std::uint64_t probe_iters = 2000000;
    std::uint64_t hits = 0;
    double best_ns = 0;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t t0 = runtime::now_ns();
      for (std::uint64_t i = 0; i < probe_iters; ++i) {
        hits += g.has_edge(live[0], live[1]) ? 1 : 0;
      }
      const double ns = static_cast<double>(runtime::now_ns() - t0) /
                        static_cast<double>(probe_iters);
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    row.probe_ns = best_ns;
    if (hits == 0) std::fprintf(stderr, "probe sink elided?\n");
  }

  // Steady-state churn: the population stays at live_target while slots
  // cycle retire → limbo → grace → freelist → register.
  double best_mops = 0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    std::mt19937 rng(0xbadcafe + rep);
    const std::uint64_t t0 = runtime::now_ns();
    for (std::uint64_t i = 0; i < churn_ops; ++i) {
      const std::size_t k = rng() % live.size();
      g.retire_class(live[k]);
      live[k] = g.register_class(&anchor, "bench.scale");
    }
    const double secs =
        static_cast<double>(runtime::now_ns() - t0) * 1e-9;
    const double mops =
        static_cast<double>(churn_ops) / secs * 1e-6;
    if (mops > best_mops) best_mops = mops;
  }
  row.churn_mops = best_mops;

  const auto st = g.stats();
  row.capacity = st.capacity;
  row.chunks = st.chunks;

  for (const ClassId c : live) g.retire_class(c);
  drain_limbo(g);
  row.limbo_after_drain = g.stats().limbo;
  return row;
}

struct SweepRow {
  std::uint32_t threads = 0;
  double churn_mops = 0;  // aggregate retire+register pairs per second
};

SweepRow sweep_at(std::uint32_t threads, std::uint64_t ops_per_thread,
                  std::uint32_t reps) {
  auto& g = Graph::instance();
  SweepRow row;
  row.threads = threads;
  double best = 0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    drain_limbo(g);
    runtime::SenseBarrier start(threads);
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<std::uint64_t> end_ns(threads, 0);
    runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
      static thread_local int anchor = 0;
      std::vector<ClassId> mine;
      for (int i = 0; i < 256; ++i) {
        mine.push_back(g.register_class(&anchor, "bench.sweep"));
      }
      std::mt19937 rng(tid + 1);
      start.arrive_and_wait();
      if (tid == 0) {
        start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
      }
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const std::size_t k = rng() % mine.size();
        g.retire_class(mine[k]);
        mine[k] = g.register_class(&anchor, "bench.sweep");
      }
      end_ns[tid] = runtime::now_ns();
      for (const ClassId c : mine) g.retire_class(c);
    });
    std::uint64_t last = 0;
    for (auto e : end_ns) last = std::max(last, e);
    const double secs =
        static_cast<double>(last -
                            start_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const double mops = static_cast<double>(ops_per_thread) * threads /
                        secs * 1e-6;
    if (mops > best) best = mops;
  }
  row.churn_mops = best;
  drain_limbo(g);
  return row;
}

struct HierRow {
  std::uint32_t threads = 0;
  double shield_mops = 0;   // lockdep off: the ownership layer alone
  double lockdep_mops = 0;  // + lockdep in report mode
  double lockdep_over_shield() const {
    return lockdep_mops > 0 ? shield_mops / lockdep_mops : 0.0;
  }
};

// One timed pass over a fresh tree: aggregate Mops from barrier release
// to the last thread's finish. Each thread first runs an untimed tenth
// of the pass, as the layer ladder does: the first acquisitions pay
// one-time costs (lockdep class and level registration, first touches
// of the tree's nodes) that would otherwise land in a short timed pass.
double tree_mops(lockdep::LockdepMode mode, std::uint32_t threads,
                 std::uint64_t iters) {
  using Tree = Shield<BasicHmcsLock<kOriginal>>;
  lockdep::LockdepModeGuard guard(mode);
  Tree lock(std::vector<std::uint32_t>{2, 2});
  runtime::SenseBarrier start(threads);
  std::atomic<std::uint64_t> start_ns{0};
  std::vector<std::uint64_t> end_ns(threads, 0);
  runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
    Tree::Context ctx;
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < iters / 10; ++i) {
      lock.acquire(ctx);
      lock.release(ctx);
    }
    start.arrive_and_wait();
    if (tid == 0) {
      start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < iters; ++i) {
      lock.acquire(ctx);
      sink ^= runtime::busy_work(4, sink + i);  // short CS
      lock.release(ctx);
    }
    end_ns[tid] = runtime::now_ns();
    if (sink == 42) std::fputc(0, stderr);  // keep the chain alive
  });
  const std::uint64_t last = *std::max_element(end_ns.begin(), end_ns.end());
  const double secs =
      static_cast<double>(last - start_ns.load(std::memory_order_relaxed)) *
      1e-9;
  return static_cast<double>(iters) * threads / secs * 1e-6;
}

HierRow hier_at(std::uint32_t threads, std::uint64_t iters,
                std::uint32_t reps) {
  runtime::RunStats shield, lockdep;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    shield.add(tree_mops(lockdep::LockdepMode::kOff, threads, iters));
    lockdep.add(tree_mops(lockdep::LockdepMode::kReport, threads, iters));
  }
  HierRow row;
  row.threads = threads;
  row.shield_mops = shield.median();
  row.lockdep_mops = lockdep.median();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resilock::harness;

  const char* json_path = bench::json_out_path(argc, argv);
  const std::uint32_t max_threads = env_max_threads();
  const std::uint32_t reps = env_reps();
  const std::uint64_t churn_ops =
      static_cast<std::uint64_t>(50000 * env_scale());

  std::printf(
      "=== Lockdep class-table scale: churn, probe latency, shard "
      "contention ===\n"
      "(best of %u reps, %llu churn ops; the old table refused class "
      "1025)\n\n",
      reps, static_cast<unsigned long long>(churn_ops));

  std::vector<ChurnRow> churn_rows;
  std::printf("%12s %13s %13s %11s %10s %8s %12s\n", "live classes",
              "achieved", "churn Mops", "probe ns", "capacity", "chunks",
              "limbo-after");
  for (const std::uint32_t live : {1024u, 100000u, 1000000u}) {
    churn_rows.push_back(churn_at(live, churn_ops, reps));
    const ChurnRow& r = churn_rows.back();
    std::printf("%12u %13u %13.2f %11.1f %10llu %8llu %12llu\n",
                r.live_target, r.live_achieved, r.churn_mops, r.probe_ns,
                static_cast<unsigned long long>(r.capacity),
                static_cast<unsigned long long>(r.chunks),
                static_cast<unsigned long long>(r.limbo_after_drain));
    std::fflush(stdout);
  }

  std::vector<SweepRow> sweep_rows;
  std::printf("\n%8s %13s\n", "threads", "churn Mops");
  for (std::uint32_t t = 1; t <= max_threads; t *= 2) {
    sweep_rows.push_back(sweep_at(t, churn_ops, reps));
    std::printf("%8u %13.2f\n", sweep_rows.back().threads,
                sweep_rows.back().churn_mops);
    std::fflush(stdout);
  }

  const std::uint32_t hier_reps = std::max<std::uint32_t>(3, reps);
  std::vector<HierRow> hier_rows;
  std::printf("\n%8s %12s %13s %17s  (HMCS{2,2}, median of %u)\n",
              "threads", "shield Mops", "lockdep Mops", "lockdep/shield x",
              hier_reps);
  for (const std::uint32_t t : {1u, max_threads}) {
    hier_rows.push_back(hier_at(t, churn_ops, hier_reps));
    const HierRow& r = hier_rows.back();
    std::printf("%8u %12.2f %13.2f %16.2fx\n", r.threads, r.shield_mops,
                r.lockdep_mops, r.lockdep_over_shield());
    std::fflush(stdout);
  }

  if (json_path != nullptr) {
    const bool ok = bench::write_bench_json(
        json_path, "lockdep_scale", max_threads, reps, churn_ops,
        [&](bench::JsonWriter& w) {
          for (const auto& r : churn_rows) {
            w.begin_object();
            w.field("section", "churn");
            w.field("live_classes", r.live_target);
            w.field("live_achieved", r.live_achieved);
            w.field("churn_mops", r.churn_mops);
            w.field("probe_ns", r.probe_ns);
            w.field("capacity", r.capacity);
            w.field("chunks", r.chunks);
            w.field("limbo_after_drain", r.limbo_after_drain);
            w.end_object();
          }
          for (const auto& r : sweep_rows) {
            w.begin_object();
            w.field("section", "sweep");
            w.field("threads", r.threads);
            w.field("churn_mops", r.churn_mops);
            w.end_object();
          }
          for (const auto& r : hier_rows) {
            w.begin_object();
            w.field("section", "hier");
            w.field("lock", "HMCS{2,2}");
            w.field("threads", r.threads);
            w.field("shield_mops", r.shield_mops);
            w.field("lockdep_mops", r.lockdep_mops);
            w.field("lockdep_over_shield", r.lockdep_over_shield());
            w.end_object();
          }
        });
    if (!ok) return 1;
  }
  return 0;
}
