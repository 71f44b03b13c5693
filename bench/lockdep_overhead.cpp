// Lockdep cost over the shield: what does dependency tracking add to
// the layer stack the interposer installs by default?
//
// Three configurations per lock, same methodology as
// bench/shield_overhead.cpp (barrier start, best of RESILOCK_REPS,
// RESILOCK_SCALE-sized ops, thread axis {1, max}):
//   raw      — the unprotected original protocol;
//   shield   — shield<lock> with lockdep OFF: the ownership layer only;
//   lockdep  — shield<lock> with lockdep in report mode: ownership
//              layer + acquisition stack + order-graph probes;
//   engine   — the lockdep configuration plus the adaptive
//              RESILOCK_POLICY rule set: the full engine-routed stack.
// Three workloads:
//   single    — one shared lock, empty held set at every acquire: the
//               hot path the 2x acceptance bound is stated over;
//   nested    — an outer/inner pair taken in consistent order: every
//               inner acquire probes one (always-known) order edge;
//   hmcs-tree — a 3-level fanout HMCS tree behind the shield: every
//               acquisition climbs the hierarchy, so the per-level
//               class hooks (attempt/acquired per level, the skip-set
//               scan, the per-level release pops) sit directly on the
//               hand-off hot path this row prices.
//
// `--json out.json` additionally emits the table machine-readably for
// BENCH_*.json trajectory tracking.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hmcs.hpp"
#include "core/lock_registry.hpp"
#include "core/resilience.hpp"
#include "shield/shield.hpp"
#include "harness/evaluation.hpp"
#include "json_writer.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace resilock;

double best_mops(const std::vector<std::string>& names,
                 std::uint32_t threads, std::uint64_t iters,
                 std::uint32_t reps) {
  // `names` holds 1 (single) or 2 (outer, inner — nested workload)
  // algorithms; every thread hammers the same instance(s).
  double best = 0.0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<AnyLock>> locks;
    for (const auto& n : names) locks.push_back(make_lock(n, kOriginal));
    runtime::SenseBarrier start(threads);
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<std::uint64_t> end_ns(threads, 0);
    runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
      std::uint64_t sink = 0;
      start.arrive_and_wait();
      if (tid == 0) {
        start_ns.store(runtime::now_ns(), std::memory_order_relaxed);
      }
      for (std::uint64_t i = 0; i < iters; ++i) {
        for (auto& l : locks) l->acquire();
        sink ^= runtime::busy_work(4, sink + i);  // short CS
        for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
          (*it)->release();
        }
      }
      end_ns[tid] = runtime::now_ns();
      (void)sink;
    });
    std::uint64_t last = 0;
    for (auto e : end_ns) last = std::max(last, e);
    const double seconds =
        static_cast<double>(last -
                            start_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const double mops =
        static_cast<double>(iters) * threads / seconds * 1e-6;
    if (mops > best) best = mops;
  }
  return best;
}

// The hmcs-tree workload drives the typed tree directly (the registry's
// HMCS entry is the two-level topology shape; the per-level hooks are
// priced on a deeper climb).
template <typename Lock>
double tree_mops(std::uint32_t threads, std::uint64_t iters,
                 std::uint32_t reps) {
  double best = 0.0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    Lock lock(std::vector<std::uint32_t>{2, 2});
    runtime::SenseBarrier start(threads);
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<std::uint64_t> end_ns(threads, 0);
    runtime::ThreadTeam::run(threads, [&](std::uint32_t tid) {
      typename Lock::Context ctx;
      std::uint64_t sink = 0;
      // Untimed pass over the fresh lock, a tenth of the timed one, as
      // the layer ladder does: the first acquisitions pay one-time costs
      // (lockdep class and level registration, first touches of the
      // tree's nodes) that would otherwise land in a short timed pass.
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
      (void)sink;
    });
    std::uint64_t last = 0;
    for (auto e : end_ns) last = std::max(last, e);
    const double seconds =
        static_cast<double>(last -
                            start_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const double mops =
        static_cast<double>(iters) * threads / seconds * 1e-6;
    if (mops > best) best = mops;
  }
  return best;
}

struct Row {
  std::string workload;  // "single" | "nested" | "hmcs-tree"
  std::string lock;
  std::uint32_t threads = 0;
  double raw_mops = 0;
  double shield_mops = 0;
  double lockdep_mops = 0;
  double engine_mops = 0;

  double lockdep_over_shield() const {
    return lockdep_mops > 0 ? shield_mops / lockdep_mops : 0.0;
  }
  // The acceptance ratio for the engine-routed stack: adaptive rules +
  // lockdep over the bare ownership layer, target < 2x on `single`.
  double engine_over_shield() const {
    return engine_mops > 0 ? shield_mops / engine_mops : 0.0;
  }
};

Row measure(const std::string& workload, const std::string& name,
            std::uint32_t threads, std::uint64_t iters,
            std::uint32_t reps) {
  const bool nested = workload == "nested";
  auto config = [&](const std::string& algo) {
    std::vector<std::string> v{algo};
    if (nested) v.push_back(algo);  // distinct inner instance
    return v;
  };
  Row r;
  r.workload = workload;
  r.lock = name;
  r.threads = threads;
  {
    lockdep::LockdepModeGuard off(lockdep::LockdepMode::kOff);
    r.raw_mops = best_mops(config(name), threads, iters, reps);
    r.shield_mops =
        best_mops(config(shielded_name(name)), threads, iters, reps);
  }
  {
    lockdep::LockdepModeGuard on(lockdep::LockdepMode::kReport);
    r.lockdep_mops =
        best_mops(config(shielded_name(name)), threads, iters, reps);
    response::ResponseRulesGuard adaptive(
        response::adaptive_policy_spec());
    r.engine_mops =
        best_mops(config(shielded_name(name)), threads, iters, reps);
  }
  return r;
}

Row measure_hmcs_tree(std::uint32_t threads, std::uint64_t iters,
                      std::uint32_t reps) {
  using Tree = BasicHmcsLock<kOriginal>;
  using Shielded = Shield<Tree>;
  Row r;
  r.workload = "hmcs-tree";
  r.lock = "HMCS{2,2}";
  r.threads = threads;
  {
    lockdep::LockdepModeGuard off(lockdep::LockdepMode::kOff);
    r.raw_mops = tree_mops<Tree>(threads, iters, reps);
    r.shield_mops = tree_mops<Shielded>(threads, iters, reps);
  }
  {
    lockdep::LockdepModeGuard on(lockdep::LockdepMode::kReport);
    r.lockdep_mops = tree_mops<Shielded>(threads, iters, reps);
    response::ResponseRulesGuard adaptive(
        response::adaptive_policy_spec());
    r.engine_mops = tree_mops<Shielded>(threads, iters, reps);
  }
  return r;
}

void print_rows(const std::vector<Row>& rows) {
  std::string last_key;
  for (const auto& r : rows) {
    const std::string key =
        r.workload + "/" + std::to_string(r.threads);
    if (key != last_key) {
      std::printf("--- workload = %s, threads = %u ---\n",
                  r.workload.c_str(), r.threads);
      std::printf("%-8s %10s %12s %13s %12s %18s %17s\n", "Lock",
                  "raw Mops", "shield Mops", "lockdep Mops",
                  "engine Mops", "lockdep/shield x", "engine/shield x");
      last_key = key;
    }
    std::printf("%-8s %10.2f %12.2f %13.2f %12.2f %17.2fx %16.2fx\n",
                r.lock.c_str(), r.raw_mops, r.shield_mops, r.lockdep_mops,
                r.engine_mops, r.lockdep_over_shield(),
                r.engine_over_shield());
    std::fflush(stdout);
  }
}

bool write_json(const char* path, const std::vector<Row>& rows,
                std::uint32_t max_threads, std::uint32_t reps,
                std::uint64_t iters) {
  return bench::write_bench_json(
      path, "lockdep_overhead", max_threads, reps, iters,
      [&](bench::JsonWriter& w) {
        for (const auto& r : rows) {
          w.begin_object();
          w.field("workload", r.workload);
          w.field("lock", r.lock);
          w.field("threads", r.threads);
          w.field("raw_mops", r.raw_mops);
          w.field("shield_mops", r.shield_mops);
          w.field("lockdep_mops", r.lockdep_mops);
          w.field("engine_mops", r.engine_mops);
          w.field("lockdep_over_shield", r.lockdep_over_shield());
          w.field("engine_over_shield", r.engine_over_shield());
          w.end_object();
        }
      });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resilock::harness;

  const char* json_path = bench::json_out_path(argc, argv);

  const std::uint32_t max_threads = env_max_threads();
  const std::uint32_t reps = env_reps();
  const std::uint64_t iters =
      static_cast<std::uint64_t>(50000 * env_scale());

  std::printf(
      "=== Lockdep overhead: dependency tracking over the ownership "
      "shield ===\n"
      "(best of %u reps, %llu ops/thread; lockdep/shield x is the "
      "acceptance ratio, target < 2x on `single`)\n\n",
      reps, static_cast<unsigned long long>(iters));

  const std::vector<std::string> single_locks = {"TAS", "Ticket", "ABQL",
                                                 "MCS", "CLH",    "HMCS"};
  const std::vector<std::string> nested_locks = {"TAS", "Ticket", "MCS"};

  std::vector<Row> rows;
  for (std::uint32_t threads : {1u, max_threads}) {
    for (const auto& name : single_locks) {
      rows.push_back(measure("single", name, threads, iters, reps));
    }
    for (const auto& name : nested_locks) {
      rows.push_back(measure("nested", name, threads, iters, reps));
    }
    rows.push_back(measure_hmcs_tree(threads, iters, reps));
  }
  print_rows(rows);

  std::printf(
      "\nraw     = unprotected original protocol.\n"
      "shield  = shield<lock>, lockdep off: the ownership layer alone.\n"
      "lockdep = shield<lock>, RESILOCK_LOCKDEP=report: + acquisition\n"
      "          stack and order-graph probes (the interposer's default "
      "stack).\n"
      "engine  = lockdep + RESILOCK_POLICY=adaptive rules installed: the\n"
      "          full engine-routed verdict pipeline.\n");

  if (json_path != nullptr &&
      !write_json(json_path, rows, max_threads, reps, iters)) {
    return 1;
  }
  return 0;
}
