// resilock_drive — multi-process head-to-head driver for the LD_PRELOAD
// harness (the paper's evaluation shape: the same unmodified binary run
// bare and interposed, swept across thread counts and placements).
//
// For each (workload, threads) cell it forks resilock_workload three
// ways:
//
//   bare       no preload — glibc locks, the baseline
//   shielded   LD_PRELOAD with the minimal stack: shield on, lockdep
//              off, no telemetry (the "protection overhead" column)
//   fullstack  LD_PRELOAD with everything: lockdep, lockstat, parking,
//              and the telemetry collector lockstat starts
//
// plus a misuse row per workload (bare vs shielded at a fixed injection
// rate) showing "corrupt" vs "ok" — the paper's Table 1 outcome
// reproduced end-to-end from outside the process.
//
// Output: a human table on stderr and a JSON document on --out (the
// checked-in snapshot is BENCH_interpose.json). --quick shrinks the
// sweep for CI smoke.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "platform/affinity.hpp"
#include "platform/topology.hpp"

#ifndef RESILOCK_PRELOAD_LIB
#define RESILOCK_PRELOAD_LIB "libresilock_preload.so"
#endif
#ifndef RESILOCK_WORKLOAD_BIN
#define RESILOCK_WORKLOAD_BIN "resilock_workload"
#endif

namespace {

namespace rp = resilock::platform;

struct RunResult {
  bool ran = false;
  double ops_s = 0.0;
  std::uint64_t ops = 0;
  std::string check = "none";
  std::uint64_t misuses = 0;
};

struct EnvVar {
  const char* name;
  std::string value;
};

// Fork/exec the workload with env overrides, capture stdout, parse the
// JSON result line. A child that dies (watchdog, crash) yields
// ran=false with check="died" — a legitimate bare+misuse outcome.
RunResult run_child(const std::vector<std::string>& args,
                    const std::vector<EnvVar>& env) {
  RunResult res;
  int fds[2];
  if (pipe(fds) != 0) return res;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return res;
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    for (const EnvVar& e : env) setenv(e.name, e.value.c_str(), 1);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    res.check = "died";
    return res;
  }
  auto num_after = [&out](const char* key) -> double {
    const std::size_t p = out.find(key);
    if (p == std::string::npos) return 0.0;
    return std::atof(out.c_str() + p + std::strlen(key));
  };
  auto str_after = [&out](const char* key) -> std::string {
    const std::size_t p = out.find(key);
    if (p == std::string::npos) return "none";
    const std::size_t s = p + std::strlen(key);
    const std::size_t e = out.find('"', s);
    return e == std::string::npos ? "none" : out.substr(s, e - s);
  };
  res.ran = true;
  res.ops_s = num_after("\"throughput_ops_s\":");
  res.ops = static_cast<std::uint64_t>(num_after("\"ops\":"));
  res.misuses =
      static_cast<std::uint64_t>(num_after("\"misuses_injected\":"));
  res.check = str_after("\"check\":\"");
  return res;
}

std::string join_cpus(const std::vector<int>& cpus) {
  std::string s;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(cpus[i]);
  }
  return s;
}

enum class Mode { kBare, kShielded, kFullstack };

std::vector<EnvVar> env_for(Mode m) {
  switch (m) {
    case Mode::kBare:
      return {};
    case Mode::kShielded:
      // Spin-then-park is the production tier: a FIFO queue lock whose
      // waiters only spin convoys behind a preempted holder when
      // threads outnumber cores (CI runners).
      return {{"LD_PRELOAD", RESILOCK_PRELOAD_LIB},
              {"RESILOCK_LOCKDEP", "off"},
              {"RESILOCK_LOCKSTAT", "0"},
              {"RESILOCK_PARK", "1"}};
    case Mode::kFullstack:
      return {{"LD_PRELOAD", RESILOCK_PRELOAD_LIB},
              {"RESILOCK_LOCKSTAT", "1"},
              {"RESILOCK_PARK", "1"}};
  }
  return {};
}

struct PerfRow {
  std::string workload;
  int threads = 0;
  RunResult bare, shielded, fullstack;
};

struct MisuseRow {
  std::string workload;
  int threads = 0;
  double rate = 0.0;
  RunResult bare, shielded;
};

double ratio(const RunResult& num, const RunResult& den) {
  if (!num.ran || !den.ran || den.ops_s <= 0.0) return 0.0;
  return num.ops_s / den.ops_s;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--workloads a,b] [--threads 2,4,8]\n"
               "          [--duration-ms MS] [--placement compact|spread]\n"
               "          [--out FILE]\n",
               argv0);
  return 2;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::string> workloads = {"ledger", "pipeline", "rwcache"};
  std::vector<int> thread_counts = {2, 4, 8};
  long duration_ms = 3000;
  rp::Placement placement = rp::Placement::kCompact;
  std::string placement_name = "compact";
  std::string out_path = "BENCH_interpose.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--workloads") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      workloads = split_csv(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      thread_counts.clear();
      for (const std::string& t : split_csv(v)) {
        thread_counts.push_back(std::atoi(t.c_str()));
      }
    } else if (arg == "--duration-ms") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      duration_ms = std::atol(v);
    } else if (arg == "--placement") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      placement_name = v;
      placement = (placement_name == "spread") ? rp::Placement::kSpread
                                               : rp::Placement::kCompact;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (quick) {
    duration_ms = 500;
    thread_counts = {2, 4};
  }

  const rp::Topology& topo = rp::Topology::host_default();
  const std::vector<int> cpus = rp::allowed_cpus();
  const unsigned hw = rp::hardware_threads();

  std::vector<PerfRow> rows;
  std::vector<MisuseRow> misuse_rows;

  for (const std::string& w : workloads) {
    for (int t : thread_counts) {
      if (w == "pipeline" && t < 3) continue;
      PerfRow row;
      row.workload = w;
      row.threads = t;
      const std::vector<int> pins = rp::placement_cpus(
          topo, cpus, static_cast<std::size_t>(t), placement);
      std::vector<std::string> args = {
          RESILOCK_WORKLOAD_BIN,    "--workload",
          w,                        "--threads",
          std::to_string(t),        "--duration-ms",
          std::to_string(duration_ms)};
      if (!pins.empty()) {
        args.push_back("--cpus");
        args.push_back(join_cpus(pins));
      }
      std::fprintf(stderr, "drive: %s threads=%d ...\n", w.c_str(), t);
      row.bare = run_child(args, env_for(Mode::kBare));
      row.shielded = run_child(args, env_for(Mode::kShielded));
      row.fullstack = run_child(args, env_for(Mode::kFullstack));
      std::fprintf(stderr,
                   "  bare %.0f ops/s | shielded %.0f (%.2fx) | "
                   "fullstack %.0f (%.2fx)\n",
                   row.bare.ops_s, row.shielded.ops_s,
                   ratio(row.bare, row.shielded), row.fullstack.ops_s,
                   ratio(row.bare, row.fullstack));
      rows.push_back(row);
    }

    // Misuse head-to-head: moderate injection at a mid sweep point.
    MisuseRow mr;
    mr.workload = w;
    mr.threads = thread_counts.size() > 1 ? thread_counts[1]
                                          : thread_counts[0];
    if (w == "pipeline" && mr.threads < 3) mr.threads = 3;
    mr.rate = 0.01;
    std::vector<std::string> margs = {
        RESILOCK_WORKLOAD_BIN,    "--workload",
        w,                        "--threads",
        std::to_string(mr.threads), "--duration-ms",
        std::to_string(duration_ms), "--misuse-rate",
        "0.01"};
    // Bare pipeline misuse can deadlock on a corrupted queue mutex;
    // the workload's watchdog turns that into check="died".
    mr.bare = run_child(margs, env_for(Mode::kBare));
    mr.shielded = run_child(margs, env_for(Mode::kShielded));
    std::fprintf(stderr,
                 "  misuse %s threads=%d: bare=%s shielded=%s "
                 "(injected %llu)\n",
                 w.c_str(), mr.threads, mr.bare.check.c_str(),
                 mr.shielded.check.c_str(),
                 static_cast<unsigned long long>(mr.shielded.misuses));
    misuse_rows.push_back(mr);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "drive: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"interpose_head_to_head\",\n"
               "  \"hw_threads\": %u,\n  \"duration_ms\": %ld,\n"
               "  \"placement\": \"%s\",\n  \"rows\": [\n",
               hw, duration_ms, placement_name.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PerfRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"threads\": %d, "
        "\"bare_ops_s\": %.1f, \"shielded_ops_s\": %.1f, "
        "\"fullstack_ops_s\": %.1f, \"bare_over_shielded\": %.3f, "
        "\"bare_over_fullstack\": %.3f}%s\n",
        r.workload.c_str(), r.threads, r.bare.ops_s, r.shielded.ops_s,
        r.fullstack.ops_s, ratio(r.bare, r.shielded),
        ratio(r.bare, r.fullstack), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"misuse\": [\n");
  for (std::size_t i = 0; i < misuse_rows.size(); ++i) {
    const MisuseRow& m = misuse_rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"threads\": %d, \"rate\": %.3f, "
        "\"bare_check\": \"%s\", \"shielded_check\": \"%s\", "
        "\"misuses_injected\": %llu}%s\n",
        m.workload.c_str(), m.threads, m.rate, m.bare.check.c_str(),
        m.shielded.check.c_str(),
        static_cast<unsigned long long>(m.shielded.misuses),
        i + 1 < misuse_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "drive: wrote %s\n", out_path.c_str());
  return 0;
}
