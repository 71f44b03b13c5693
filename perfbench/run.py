#!/usr/bin/env python3
"""End-to-end benchmark of libresilock_preload.so on an unmodified app.

Runs perfbench/workload.cpp (pthread only, no resilock header) under
LD_PRELOAD on four workloads, each rep paired with the same app on plain
glibc, and reports every end-to-end metric as median, quartiles and
sample count. See perfbench/README.md.

  python3 perfbench/run.py                      all workloads, one set
  python3 perfbench/run.py --sets 2             two interleaved sets
  python3 perfbench/run.py --trace              per-layer pass
  python3 perfbench/run.py --smoke              1 rep x 0.5 s, schema check
  python3 perfbench/run.py --compare A.json B.json
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      one workload; the last stdout line is the result as one JSON object

The first call builds .bench_build/ from source (cmake, about a minute).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
APP = os.path.join(BUILD, "perfbench_workload")
LAYERS = os.path.join(BUILD, "perfbench_layers")
PRELOAD = os.path.join(BUILD, "resilock", "libresilock_preload.so")
TARGETS = ["resilock_preload", "perfbench_workload", "perfbench_layers"]

THREADS = 3          # nproc 4: one core stays free for the collector
REPS = 20            # rep i runs --seed S+i
SETUP_SPAWNS = 31    # --duration-ms 0 spawns per run, spread over reps
DEFAULT_SECONDS = 16
PROBE_DRIFT = 0.10   # a set whose probe quartiles are further apart is flagged

FULLSTACK_ENV = {
    "RESILOCK_LOCKSTAT": "1",
    "RESILOCK_PARK": "1",
    "RESILOCK_TELEMETRY": "1",
    "RESILOCK_TELEMETRY_SPANS": "1",
    "RESILOCK_TRACE_FILE": "/dev/null",
}

# name -> (app workload, extra env, extra app args). Why each exists is
# in BENCHMARK.json and README.md. The glibc reference of a workload runs
# the same app workload without the env and without the args.
WORKLOADS = {
    "ledger": ("ledger", {}, []),
    "rwcache": ("rwcache", {}, []),
    "pipeline": ("pipeline", {}, []),
    "ledger-fullstack-misuse": ("ledger", FULLSTACK_ENV,
                                ["--misuse-rate", "0.01"]),
}

# Absolute values of one app run: printed as abs.* (under the preload)
# and ref.bare.* (plain glibc), kept in the result file.
ABSOLUTE = {
    "throughput_ops_s": "ops/s",
    "lat_p50_ns": "ns",
    "lat_p90_ns": "ns",
    "lat_p99_ns": "ns",
    "cpu_ns_per_op": "ns",
    "max_rss_mb": "MB",
}

# End-to-end metrics: name -> unit. A *_vs_bare metric is the preload
# run's value over its paired glibc run's, per rep (README: "Why
# ratios"). Bounds live in BENCHMARK.json.
END_TO_END = {
    "throughput_vs_bare": "x",
    "lat_p50_vs_bare": "x",
    "lat_p90_vs_bare": "x",
    "cpu_per_op_vs_bare": "x",
    "setup_s": "s",
    "max_rss_mb": "MB",
}
VS_BARE = {
    "throughput_vs_bare": "throughput_ops_s",
    "lat_p50_vs_bare": "lat_p50_ns",
    "lat_p90_vs_bare": "lat_p90_ns",
    "cpu_per_op_vs_bare": "cpu_ns_per_op",
}

# Per-layer metrics from the app's own timing of each pthread call kind:
# kind -> fields reported as interpose.<kind>.<field>.
APP_CALL_FIELDS = {
    "mutex_lock": ["calls", "busy_s", "p50_ns", "p99_ns"],
    "mutex_unlock": ["busy_s", "p50_ns"],
    "cond_wait": ["busy_s", "p50_ns", "p99_ns"],
    "cond_signal": ["p50_ns"],
    "rwlock_rdlock": ["p50_ns", "p99_ns"],
    "rwlock_wrlock": ["p50_ns", "p99_ns"],
    "rwlock_unlock": ["p50_ns", "p99_ns"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build and child processes
# ---------------------------------------------------------------------

def build():
    """Configures once, then brings the three targets up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def clean_env(extra=None, preload=True):
    """The caller's environment minus every RESILOCK_* knob, so the
    default workloads really run the preload's default configuration."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RESILOCK_") and k != "LD_PRELOAD"}
    if preload:
        env["LD_PRELOAD"] = PRELOAD
    env.update(extra or {})
    return env


def run_child(cmd, env, timeout_s):
    """Runs cmd to completion; returns (exit code, stdout, rusage). A
    child still running after timeout_s is killed, then reaped."""
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(timeout_s, p.kill)
    killer.start()
    try:
        out = p.stdout.read().decode(errors="replace")
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, ru


def last_json(out):
    for line in reversed(out.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def speed_probe():
    rc, out, _ = run_child([APP, "--speed-probe"], clean_env(preload=False), 30)
    doc = last_json(out) if rc == 0 else None
    return doc["probe_ns"] if doc else None


def run_app(workload, seed, duration_ms, extra_env=None, trace_path=None,
            preload=True):
    """One app process, under the preload or (preload=False) as its glibc
    reference. Returns the app's JSON line plus what the parent measured;
    ok=False when it died, misprinted or failed its check."""
    app_workload, env, args = WORKLOADS[workload]
    if not preload:
        env, args = {}, []
    cmd = [APP, "--workload", app_workload, "--threads", str(THREADS),
           "--duration-ms", str(int(duration_ms)), "--seed", str(seed)] + args
    if trace_path:
        cmd += ["--trace", trace_path]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    rc, out, ru = run_child(cmd, clean_env({**env, **(extra_env or {})},
                                           preload),
                            duration_ms / 1000.0 + 60)
    doc = last_json(out)
    rec = {"rc": rc, "app": doc, "spawn_ns": spawn_ns,
           "cpu_ns": (ru.ru_utime + ru.ru_stime) * 1e9,
           "max_rss_kb": ru.ru_maxrss}
    rec["ok"] = rc == 0 and doc is not None and doc.get("check") == "ok"
    return rec


# ---------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------

def run_rep(workload, seed, rep_ms, setups, bare_first):
    """One rep: speed probe, `setups` set-up spawns, then the measured
    preload run and its glibc reference, in the order given."""
    rec = {"probe_ns": speed_probe(), "setup_s": [], "setup_failed": 0}
    for _ in range(setups):
        s = run_app(workload, seed, 0)
        if s["ok"]:
            rec["setup_s"].append(
                (s["app"]["ready_mono_ns"] - s["spawn_ns"]) * 1e-9)
        else:
            rec["setup_failed"] += 1
    for preload in ([False, True] if bare_first else [True, False]):
        rec["run" if preload else "bare"] = run_app(workload, seed, rep_ms,
                                                    preload=preload)
    return rec


def spawns_for(rep, reps):
    return SETUP_SPAWNS // reps + (1 if rep < SETUP_SPAWNS % reps else 0)


def absolute(run):
    """ABSOLUTE values of one measured run (None when it failed)."""
    a = run["app"]
    if not run["ok"] or a["ops"] == 0 or a["measured_ns"] == 0:
        return None
    return {
        "throughput_ops_s": a["ops"] * 1e9 / a["measured_ns"],
        "lat_p50_ns": a["lat_p50_ns"],
        "lat_p90_ns": a["lat_p90_ns"],
        "lat_p99_ns": a["lat_p99_ns"],
        "cpu_ns_per_op": run["cpu_ns"] / max(1, a["ops_total"]),
        "max_rss_mb": run["max_rss_kb"] / 1024.0,
    }


def op_tally(run):
    """(attempted, failed) ops of one app run under the preload. A run
    that dies or fails its final check counts all its ops as failed."""
    app = run["app"] or {}
    ops = max(1, app.get("ops_total", 0))
    return ops, app["failed_ops"] if run["ok"] else ops


def trimmed_mean(values):
    """Mean without the lowest and the highest value. Per-rep values of a
    lock-bound run often sit in two clusters (README: Noise); the median
    of 20 jumps between them, this moves in proportion."""
    values = sorted(values)
    if len(values) > 2:
        values = values[1:-1]
    return sum(values) / len(values)


def stats(values, center=trimmed_mean):
    """`value` is the reported centre; median and quartiles describe the
    per-rep spread."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"value": center(values) if values else 0.0, "median": med,
            "q1": q1, "q3": q3, "n": len(values), "samples": values}


def quartile_spread(values):
    s = stats(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def summarize(reps):
    """Folds a workload's reps into metrics plus the correctness tally.
    A failed glibc reference leaves its rep without ratios."""
    per_metric = {name: [] for name in END_TO_END}
    abs_vals = {name: [] for name in ABSOLUTE}
    bare_vals = {name: [] for name in ABSOLUTE}
    attempted = failed = lat_samples = 0
    correct = True
    for rec in reps:
        run = rec["run"]
        ops, bad = op_tally(run)
        attempted += ops + rec["setup_failed"]
        failed += bad + rec["setup_failed"]
        correct = (correct and run["ok"] and rec["bare"]["ok"] and
                   bad == 0 and rec["setup_failed"] == 0)
        lat_samples += (run["app"] or {}).get("lat_samples", 0)
        a, b = absolute(run), absolute(rec["bare"])
        for vals, src in ((abs_vals, a), (bare_vals, b)):
            for k in (src or {}):
                vals[k].append(src[k])
        if a and b:
            for name, k in VS_BARE.items():
                per_metric[name].append(a[k] / b[k])
            per_metric["max_rss_mb"].append(a["max_rss_mb"])
        per_metric["setup_s"].extend(rec["setup_s"])
    metrics = {}
    for name, unit in END_TO_END.items():
        if not per_metric[name]:
            correct = False
            continue
        center = statistics.median if name == "setup_s" else trimmed_mean
        metrics[name] = dict(stats(per_metric[name], center), unit=unit)
    probes = [r["probe_ns"] for r in reps if r["probe_ns"]]

    def brief(vals):  # reference rows: no per-rep samples kept
        return {k: dict(stats(v), unit=ABSOLUTE[k], samples=None)
                for k, v in vals.items() if v}

    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": correct, "lat_samples": lat_samples,
            "absolute": brief(abs_vals), "bare": brief(bare_vals),
            "probe_ns": probes,
            "probe_drift": quartile_spread(probes) if probes else 0.0}


def measure_sets(workloads, seed, seconds, sets, reps=REPS):
    """sets x workloads x reps, interleaved rep by rep so host drift lands
    on every set and workload alike. `seconds` of app time per workload
    and set, half under the preload and half on glibc; which of a pair
    runs first alternates by rep."""
    runs = [{w: [] for w in workloads} for _ in range(sets)]
    rep_ms = seconds * 1000.0 / (2 * reps)
    for i in range(reps):
        for s in range(sets):
            for w in workloads:
                log("rep %d/%d set %d %s" % (i + 1, reps, s + 1, w))
                runs[s][w].append(run_rep(w, seed + i, rep_ms,
                                          spawns_for(i, reps), i % 2 == 1))
    return [{w: summarize(runs[s][w]) for w in workloads}
            for s in range(sets)]


# ---------------------------------------------------------------------
# Per-layer pass (--trace)
# ---------------------------------------------------------------------

def run_layers(scale):
    rc, out, _ = run_child([LAYERS, "--scale", str(scale)],
                           clean_env(preload=False), 60)
    doc = last_json(out)
    if rc != 0 or doc is None:
        return None
    with open(os.path.join(RESULTS, "layers.json"), "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def read_json(path):
    try:
        with open(path) as f:
            return last_json(f.read())
    except OSError:
        return None


def ratio(num, den, empty):
    return num / den if den else empty


def trace_pass(workload, seed, seconds, layers):
    """Untraced run and traced run of one workload, joined with the
    layer ladder's output (`layers`, from one run_layers() for every
    workload: it does not depend on the workload). Returns the summary
    with every per-layer metric, or correct=False."""
    half_ms = seconds * 500
    trace_path = os.path.join(RESULTS, "trace.%s.json" % workload)
    metrics_path = os.path.join(RESULTS, "metrics.%s.json" % workload)
    stats_path = os.path.join(RESULTS, "preload_stats.%s.json" % workload)
    for p in (metrics_path, stats_path):
        if os.path.exists(p):
            os.remove(p)
    plain = run_app(workload, seed, half_ms)
    traced = run_app(workload, seed, half_ms, trace_path=trace_path,
                     extra_env={"RESILOCK_TELEMETRY": "1",
                                "RESILOCK_METRICS_FILE": metrics_path,
                                "RESILOCK_METRICS_FORMAT": "json",
                                "RESILOCK_PRELOAD_STATS_FILE": stats_path})
    counters = (read_json(metrics_path) or {}).get("metrics")
    preload = read_json(stats_path)
    attempted, failed = (sum(t) for t in zip(op_tally(plain),
                                             op_tally(traced)))
    plain_abs, traced_abs = absolute(plain), absolute(traced)
    if (failed or layers is None or counters is None or preload is None or
            plain_abs is None or traced_abs is None):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    calls = traced["app"]["calls"]
    c = counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for kind, fields in APP_CALL_FIELDS.items():
        k = dict(calls[kind], busy_s=calls[kind]["busy_ns"] * 1e-9)
        for field in fields:
            unit = {"calls": "count", "busy_s": "s"}.get(field, "ns")
            put("interpose.%s.%s" % (kind, field), k[field], unit)
    put("interpose.registry_lookup_ns",
        layers["interpose.registry_lookup_ns"], "ns")
    put("interpose.rl_pair_ns", layers["interpose.rl_pair_ns"], "ns")
    put("interpose.adoptions_init",
        preload["init_mutexes"] + preload["init_rwlocks"], "count")
    put("interpose.adoptions_lazy",
        preload["adopted_mutexes"] + preload["adopted_rwlocks"], "count")
    for name in ("core.mcs_pair_ns", "core.crw_read_pair_ns",
                 "core.contended_pair_ns", "shield.pair_ns",
                 "shield.delta_ns", "shield.held_table_ns",
                 "shield.rw_read_pair_ns", "lockdep.delta_ns",
                 "lockdep.edge_probe_ns", "response.decide_ns",
                 "observe.delta_ns", "observe.hook_ns", "park.delta_ns",
                 "park.wake_word_ns", "telemetry.delta_ns",
                 "telemetry.emit_ns"):
        put(name, layers[name], "ns")
    put("park.handoff_us", layers["park.handoff_us"], "us")
    put("telemetry.drain_mevs", layers["telemetry.drain_mevs"], "Mev/s")
    put("lockdep.edges", c["lockdep.edges"], "count")
    put("lockdep.classes_live", c["lockdep.classes_live"], "count")
    put("response.decisions", c["response.decisions"], "count")
    put("response.action.suppress", c["response.action.suppress"], "count")
    put("observe.contention_ratio",
        ratio(c["lockstat.contentions"], c["lockstat.acquisitions"], 0.0),
        "ratio")
    put("observe.wait_ns_total", c["lockstat.wait_ns_total"], "ns")
    put("park.parks", c["park.parks"], "count")
    put("park.spurious_ratio",
        ratio(c["park.wakes_spurious"], c["park.wakes"], 0.0), "ratio")
    put("park.misuse_wakes", c["park.misuse_wakes"], "count")
    put("telemetry.events_emitted", c["trace.events_emitted"], "count")
    put("telemetry.delivered_ratio",
        ratio(c["collector.events_delivered"], c["trace.events_emitted"],
              1.0), "ratio")
    put("trace_overhead", plain_abs["throughput_ops_s"] /
        traced_abs["throughput_ops_s"], "ratio")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": m, "trace_file": trace_path,
            "spans": traced["app"]["spans"]}


# ---------------------------------------------------------------------
# Host fingerprint, BENCHMARK.json, reporting
# ---------------------------------------------------------------------

def _first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                           cwd=ROOT)
        return r.stdout.strip().splitlines()[0] if r.returncode == 0 else None
    except (OSError, IndexError, subprocess.SubprocessError):
        return None


def fingerprint():
    fp = {"nproc": os.cpu_count(), "kernel": platform.release(),
          "cpu_model": None, "clocksource": None, "compiler": None,
          "build_type": None, "git_commit": None}
    if os.path.exists(os.path.join(ROOT, ".git")):
        fp["git_commit"] = _first_line(["git", "rev-parse", "HEAD"])
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/sys/devices/system/clocksource/clocksource0/"
                  "current_clocksource") as f:
            fp["clocksource"] = f.read().strip()
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    fp["build_type"] = cache.get("CMAKE_BUILD_TYPE")
    if cache.get("CMAKE_CXX_COMPILER"):
        fp["compiler"] = _first_line([cache["CMAKE_CXX_COMPILER"],
                                      "--version"])
    return fp


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_table(workload, summary, prefix=""):
    print("%s%s  (attempted %d, failed %d, %s)" % (
        prefix, workload, summary["attempted"], summary["failed"],
        "correct" if summary["correct"] else "INCORRECT"))
    rows = [("", summary["metrics"]), ("abs.", summary.get("absolute", {})),
            ("ref.bare.", summary.get("bare", {}))]
    for row_prefix, metrics in rows:
        for name, s in metrics.items():
            name = row_prefix + name
            if "median" in s:
                print("  %-28s %14.4f %-6s median %.4f q1 %.4f q3 %.4f "
                      "n=%d" % (name, s["value"], s["unit"], s["median"],
                                s["q1"], s["q3"], s["n"]))
            else:
                print("  %-34s %16.4f %s" % (name, s["value"], s["unit"]))
    if summary.get("lat_samples"):
        print("  latency samples under the preload: %d" %
              summary["lat_samples"])
    if summary.get("probe_ns"):
        print("  speed probe: median %.2f ms, quartiles %.1f%% apart" % (
            statistics.median(summary["probe_ns"]) * 1e-6,
            summary["probe_drift"] * 100))
    if summary.get("probe_drift", 0) > PROBE_DRIFT:
        print("  WARNING: speed probe quartiles %.0f%% apart: host speed "
              "changed under the measurement" % (summary["probe_drift"] * 100))
    sys.stdout.flush()


def result_line(summary, trace):
    """The one-line result: medians of end-to-end metrics, or the
    per-layer values with --trace 1."""
    metrics = {}
    for name, s in summary["metrics"].items():
        metrics[name] = {"value": s["value"], "unit": s["unit"]}
    return json.dumps({"correct": summary["correct"],
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


# ---------------------------------------------------------------------
# Comparison and schema check
# ---------------------------------------------------------------------

def verdict(better, bound, a, b):
    """Classifies B against A for one metric (see README: Comparing)."""
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0
                 for s in (a, b))
    sign = 1 if better == "higher" else -1
    gain = sign * (b["value"] - a["value"]) / a["value"]
    all_better = all(sign * (x - y) > 0 for x in b["samples"]
                     for y in a["samples"])
    if spread > bound and not all_better:
        return "unresolved", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > bound or all_better:
        return "improved", gain, spread
    return "unchanged", gain, spread


def compare(a, b, spec):
    """Every end-to-end metric x workload of B against A. Returns the
    number of worse verdicts, plus workloads where B failed ops, plus
    workloads left unresolved because either side's speed probe
    drifted."""
    failures = 0
    print("%-24s %-20s %-11s %9s %8s" % ("workload", "metric", "verdict",
                                         "change", "spread"))
    for w in a:
        if w not in b:
            continue
        drift = max(a[w]["probe_drift"], b[w]["probe_drift"])
        for spec_m in spec["end_to_end"]:
            name = spec_m["name"]
            if name not in a[w]["metrics"] or name not in b[w]["metrics"]:
                continue
            v, gain, spread = verdict(spec_m["better"], spec_m["bound"],
                                      a[w]["metrics"][name],
                                      b[w]["metrics"][name])
            if drift > PROBE_DRIFT:
                v = "unresolved"
            failures += v == "worse"
            print("%-24s %-20s %-11s %+8.1f%% %7.1f%%" % (
                w, name, v, gain * 100, spread * 100))
        if drift > PROBE_DRIFT:
            failures += 1
            print("%-24s speed probe drifted %.0f%%: host speed changed "
                  "under the measurement, every verdict unresolved" %
                  (w, drift * 100))
        if not b[w]["correct"] or b[w]["failed"]:
            failures += 1
            print("%-24s failed ops: %d" % (w, b[w]["failed"]))
    return failures


def check_schema(sets, trace_summaries, spec):
    """--smoke: every metric BENCHMARK.json names is printed with its
    unit, and the workloads match."""
    problems = []
    for sets_entry in sets:
        for w, s in sets_entry.items():
            for m in spec["end_to_end"]:
                got = s["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: end-to-end %s" % (w, m["name"]))
                elif got["value"] <= 0:
                    problems.append("%s: %s is not positive" % (w, m["name"]))
    for w, s in trace_summaries.items():
        for m in spec["per_layer"]:
            got = s["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append("%s: per-layer %s" % (w, m["name"]))
        extra = set(s["metrics"]) - {m["name"] for m in spec["per_layer"]}
        problems += ["%s: %s not in BENCHMARK.json" % (w, n) for n in extra]
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        problems.append("end-to-end metrics differ from BENCHMARK.json")
    return problems


# ---------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload and print the result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="app seconds per workload, split over reps")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer pass instead")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--out", help="result JSON (default "
                    ".bench_build/results/result.json)")
    args = ap.parse_args()

    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        return 1 if compare(docs[0]["sets"][0], docs[1]["sets"][0],
                            load_spec()) else 0

    build()
    os.makedirs(RESULTS, exist_ok=True)
    fp = fingerprint()
    log("host: " + json.dumps(fp))

    if args.workload:  # one workload, one result line
        if args.trace:
            summary = trace_pass(args.workload, args.seed, args.seconds,
                                 run_layers(1.0))
        else:
            summary = measure_sets([args.workload], args.seed, args.seconds,
                                   1)[0][args.workload]
        print_table(args.workload, summary)
        print(result_line(summary, args.trace))
        return 0 if summary["correct"] else 1

    workloads = list(WORKLOADS)
    seconds, trace, reps = args.seconds, args.trace, REPS
    if args.smoke:
        seconds, trace, reps = 1.0, 1, 1
    doc = {"fingerprint": fp, "threads": THREADS, "reps": reps,
           "seconds": seconds, "seed": args.seed}
    ok = True
    if args.smoke or not trace:
        sets = measure_sets(workloads, args.seed, seconds,
                            1 if args.smoke else args.sets, reps)
        doc["sets"] = sets
        for i, s in enumerate(sets):
            for w in workloads:
                print_table(w, s[w], "set %d: " % (i + 1) if len(sets) > 1
                            else "")
                ok = ok and s[w]["correct"]
        if len(sets) > 1:
            ok = compare(sets[0], sets[1], load_spec()) == 0 and ok
    traces = {}
    if trace:
        layers = run_layers(0.1 if args.smoke else 1.0)
        for w in workloads:
            traces[w] = trace_pass(w, args.seed, seconds, layers)
            print_table(w, traces[w], "trace: ")
            ok = ok and traces[w]["correct"]
        doc["trace"] = traces
    if args.smoke:
        problems = check_schema(doc["sets"], traces, load_spec())
        for p in problems:
            print("schema: " + p)
        ok = ok and not problems
    doc["correct"] = ok
    out = args.out or os.path.join(RESULTS, "result.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print("result: " + out + (" (correct)" if ok else " (INCORRECT)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
