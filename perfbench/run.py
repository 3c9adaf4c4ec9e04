#!/usr/bin/env python3
"""The repo benchmark: build the simulator and sweepd from source, run one
workload, check every result line against a reference sweep, and print
the metrics.

    python3 perfbench/run.py --workload cold_figures --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest      # trace and counter reconciliation

Run it from the root of the repository. Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The two lines before it are the environment stamp and the full detail
(every metric of the workload, with units). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_figures", "warm_rerun", "sweepd_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Fixed run sizes, stamped on every result.
INSTS = 20000        # per-cell instructions: the figures' --quick size
# Set-ups per run; setup_s is their median. cold_figures' set-up (spec and
# program build) takes milliseconds, so it repeats more often.
SETUP_REPS = {"cold_figures": 25, "warm_rerun": 3, "sweepd_mix": 3}
# The self-test's tiny sizes.
SMOKE = {"insts": 2000, "seconds": 1, "setup_reps": 1}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the perfbench and sweepd targets."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("repository sources not found next to perfbench/", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "sweepd"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "svw", "sweepd"))


def source_hash():
    """sha256 over the sources the benchmark builds, so a result can be
    tied to its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "bench", "sweepd.cc")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)
                      if not f.endswith(".pyc")]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(args, sizes, build_info):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "loadavg_1m": os.getloadavg()[0],
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "cxx_flags": build_info.get("cxx_flags"),
        "ipo": build_info.get("ipo"),
        "release_build": build_info.get("release_build"),
        "comparable_with_release": bool(build_info.get("release_build")),
        "git_commit": git_commit(),
        "source_hash": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": sizes["seconds"],
        "insts_per_cell": sizes["insts"],
        "setup_reps": sizes["setup_reps"],
        "sweepd_clients": 3,
        "sweepd_cold_share": 0.25,
    }


def run_binary(binary, sweepd, workload, seed, trace, sizes, work_dir):
    """Run the measuring binary; @return (exit code, detail dict)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % sizes["seconds"], "--trace=%d" % trace,
           "--work-dir=" + work_dir, "--sweepd=" + sweepd,
           "--insts=%d" % sizes["insts"],
           "--setup-reps=%d" % sizes["setup_reps"]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The binary and any daemon it started share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.startswith("{\"detail\"")]
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    return proc.returncode, json.loads(lines[-1])["detail"]


def run(args, sizes):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    binary, sweepd = build()
    work_dir = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    rc, detail = run_binary(binary, sweepd, args.workload, args.seed,
                            args.trace, sizes, work_dir)
    env = env_stamp(args, sizes, detail.get("build", {}))
    if not env["release_build"]:
        print("perfbench: WARNING: not a plain Release build; these numbers "
              "are not comparable with Release figures", file=sys.stderr)

    metrics, missing = {}, []
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(detail["correct"]) and rc == 0,
              "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]), "metrics": metrics}
    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump({"env": env, "detail": detail, "result": result}, f,
                  indent=1)
    if missing:
        fail("%s did not measure: %s" % (args.workload, ", ".join(missing)))
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- Self-test: trace and counter reconciliation ----------------------------

# Every metric README.md documents; each workload must print it with a unit
# or say why it does not apply.
NAMED_METRICS = [
    "setup_s", "sweep_s", "minsts_per_cpu_s", "ops_per_s", "op_ms_p50",
    "op_ms_p90", "mem_op_ms_p50", "ttfc_ms_p50", "warm_op_ms_p90",
    "peak_rss_mb", "failed_frac",
]
NAMED_LAYER_METRICS = [
    "prog.build_ms", "prog.programs_built", "cpu.simulate_s",
    "cpu.minsts_per_s", "cpu.share", "cpu.sim_insts", "cpu.sim_cycles",
    "rex.reexec_per_kload", "svw.filter_ratio", "rle.elim_rate",
    "func.golden_s", "func.share", "harness.key_us_per_cell",
    "harness.mem_probe_us_p50", "harness.disk_probe_us_p50",
    "harness.serialize_us_per_cell", "harness.session_start_ms_p50",
    "harness.session_finish_ms_p50", "harness.step_ms_p50",
    "harness.step_ms_p90", "harness.cache_hit_ratio",
    "harness.cells_simulated", "service.head_ms_p50",
    "service.stream_ms_p50", "service.parse_us", "service.cells_simulated",
    "service.mem_hits", "service.mem_evictions", "service.program_builds",
    "service.mem_cache_mb", "trace.overhead_ms",
] + ["cpu.stage.%s_share" % s for s in (
    "commit", "rex", "complete", "wheel_advance", "issue", "lsu_search",
    "dispatch", "fetch")]


def check_nesting(trace_path):
    """Each child span lies inside its parent and shares its op id."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    bad = []
    for e in events:
        p = e["args"]["parent"]
        if not p:
            continue
        q = by_id.get(p)
        slack = 0.002  # us: rounding of the printed timestamps
        if (q is None or q["args"]["op"] != e["args"]["op"]
                or e["ts"] + slack < q["ts"]
                or e["ts"] + e["dur"] > q["ts"] + q["dur"] + slack):
            bad.append(e["name"])
    return len(events), bad


def selftest():
    binary, sweepd = build()
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        shown = {}
        for trace in (0, 1):
            work_dir = os.path.join(build_dir(), "selftest",
                                    "%s-%d" % (workload, trace))
            rc, d = run_binary(binary, sweepd, workload, 11, trace, SMOKE,
                               work_dir)
            check(rc == 0 and d["correct"] and d["failed"] == 0,
                  "%s trace=%d: every result line matches the reference"
                  % (workload, trace))
            rec, m = d["reconcile"], d["metrics"]
            check(rec["cells_simulated"] ==
                  rec["cells_attempted"] - rec["cache_hits"],
                  "%s trace=%d: cells simulated = attempted - cache hits "
                  "(%s)" % (workload, trace, rec))
            counter = ("status_run_cell_calls" if workload == "sweepd_mix"
                       else "exec_cell_runs")
            check(rec["cells_simulated"] == rec[counter],
                  "%s trace=%d: cells simulated = %s" % (workload, trace,
                                                         counter))
            if workload == "sweepd_mix":
                check(m["service.cells_simulated"]["value"] ==
                      rec["cells_simulated"],
                      "sweepd_mix trace=%d: /status runCellCalls delta = "
                      "done cells streamed" % trace)
            if trace:
                check(m["harness.cells_simulated"]["value"] ==
                      (rec["status_run_cell_calls"]
                       if workload == "sweepd_mix"
                       else rec["cells_simulated"]),
                      "%s: harness.cells_simulated agrees with the "
                      "counters" % workload)
                n, bad = check_nesting(os.path.join(work_dir, "trace.json"))
                check(n > 0 and not bad,
                      "%s: %d spans, every child nested in its parent%s"
                      % (workload, n, "" if not bad else " (bad: %s)"
                         % sorted(set(bad))[:5]))
            for name, v in m.items():
                shown[name] = v
            for name in d["not_applicable"]:
                shown.setdefault(name, {"unit": "n/a: " +
                                        d["not_applicable"][name]})
        for name in NAMED_METRICS + NAMED_LAYER_METRICS:
            unit = shown.get(name, {}).get("unit")
            check(bool(unit), "%s: %s printed with a unit or marked not "
                  "applicable with a reason" % (workload, name))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(m["name"] in NAMED_METRICS + NAMED_LAYER_METRICS +
              ["cpu_ms_per_op"],
              "BENCHMARK.json metric %s is documented" % m["name"])
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the trace and counter reconciliation test")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    sizes = {"insts": INSTS, "seconds": args.seconds,
             "setup_reps": SETUP_REPS[args.workload]}
    return run(args, sizes)


if __name__ == "__main__":
    sys.exit(main())
