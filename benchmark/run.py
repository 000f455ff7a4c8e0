#!/usr/bin/env python3
"""The repository's benchmark: the paper's threshold protocol, end to end and
layer by layer, on four named workloads (see benchmark/README.md).

    python3 benchmark/run.py --workload single-4k --seed 1 --seconds 20 \
        --trace 0
    python3 benchmark/run.py --self-test

Run from the root of a checkout. The first run builds the benchmark binary
(Release) from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build).

--trace 0 measures the end-to-end metrics from untraced passes, then checks
every pass against sim::Engine run on the same inputs in a separate process.
--trace 1 is the traced run: it prints the per-layer metrics and writes the
spans it recorded to <build dir>/spans/. Both print a context line (host
shape, build, sample counts, pass-to-pass spread) and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}. Operations are tasks: a task
lost or duplicated counts as failed, and every task of a run whose reference
check fails counts as failed.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("single-4k", "burst-1m", "burst-4k-uds", "single-4k-lat1")

# name -> unit, in print order.
END_TO_END = {
    "tasks_per_sec": "1/s",
    "sojourn_p50_us": "us",
    "sojourn_p99_us": "us",
    "sojourn_p99_steps": "step",
    "max_load": "task",
    "msgs_per_task": "msg/task",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "util.barriers_per_step": "1/step",
    "util.barrier_stall_fraction": "ratio",
    "util.barrier_wait_p99_us": "us",
    "rt.run_us_per_step_p50": "us/step",
    "rt.run_us_per_step_p99": "us/step",
    "rt.msgs_per_step": "msg/step",
    "rt.remote_push_fraction": "ratio",
    "rt.drain_batch_mean": "msg",
    "rt.utilization_mean": "ratio",
    "rt.queue_imbalance": "ratio",
    "rt.arena_mb": "MB",
    "rt.overhead_over_sim": "ratio",
    "core.heavy_per_phase": "proc/phase",
    "core.match_rate": "ratio",
    "core.tasks_moved_per_task": "task/task",
    "collision.rounds_per_phase": "round/phase",
    "collision.requests_per_phase": "req/phase",
    "collision.queries_per_request": "query/req",
    "net.fabric_msgs_per_step": "msg/step",
    "net.mean_in_flight": "msg",
    "net.max_in_flight": "msg",
    "net.phase_steps_mean": "step",
    "net.forced_phases": "phase",
    "transport.wire_kb_per_step": "KB/step",
    "transport.frames_per_step": "frame/step",
    "transport.barriers_per_step": "1/step",
    "transport.barrier_rtt_p50_us": "us",
    "transport.barrier_rtt_p99_us": "us",
    "transport.collect_s": "s",
    "transport.overhead_over_inproc": "ratio",
    "sim.tasks_per_sec": "1/s",
    "obs.telemetry_overhead": "ratio",
}

EXACT = ("max_load", "msgs_per_task", "sojourn_p99_steps")
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo", "MinSizeRel")


class BenchError(Exception):
    """The benchmark could not run (not: it ran and a check failed)."""


def log(msg):
    print(f"benchmark: {msg}", file=sys.stderr, flush=True)


_running = None  # the child process group currently waited on


def _stop_running(signum, _frame):
    """SIGTERM/SIGINT: kill and reap the child group, then exit."""
    if _running is not None and _running.poll() is None:
        os.killpg(_running.pid, signal.SIGKILL)
        _running.wait()
    sys.exit(128 + signum)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it; on timeout or
    on a signal to this script the whole group (benchmark binary and any shard
    processes) is killed and reaped."""
    global _running
    _running = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                                stderr=sys.stderr, text=True,
                                start_new_session=True)
    try:
        out, _ = _running.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_running.pid, signal.SIGKILL)
        _running.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    finally:
        code = _running.returncode
        _running = None
    if code != 0:
        raise BenchError(f"exit {code}: {' '.join(cmd)}")
    return out


# ---- build -----------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{os.path.join(ROOT, need)} is missing: run "
                             "from the root of a checkout of the repository")
    bdir = os.path.join(build_dir(), "benchmark")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_group(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], 600, sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_group(["cmake", "--build", bdir, "--target", "clb_benchmark",
               "-j", jobs], 850, sys.stderr)
    return os.path.join(bdir, "clb_benchmark")


def run_binary(binary, args, timeout):
    out = run_group([binary] + args, timeout, subprocess.PIPE)
    return json.loads(out.strip().splitlines()[-1])


def check_build(info):
    """Timing from a debug or sanitizer build means nothing: refuse it."""
    if (info["build_type"] not in OPTIMIZED_BUILDS or not info["ndebug"]
            or info["sanitize"]):
        raise BenchError(f"refusing an unoptimized or sanitizer build: {info}")


# ---- provenance ------------------------------------------------------------

def provenance():
    """Git SHA when the checkout is a repository; always a digest of the
    sources the benchmark binary was built from."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except OSError:
            sha = None
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def fast_quartile(values, higher_is_better):
    """The quartile of the per-window values on the fast side: the third for
    throughput, the first for latency. Interference from other tenants of a
    shared host only ever slows a window, and its slow stretches can cover
    more than half of a run; see benchmark/README.md for the run-to-run
    spreads this gave against the median. A single window is its own
    value."""
    if len(values) < 2:
        return values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] if higher_is_better else q[0]


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


# ---- checks ----------------------------------------------------------------

def check_passes(passes, reference, attempted):
    """Checks every pass against the reference outcome for its seed and
    against the first pass of the same seed. Returns (failed, problems):
    lost or duplicated tasks fail, and any reference, shadow or
    reproducibility failure fails all `attempted` tasks."""
    problems = []
    gap = 0
    whole_run_fails = False
    first = {}
    for p in passes:
        o = p["outcome"]
        gap += o["task_gap"]
        if not o["conserved"] or o["task_gap"]:
            problems.append(
                f"seed {p['seed']}: conservation gap {o['task_gap']}")
        if not p.get("shadow_ok", True):
            whole_run_fails = True
            problems.append(f"seed {p['seed']}: shadow check: "
                            f"{p['shadow_divergence']}")
        ref = reference.get(p["seed"])
        if ref is None or ref["fingerprint"] != o["fingerprint"] or any(
                ref[k] != o[k] for k in EXACT):
            whole_run_fails = True
            problems.append(f"seed {p['seed']}: differs from the reference")
        if first.setdefault(p["seed"], o)["fingerprint"] != o["fingerprint"]:
            whole_run_fails = True
            problems.append(
                f"seed {p['seed']}: not reproducible across passes")
    return (attempted if whole_run_fails else min(gap, attempted)), problems


def exact_metrics(passes):
    """Mean over the run's distinct sub-seeds of each exact protocol metric."""
    first = {}
    for p in passes:
        first.setdefault(p["seed"], p["outcome"])
    return {k: statistics.fmean(o[k] for o in first.values()) for k in EXACT}


def result(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


def measure_run(binary, workload, seed, seconds, smoke=False):
    """--trace 0: untraced passes, then the reference in its own process."""
    extra = ["--smoke"] if smoke else []
    m = run_binary(binary, ["measure", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds)]
                   + extra, seconds + 170)
    check_build(m["build"])
    seeds, steps = [], []
    for p in m["passes"]:
        if p["seed"] not in seeds:
            seeds.append(p["seed"])
            steps.append(str(p["outcome"]["steps"]))
    r = run_binary(binary, ["reference", "--workload", workload,
                            "--seed", str(seed), "--steps", ",".join(steps)]
                   + extra, 170)
    reference = {p["seed"]: p["outcome"] for p in r["passes"]}
    attempted = sum(p["outcome"]["generated"] for p in m["passes"])
    failed, problems = check_passes(m["passes"], reference, attempted)
    per_pass = {
        "tasks_per_sec": [p["outcome"]["consumed"] / p["run_s"]
                          for p in m["passes"]],
        "sojourn_p50_us": [p["sojourn_p50_us"] for p in m["passes"]],
        "sojourn_p99_us": [p["sojourn_p99_us"] for p in m["passes"]],
    }
    windows = {k: [x for p in m["passes"] for x in p["window_" + k]]
               for k in per_pass}
    metrics = {k: fast_quartile(v, k == "tasks_per_sec")
               for k, v in windows.items()}
    metrics.update({k: m[k] for k in ("setup_s", "peak_rss_mb")})
    metrics.update(exact_metrics(m["passes"]))
    context = {
        "workload": workload, "seed": seed, "trace": 0,
        "build": m["build"], "host": m["host"],
        "passes": len(m["passes"]), "sub_seeds": len(seeds),
        "measured_s": m["measured_s"],
        "sojourn_us_samples_per_pass": [p["sojourn_us_samples"]
                                        for p in m["passes"]],
        "sojourn_us_derived_from_steps": m["passes"][0]["sojourn_us_derived"],
        "windows": len(windows["sojourn_p99_us"]),
        "window_read_us_median": statistics.median(
            p["window_read_us"] for p in m["passes"]),
        "window_spread": {k: spread(v) for k, v in windows.items()},
        "sojourn_steps_samples": sum(
            p["outcome"]["sojourn_samples"] for p in m["passes"]),
        "setup_samples": m["setup_samples"],
        "rss_mb": {"coordinator": m["coordinator_rss_mb"],
                   "largest_shard": m["shard_rss_mb"]},
        "pass_medians": {k: statistics.median(v) for k, v in per_pass.items()},
        "pass_to_pass_spread": {k: spread(v) for k, v in per_pass.items()},
        "exact_per_sub_seed": {
            s: {k: reference[s][k] for k in EXACT} for s in seeds
            if s in reference},
        "problems": problems,
    }
    return context, result(not problems, attempted, failed, metrics,
                           END_TO_END)


def traced_run(binary, workload, seed, smoke=False):
    """--trace 1: the per-layer run, checked against its own oracle rung."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload}-seed{seed}.json")
    extra = ["--smoke"] if smoke else []
    t = run_binary(binary, ["traced", "--workload", workload,
                            "--seed", str(seed), "--spans", spans]
                   + extra, 175)
    check_build(t["build"])
    reference = {p["seed"]: o for p, o in zip(t["passes"], t["reference"])}
    attempted = sum(p["outcome"]["generated"] for p in t["passes"])
    failed, problems = check_passes(t["passes"] + t["rung_passes"], reference,
                                    attempted)
    if not t["spans_written"]:
        problems.append(f"could not write {spans}")
    context = {
        "workload": workload, "seed": seed, "trace": 1,
        "build": t["build"], "host": t["host"],
        "layer_source": t["layer_source"], "spans": spans,
        "missing": [k for k, v in t["metrics"].items() if v is None],
        "problems": problems,
    }
    return context, result(not problems, attempted, failed, t["metrics"],
                           PER_LAYER)


# ---- self-test -------------------------------------------------------------

def self_test(binary):
    """Every workload at tiny n and step counts: every named metric prints
    with its unit, every check passes, and BENCHMARK.json names exactly the
    metrics this script prints. Also proves the checks convict a pass that
    differs from its reference."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            log(f"self-test: BENCHMARK.json {key} differs from run.py")
            ok = False
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("self-test: BENCHMARK.json workloads differ from run.py")
        ok = False
    for w in WORKLOADS:
        for context, res in (measure_run(binary, w, 1, 0, smoke=True),
                             traced_run(binary, w, 1, smoke=True)):
            trace = context["trace"]
            units = PER_LAYER if trace else END_TO_END
            good = (res["correct"] and res["failed"] == 0
                    and res["attempted"] > 0
                    and list(res["metrics"]) == list(units)
                    and all(isinstance(v["value"], (int, float))
                            and v["unit"] == units[k]
                            for k, v in res["metrics"].items()))
            if not trace:
                good = good and all(res["metrics"][k]["value"] > 0
                                    for k in END_TO_END)
            log(f"self-test {w} trace {trace}: {'ok' if good else 'FAILED'} "
                f"{context['problems']}")
            ok = ok and good
    # The checker must convict a pass that differs from its reference.
    o = {"generated": 10, "task_gap": 0, "conserved": True, "fingerprint": "1",
         "max_load": 3, "msgs_per_task": 0.5, "sojourn_p99_steps": 2.0}
    bad = dict(o, fingerprint="2")
    failed, problems = check_passes([{"seed": "7", "outcome": o}], {"7": bad},
                                    10)
    if failed != 10 or not problems:
        log("self-test: a pass that differs from its reference was not "
            "convicted")
        ok = False
    log(f"self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="smoke every workload at tiny sizes and exit")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop_running)
    signal.signal(signal.SIGINT, _stop_running)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        if args.trace:
            context, res = traced_run(binary, args.workload, args.seed)
        else:
            context, res = measure_run(binary, args.workload, args.seed,
                                       args.seconds)
        context.update(provenance())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
