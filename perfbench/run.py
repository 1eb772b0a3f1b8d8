#!/usr/bin/env python3
"""The repository benchmark: four pubsub workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steadiness [--runs N] [--workload <name> ...]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt) into .bench_build; later calls rebuild
incrementally. A run splits --seconds across several repetitions of the
workload, each in a fresh driver process, and reports every metric as the
median over repetitions with its quartiles. A repetition during which the
hypervisor stole more than STEAL_LIMIT of the VM's CPU time is made again, up
to SPARE_REPS times per run, and the run reports its least-stolen
repetitions. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
repetitions. --trace 1 interleaves untraced and traced repetitions and
reports the per-layer metrics: the traced repetitions' spans, counters and
single-layer ledger, the tracing overhead, and the ledger gap.

The exit code is 0 only when every repetition passed its correctness checks.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
DRIVER = BUILD / "perfbench_driver"
SELFTEST = BUILD / "perfbench_selftest"

UNTRACED_REPS = 8       # --trace 0: repetitions a run reports.
TRACE_PAIRS = 2         # --trace 1: untraced/traced repetition pairs.
SPARE_REPS = 4          # Repetitions a run may add to replace stolen ones.
STEAL_LIMIT = 0.03      # CPU steal share above which a repetition is replaced.
RUN_BUDGET_S = 170      # A run (after the build) ends within this.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(targets=("perfbench_driver",)):
    """Configures (once) and builds; returns False when the build fails."""
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def quartiles(values, method="exclusive"):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share;
    negative when it is better."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def steal_share(before, after):
    """Share of all CPU time between two cpu_ticks() samples that was stolen."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat; steal is time the hypervisor
    ran something else while this VM's CPUs had work."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_driver(workload, seed, seconds, trace, timeout_s):
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(WORK.relative_to(ROOT))]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"correct": False, "why": "repetition timed out", "attempted": 0,
                "failed": 0, "metrics": {}, "info": {}}
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return {"correct": False, "why": f"driver exited {out.returncode} without a result",
                "attempted": 0, "failed": 0, "metrics": {}, "info": {}}
    rep = json.loads(lines[-1])
    if out.returncode != 0 and rep.get("correct"):
        rep["correct"] = False
        rep["why"] = f"driver exited {out.returncode}"
    return rep


def host_envelope(spec, workload, seed, reps, digests):
    sha = "unknown"
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        if got.returncode == 0:
            sha = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cache = BUILD / "CMakeCache.txt"
    build_type, obs_noop = "unknown", False
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
            if line.startswith("PUBSUB_OBS_NOOP:"):
                obs_noop = line.split("=", 1)[1].upper() in ("ON", "1", "TRUE")
    return {"host_nproc": os.cpu_count(), "machine": platform.machine(),
            "build_type": build_type, "git_sha": sha, "pubsub_obs_noop": obs_noop,
            "workload": workload, "seed": seed, "repetitions": reps,
            "input_digests": sorted(set(digests))}


def aggregate(reps, names):
    """Per metric: (median, q1, q3) over the repetitions that report it."""
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in reps if name in r["metrics"]]
        if values:
            q1, med, q3 = quartiles(values, "inclusive")
            out[name] = (med, q1, q3)
    return out


def run_once(workload, seed, seconds, trace, spec=None):
    """One benchmark run; returns (result dict, printable lines)."""
    spec = spec or load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    if trace:
        window = seconds / (2 * TRACE_PAIRS)
        plan = [False, True] * TRACE_PAIRS
    else:
        window = seconds / UNTRACED_REPS
        plan = [False] * UNTRACED_REPS
    made = []
    spares = SPARE_REPS
    start = cpu_ticks()
    deadline = time.monotonic() + RUN_BUDGET_S
    for slot, traced in enumerate(plan):
        while True:
            began, before = time.monotonic(), cpu_ticks()
            rep = run_driver(workload, seed, window, traced, max(1.0, deadline - time.monotonic()))
            rep["steal"] = steal_share(before, cpu_ticks())
            made.append(rep)
            took = time.monotonic() - began
            slots_left = len(plan) - slot
            if (not rep.get("correct") or rep["steal"] <= STEAL_LIMIT or spares == 0
                    or deadline - time.monotonic() < 1.5 * took * slots_left):
                break
            spares -= 1
        if not rep.get("correct"):
            log(f"{workload} seed {seed}: correctness violation: {rep.get('why')}")
            break
    # Per kind, the least-stolen repetitions; every one made was checked.
    reps = []
    for traced in (False, True):
        kind = sorted((r for r in made if bool(r.get("trace")) == traced), key=lambda r: r["steal"])
        reps += kind[:plan.count(traced)]
    correct = all(r.get("correct") for r in made) and len(reps) == len(plan)
    untraced = [r for r in reps if not r.get("trace")]
    traced_reps = [r for r in reps if r.get("trace")]
    if trace:
        agg = aggregate(traced_reps, layer)
        # End-to-end tails: unbounded, and from the untraced repetitions.
        tails = [n for n in layer if n.startswith("tail.")]
        for n, v in aggregate(untraced, [n[len("tail."):] for n in tails]).items():
            agg["tail." + n] = v
        # published_per_s is unbounded but reported by every repetition.
        u = aggregate(untraced, [*e2e, "published_per_s"])
        t = aggregate(traced_reps, [*e2e, "published_per_s"])
        if "deliver_p50_us" in u and "deliver_p50_us" in t and u["deliver_p50_us"][0]:
            ratio = t["deliver_p50_us"][0] / u["deliver_p50_us"][0]
            agg["obs.trace_overhead_ratio"] = (ratio, ratio, ratio)
        if "published_per_s" in u and "published_per_s" in t and t["published_per_s"][0]:
            ratio = u["published_per_s"][0] / t["published_per_s"][0]
            agg["obs.trace_throughput_ratio"] = (ratio, ratio, ratio)
        if "deliver_p50_us" in u and "ledger.layer_sum_us" in agg:
            gap = u["deliver_p50_us"][0] - agg["ledger.layer_sum_us"][0]
            agg["ledger.gap_us"] = (gap, gap, gap)
        names = layer
    else:
        agg = aggregate(untraced, e2e)
        names = e2e
    missing = [n for n in names if n not in agg]
    if correct and missing:
        log(f"{workload}: metrics missing from the driver output: {missing}")
        correct = False
    metrics = {n: {"value": agg[n][0], "unit": names[n]["unit"]} for n in names if n in agg}
    lines = [f"{'metric':40s} {'median':>14s} {'unit':8s} q1..q3 over {len(plan)} reps"]
    for n in names:
        if n in agg:
            med, q1, q3 = agg[n]
            lines.append(f"{n:40s} {med:14.6g} {names[n]['unit']:8s} {q1:.6g}..{q3:.6g}")
    # Every repetition made counts, so a replaced one hides no failure.
    attempted = sum(int(r.get("attempted", 0)) for r in made)
    failed = sum(int(r.get("failed", 0)) for r in made)
    if not trace:
        unbounded = sorted({n for r in reps for n in r["metrics"]} - set(e2e))
        for n, (med, q1, q3) in aggregate(reps, unbounded).items():
            lines.append(f"{n:40s} {med:14.6g} {'':8s} {q1:.6g}..{q3:.6g} (not bounded)")
    env = host_envelope(spec, workload, seed, len(reps), [r.get("digest", "") for r in reps])
    env["failed_ratio"] = failed / attempted if attempted else 0.0
    env["cpu_steal_share"] = steal_share(start, cpu_ticks())
    env["repetition_steal"] = [round(r["steal"], 4) for r in made]
    env["repetitions_made"] = len(made)
    env["samples"] = {k: statistics.median(r["info"][k] for r in reps if k in r.get("info", {}))
                      for k in ("deliver_samples", "ack_samples", "deliver_tail_percentile",
                                "ack_tail_percentile")
                      if any(k in r.get("info", {}) for r in reps)}
    lines.append("envelope " + json.dumps(env, sort_keys=True))
    result = {"correct": bool(correct), "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    return result, lines


def agreement(a, b, metric):
    """Two sets' values of one metric: (spread A, spread B, how much worse
    B's median is, whether they agree). They agree when each spread is within
    the bound (setup_s excepted) and the medians differ by at most the bound,
    in either direction."""
    bound = metric["bound"]
    sa, sb = relative_spread(a), relative_spread(b)
    worse = worse_by(statistics.median(a), statistics.median(b), metric["better"])
    spread_ok = metric["name"] == "setup_s" or (sa <= bound and sb <= bound)
    return sa, sb, worse, spread_ok and abs(worse) <= bound


def steadiness(workloads, runs, seconds):
    """Two sets of runs of this build; per (workload, metric) both medians,
    their spreads, and whether they agree within BENCHMARK.json's bound."""
    spec = load_spec()
    ok = True
    report = {}
    print(f"{'workload':16s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'worse':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        sets = []
        for first_seed in (1, 101):
            vals = {}
            for seed in range(first_seed, first_seed + runs):
                res, lines = run_once(w, seed, seconds, False, spec)
                if not res["correct"]:
                    ok = False
                    log(f"{w} seed {seed}: incorrect")
                for n, m in res["metrics"].items():
                    vals.setdefault(n, []).append(m["value"])
                env = json.loads(lines[-1][len("envelope "):])
                vals.setdefault("cpu_steal_share", []).append(env["cpu_steal_share"])
            sets.append(vals)
        print(f"{w:16s} {'cpu steal per run':18s} A: " +
              " ".join(f"{x:.2f}" for x in sets[0]["cpu_steal_share"]) + "  B: " +
              " ".join(f"{x:.2f}" for x in sets[1]["cpu_steal_share"]), flush=True)
        report[w] = {"cpu_steal_share": {"a": sets[0]["cpu_steal_share"],
                                         "b": sets[1]["cpu_steal_share"]}}
        for m in spec["end_to_end"]:
            n, bound = m["name"], m["bound"]
            a, b = sets[0].get(n, []), sets[1].get(n, [])
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            sa, sb, worse, agree = agreement(a, b, m)
            ok = ok and agree
            verdict = "ok" if agree else "DISAGREE"
            if agree and n != "setup_s" and max(sa, sb) > bound / 3:
                verdict = "ok (spread above bound/3)"
            print(f"{w:16s} {n:18s} {statistics.median(a):12.6g} {statistics.median(b):12.6g} "
                  f"{sa:9.3f} {sb:9.3f} {worse:7.3f} {bound:6.2f}  {verdict}", flush=True)
            report[w][n] = {"a": a, "b": b, "spread_a": sa, "spread_b": sb, "worse": worse,
                            "bound": bound, "agree": agree}
    (BUILD / "steadiness.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return ok


def selftest():
    if not build(("perfbench_driver", "perfbench_selftest")):
        return 1
    rc = subprocess.run([str(SELFTEST)]).returncode
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc or unit else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if args.selftest:
        return selftest()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.steadiness:
        if not build():
            log("build failed")
            return 1
        return 0 if steadiness(args.workload or names, args.runs, seconds) else 1
    # The driver also runs workloads outside BENCHMARK.json (filtered_replay),
    # unbounded, and rejects names it does not know.
    if not args.workload or len(args.workload) != 1:
        log(f"--workload takes one of {names} or filtered_replay")
        return 2
    if seconds <= 0:
        log("--seconds must be positive")
        return 2
    if not build():
        log("build failed")
        return 1
    started = time.monotonic()
    result, lines = run_once(args.workload[0], args.seed, seconds, bool(args.trace), spec)
    for line in lines:
        print(line)
    log(f"run took {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
