#!/usr/bin/env python3
"""Build the pipeline benchmark and run one workload.

    python3 pipebench/run.py --workload campaign-1k --seed 1 --seconds 45 --trace 0

Run from the repository root.  The first call configures and builds the
pipebench binary (Release) under .bench_build/pipebench; later calls only let the
build check itself.  Build output goes to stderr, so stdout ends with the
one-line JSON result.

Each pipeline runs in its own pipebench process, cold, as a user's CLI run
does.  After one untimed warm-up pipeline, --trace 0 repeats untraced
pipelines until --seconds is spent and reports the end-to-end medians;
--trace 1 alternates untraced and traced pipelines, probes the layers
once, and reports the per-layer numbers.
Metric names and units come from BENCHMARK.json.

Exit code: 0 when every correctness check passed, 1 when one failed (the
result line still prints), 2 on bad arguments or a tree without the
simulator's sources.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "pipebench")
WORKLOADS = ("ccg-1m-sharded", "campaign-1k", "sbrb-byz-4k")
JOBS = "4"
CHILD_TIMEOUT_S = 150
SPANS = ("analysis.tune", "sim.validate", "harness.farm", "obs.replay",
         "obs.report_write")


def build(targets):
    """Configure (once) and build `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pipebench: no simulator sources (src/CMakeLists.txt) next to "
              "the benchmark", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", JOBS]
    for t in targets:
        cmd += ["--target", t]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pipeline(workload, seed, report, *flags):
    """One pipebench process = one cold pipeline; returns its stats."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--report=" + report] + ["--" + f for f in flags]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """A warm-up pipeline, then pipelines until the next one would overrun
    `seconds` (at least one untraced, and one traced with --trace 1).

    The warm-up is not timed: on a shared virtual machine the first
    seconds of load after idling run measurably slower.  It carries the
    stepped-engine oracle instead, which then stays out of the loop."""
    report = os.path.join(OUT, workload + ".report.json")
    warm = pipeline(workload, seed, report, "oracle")
    plain, traced = [], []
    start = time.monotonic()
    while not warm["problems"]:
        t0 = time.monotonic()
        plain.append(pipeline(workload, seed, report))
        probe = 0.0
        if trace:
            traced.append(pipeline(workload, seed, report, "trace",
                                   *([] if len(traced) else ["probe"])))
            probe = traced[-1].get("extra_s", 0.0)
        if plain[-1]["problems"] or (traced and traced[-1]["problems"]):
            break
        now = time.monotonic()
        # The probes run once; the next round costs only the pipelines.
        if (now - start) + (now - t0 - probe) > seconds:
            break
    return warm, plain, traced


def check(warm, plain, traced):
    """Correctness over every pipeline: guarantees, the farm's determinism
    contract (same seed, same aggregate, traced or not), trial 0 against
    the stepped-engine oracle, and trials run alone against the farm."""
    runs = [warm] + plain + traced
    attempted = sum(r["trials"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    if not problems:
        for r in runs:
            if r["aggregate"] != warm["aggregate"]:
                failed += r["trials"]
                problems.append("aggregate differs between runs of one seed")
        if warm["oracle_trial0"] != warm["trial0"]:
            failed += 1
            problems.append("trial 0 differs from the stepped-engine oracle")
        if traced and not traced[0]["layers"]["isolated_match"]:
            failed += traced[0]["trials"]
            problems.append("trials run alone aggregate unlike the farm")
    if attempted == 0:  # rejected before any trial ran: one failed attempt
        attempted = failed = 1
    return attempted, min(failed, attempted), problems


def end_to_end(plain):
    med = lambda f: statistics.median(f(r) for r in plain)
    return {
        "wall_s": med(lambda r: r["wall_s"]),
        "setup_s": med(lambda r: r["setup_s"]),
        "trials_per_s": med(lambda r: r["trials"] / r["farm_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def per_layer(plain, traced):
    def span_s(r, name):
        return sum(e - s for n, s, e in r["spans"] if n == name)

    med = lambda f: statistics.median(f(r) for r in traced)
    m = {n + "_s": med(lambda r, n=n: span_s(r, n)) for n in SPANS}
    layers = traced[0]["layers"]
    m.update({k: v for k, v in layers.items()
              if k not in ("isolated_match", "harness.trial_sum_s")})
    m["harness.farm_efficiency"] = layers["harness.trial_sum_s"] / (
        m["harness.farm_s"] * traced[0]["farm_threads"])
    m["trace_overhead_frac"] = (med(lambda r: r["wall_s"]) /
                                statistics.median(r["wall_s"] for r in plain)
                                - 1.0)
    m["unattributed_frac"] = med(
        lambda r: 1.0 - sum(e - s for _, s, e in r["spans"]) / r["wall_s"])
    m["trace.pipelines"] = len(traced)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build(["pipebench"]):
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)

    try:
        warm, plain, traced = measure(args.workload, args.seed, args.seconds,
                                      args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print("FAIL %s" % e, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    attempted, failed, problems = check(warm, plain, traced)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if not problems:
        values = per_layer(plain, traced) if args.trace else end_to_end(plain)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "commit": git_commit(), **warm["build"]}

    slim = lambda r: {k: v for k, v in r.items()
                      if k not in ("aggregate", "trial0", "oracle_trial0")}
    with open(os.path.join(OUT, "%s.trace%d.json" % (args.workload,
                                                     args.trace)), "w") as f:
        json.dump({"meta": meta, "result": result, "warm_up": slim(warm),
                   "untraced": [slim(r) for r in plain],
                   "traced": [slim(r) for r in traced]}, f, indent=1)

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("meta " + json.dumps(meta))
    print("pipeline wall_s: untraced %s; traced %s" % (
        " ".join("%.4g" % r["wall_s"] for r in plain),
        " ".join("%.4g" % r["wall_s"] for r in traced)))
    print("%-28s %.6g" % ("failed_frac", failed / attempted))
    for name, m in metrics.items():
        print("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
