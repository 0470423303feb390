#!/usr/bin/env python3
"""Engine-throughput regression gate.

Runs the micro_engine google-benchmark binary REPS times (default twice),
takes the best items_per_second per benchmark across runs, and compares it
against the committed baseline: the newest entry of BENCH_engine.json whose
results carry after-throughput numbers.  Any benchmark slower than
(1 - tolerance) * baseline fails the gate.

Best-of-N across separate process invocations is deliberate: the benchmark
boxes are single shared cores where per-run noise exceeds 5%, and the best
observed rate is the most stable estimator of achievable throughput there
(see docs/PERF.md for the measurement protocol).

Usage:
  bench/compare_bench.py --binary build/bench/micro_engine \
      [--baseline BENCH_engine.json] [--tolerance 0.05] [--reps 2] \
      [--filter 'BM_(Engine(Serial|Sbrb)|EngineSharded/4096|TrialFarm)'] \
      [--overhead BASE:PROBE:FRAC ...]

--overhead compares two benchmarks WITHIN the current run (no baseline
needed): PROBE must reach at least (1 - FRAC) * BASE items/s.  This is how
the telemetry-on probe is held to the observability contract, e.g.:
  --overhead 'BM_EngineSharded/4096/1:BM_EngineShardedTelemetry/4096/1:0.05'

Exit status: 0 = no regression, 1 = regression, 2 = usage/setup error.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def load_baseline(path: Path) -> dict[str, float]:
    """Per-benchmark after-throughput in M items/s, newest entry winning.

    Entries are merged oldest-to-newest so an entry that re-measures only a
    subset of benchmarks (or introduces a new one, e.g. BM_EngineSbrb)
    updates those names without dropping the rest of the baseline.
    """
    doc = json.loads(path.read_text())
    entries = doc["entries"] if isinstance(doc, dict) else doc
    rates: dict[str, float] = {}
    for entry in entries:
        for row in entry.get("results", []):
            for key in ("after_M_per_s", "after_best_M_per_s"):
                if key in row:
                    rates[row["name"]] = float(row[key])
                    break
    if not rates:
        raise SystemExit(f"error: no usable baseline entry in {path}")
    return rates


def run_bench(binary: Path, bench_filter: str) -> dict[str, float]:
    """One benchmark run; returns items_per_second in M items/s per name."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = Path(tmp.name)
    cmd = [
        str(binary),
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        report = json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)
    rates = {}
    for bm in report.get("benchmarks", []):
        if bm.get("run_type") == "aggregate":
            continue
        ips = bm.get("items_per_second")
        if ips is not None:
            rates[bm["name"]] = ips / 1e6
    return rates


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", type=Path,
                    default=repo / "build" / "bench" / "micro_engine")
    ap.add_argument("--baseline", type=Path,
                    default=repo / "BENCH_engine.json")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional slowdown (default 0.05)")
    ap.add_argument("--reps", type=int, default=2,
                    help="benchmark process invocations; best rate wins")
    ap.add_argument("--filter", default="BM_(EngineSerial|EngineSbrb(Sharded)?/(1024|4096)|EngineSharded/4096|TrialFarm)",
                    help="regex passed to --benchmark_filter")
    ap.add_argument("--overhead", action="append", default=[],
                    metavar="BASE:PROBE:FRAC",
                    help="require PROBE >= (1-FRAC)*BASE within this run; "
                         "repeatable")
    args = ap.parse_args()

    overhead_checks = []
    for spec in args.overhead:
        parts = spec.rsplit(":", 1)
        names = parts[0].split(":") if len(parts) == 2 else []
        if len(parts) != 2 or len(names) != 2:
            print(f"error: bad --overhead spec {spec!r} "
                  "(want BASE:PROBE:FRAC)", file=sys.stderr)
            return 2
        try:
            frac = float(parts[1])
        except ValueError:
            print(f"error: bad --overhead fraction in {spec!r}",
                  file=sys.stderr)
            return 2
        overhead_checks.append((names[0], names[1], frac))

    if not args.binary.is_file():
        print(f"error: benchmark binary not found: {args.binary}",
              file=sys.stderr)
        return 2
    baseline = load_baseline(args.baseline)

    best: dict[str, float] = {}
    for rep in range(max(1, args.reps)):
        for name, rate in run_bench(args.binary, args.filter).items():
            best[name] = max(best.get(name, 0.0), rate)
        print(f"run {rep + 1}/{args.reps} done", file=sys.stderr)

    pat = re.compile(args.filter)
    checked, regressed = 0, []
    print(f"{'benchmark':35} {'baseline':>9} {'now':>9} {'ratio':>7}")
    for name, base_rate in sorted(baseline.items()):
        if not pat.search(name):
            continue
        if name not in best:
            print(f"warning: baseline benchmark {name} not in output",
                  file=sys.stderr)
            continue
        checked += 1
        ratio = best[name] / base_rate
        flag = "" if ratio >= 1.0 - args.tolerance else "  << REGRESSION"
        print(f"{name:35} {base_rate:9.3f} {best[name]:9.3f} "
              f"{ratio:7.3f}{flag}")
        if flag:
            regressed.append(name)

    # Same-run overhead gates (probe vs base, independent of the baseline).
    for base_name, probe_name, frac in overhead_checks:
        missing = [n for n in (base_name, probe_name) if n not in best]
        if missing:
            print(f"error: --overhead benchmark(s) not in output: "
                  f"{', '.join(missing)} (widen --filter?)", file=sys.stderr)
            return 2
        checked += 1
        ratio = best[probe_name] / best[base_name]
        flag = "" if ratio >= 1.0 - frac else "  << REGRESSION"
        print(f"{probe_name:35} {best[base_name]:9.3f} "
              f"{best[probe_name]:9.3f} {ratio:7.3f}{flag}"
              f"  (overhead gate {frac:.0%})")
        if flag:
            regressed.append(probe_name)

    if checked == 0:
        print("error: no benchmarks compared (filter too narrow?)",
              file=sys.stderr)
        return 2
    if regressed:
        print(f"FAIL: {len(regressed)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}: {', '.join(regressed)}",
              file=sys.stderr)
        return 1
    print(f"OK: {checked} benchmark(s) within {args.tolerance:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
