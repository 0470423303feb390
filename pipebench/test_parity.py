#!/usr/bin/env python3
"""Pipeline parity: the benchmark measures the pipeline users run.

For each workload, run the pipebench binary once and the stock CLI it maps
to (`pipebench --cli` prints the command) with the same seed, and require
the report members that do not hold timings to be byte-identical:
config, aggregate, trial0.metrics and drift for cgsim, the whole report
for fault_campaign.  A change to either CLI's pipeline that pipebench does
not follow fails here.

    python3 pipebench/test_parity.py [--seed N] [workload ...]

Builds cgsim and fault_campaign from ../examples into the benchmark's build
tree.  Exits 0 when every workload matches, 1 otherwise.  The 1M-node
workload takes about half a minute per side.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper and paths)

PARITY_DIR = os.path.join(run.OUT, "parity")
CGSIM_MEMBERS = (("config",), ("aggregate",), ("trial0", "metrics"),
                 ("trial0", "drift"))


def raw_member(text, path):
    """The exact bytes of the JSON member at `path` (a key sequence)."""
    obj = json.loads(text)
    pos = 0
    for key in path:
        obj = obj[key]
        needle = json.dumps(key) + ":"
        pos = text.index(needle, pos) + len(needle)
    end = json.JSONDecoder().raw_decode(text, pos)[1]
    if json.loads(text[pos:end]) != obj:  # a same-named key came first
        raise ValueError("cannot locate %s" % "/".join(path))
    return text[pos:end]


def check_workload(workload, seed):
    os.makedirs(PARITY_DIR, exist_ok=True)
    ours = os.path.join(PARITY_DIR, workload + ".pipebench.json")
    theirs = os.path.join(PARITY_DIR, workload + ".cli.json")
    run.pipeline(workload, seed, ours)
    cli = subprocess.run([run.BINARY, "--workload=" + workload,
                          "--seed=%d" % seed, "--cli"],
                         capture_output=True, text=True, check=True)
    argv = cli.stdout.split()
    argv[0] = os.path.join(run.BUILD, argv[0])
    subprocess.run(argv + ["--report-json=" + theirs],
                   stdout=subprocess.DEVNULL, check=True)
    with open(ours) as f:
        a = f.read()
    with open(theirs) as f:
        b = f.read()
    if workload == "campaign-1k":
        diffs = [] if a == b else ["report"]
    else:
        diffs = ["/".join(p) for p in CGSIM_MEMBERS
                 if raw_member(a, p) != raw_member(b, p)]
    print("%-16s %-60s %s" % (workload, " ".join(cli.stdout.split()),
                              "ok" if not diffs else
                              "DIFFERS: " + ", ".join(diffs)))
    return not diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args()
    if not run.build(["pipebench", "cgsim", "fault_campaign"]):
        return 2
    ok = all([check_workload(w, args.seed) for w in args.workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
