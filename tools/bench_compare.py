#!/usr/bin/env python3
"""Compare the chase benchmark between a base revision and the working tree.

    python3 tools/bench_compare.py --base REV --workload NAME|all

Run from the root of a chase checkout (``make bench-compare BASE=REV
WORKLOAD=NAME`` does).  The run length and the end-to-end metrics, with
their directions and bounds, come from ``BENCHMARK.json``; ``all`` runs
steps 2 and 3 for each of its workloads in turn over the one base
build.  Three steps:

1. Check out REV into a git worktree under ``_build/bench-compare/`` and
   build it there; perfbench/run.py builds each side from its own sources.
   The worktree is removed at the end.
2. One traced run per side (``--trace 1``, seed 1, a short window).  The
   exact work counts must agree: ``engine.triggers``, every ``hom.*``
   count, ``guarded.triggers``, ``simulation.triggers`` and
   ``journal.bytes``.  A difference means the two sides do different
   work, so their times compare two programs, not two builds of one: the
   count diff is printed, the pairs still run under a "work differs"
   banner (a change meant to cut work is timed all the same), and the
   exit status is 1.  ``decide.unknown`` and
   ``gc.minor_words_per_trigger`` are printed beside them, ungated.
3. Ten untraced pairs at the benchmark's run length, pair k on seed k,
   the side that runs first alternating; each run's end-to-end metrics
   are printed as it ends.  For each end-to-end metric it then prints
   each side's median and quartiles, how many pairs the working tree won
   and lost (ties count for neither), and one verdict:

   - "better by X%": the medians differ by more than the base's quartile
     distance and the working tree won at least nine pairs of ten, or
     every run of the working tree beat every run of the base;
   - "unresolved": the base's quartile distance, relative to its median,
     exceeds the metric's bound, so a regression of that size could not
     be told from noise;
   - "worse beyond bound": the working tree's median is worse than the
     base's by more than the bound (relative to the base's median);
   - "within bound" otherwise.

Exit status: 0 when the work counts agree on every workload compared, 1
when they differ on any, 2 on a usage, build or run error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Work counts that do not depend on timing: equal work on both sides.
EXACT = ["engine.triggers", "guarded.triggers", "simulation.triggers", "journal.bytes"]
# Printed beside them, not gated: an answer count and an allocation rate.
INFO = ["decide.unknown", "gc.minor_words_per_trigger"]
PAIRS = 10
TRACE_SECONDS = 5
WORKTREES = os.path.join("_build", "bench-compare")


def die(msg, code=2):
    print("bench-compare: " + msg, file=sys.stderr)
    sys.exit(code)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev):
    try:
        sha = git("rev-parse", "--verify", rev + "^{commit}")
    except subprocess.CalledProcessError:
        die("unknown revision %s" % rev)
    path = os.path.join(WORKTREES, sha[:12])
    if not os.path.isdir(path):
        os.makedirs(WORKTREES, exist_ok=True)
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def remove(path):
    subprocess.run(["git", "worktree", "remove", "--force", path],
                   capture_output=True)
    subprocess.run(["git", "worktree", "prune"], capture_output=True)


def perfbench(side, workload, seed, seconds, trace):
    """One perfbench run in the checkout [side]; its metrics by name."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    run = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        die("perfbench failed in %s (exit %d)" % (side, run.returncode))
    result = json.loads(lines[-1])
    if result["failed"]:
        die("%s: %d of %d operations failed in %s" %
            (workload, result["failed"], result["attempted"], side))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, base):
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(metric, base, head):
    """The verdict line of one end-to-end metric over paired samples."""
    sign = -1 if metric["better"] == "lower" else 1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    gain = sign * (hm - bm)
    bound = metric["bound"]
    separated = min(head) > max(base) if sign > 0 else max(head) < min(base)
    if (gain > b3 - b1 and 10 * wins >= 9 * len(base)) or separated:
        said = "better by %.1f%%" % (100 * relative(gain, bm))
    elif relative(b3 - b1, bm) > bound:
        said = "unresolved: base spread %.1f%% exceeds the bound %.0f%%" % (
            100 * relative(b3 - b1, bm), 100 * bound)
    elif relative(-gain, bm) > bound:
        said = "worse beyond bound: %.1f%% > %.0f%%" % (
            100 * relative(-gain, bm), 100 * bound)
    else:
        said = "within bound: median %+.1f%% (bound %.0f%%)" % (
            100 * relative(hm - bm, bm), 100 * bound)
    return wins, losses, said


def compare(workload, sides, seconds, metrics):
    """Steps 2 and 3 for one workload; False when the work counts differ."""
    traced = {name: perfbench(d, workload, 1, TRACE_SECONDS, True)
              for name, d in sides.items()}
    gated = sorted(k for k in traced["base"] if k in EXACT or k.startswith("hom."))
    differ = [k for k in gated if traced["base"][k] != traced["head"].get(k)]
    for k in gated + INFO:
        print("  %-28s base %-14.6g head %-14.6g%s" %
              (k, traced["base"].get(k, float("nan")),
               traced["head"].get(k, float("nan")),
               "  DIFFERS" if k in differ else ""))
    if differ:
        print("bench-compare: %s: work counts differ (%s)" % (workload, ", ".join(differ)))
        for k in differ:
            b, h = traced["base"][k], traced["head"].get(k, float("nan"))
            print("  %-28s %+.6g (%+.1f%%)" % (k, h - b, 100 * relative(h - b, b)))
        print("  === work differs: the pairs below time different work ===", flush=True)
    samples = {s: {m["name"]: [] for m in metrics} for s in sides}
    for k in range(PAIRS):
        order = ["base", "head"] if k % 2 == 0 else ["head", "base"]
        for s in order:
            got = perfbench(sides[s], workload, k + 1, seconds, False)
            for m in metrics:
                samples[s][m["name"]].append(got[m["name"]])
            print("  pair %d seed %d %s: %s" % (
                k + 1, k + 1, s,
                " ".join("%s=%.4g" % (m["name"], got[m["name"]]) for m in metrics)),
                  flush=True)
    print("  %d alternating pairs, seeds 1-%d, %gs each" % (PAIRS, PAIRS, seconds))
    for m in metrics:
        base, head = samples["base"][m["name"]], samples["head"][m["name"]]
        b1, bm, b3 = quartiles(base)
        h1, hm, h3 = quartiles(head)
        wins, losses, said = verdict(m, base, head)
        print("  %-14s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]"
              "  head won %d, lost %d of %d: %s"
              % (m["name"], bm, b1, b3, hm, h1, h3, wins, losses, PAIRS, said))
    if differ:
        print("  === work differs (%s): the verdicts above compare different work ==="
              % ", ".join(differ))
    return not differ


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join("perfbench", "run.py")):
        die("run from the root of a chase checkout")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        die("unknown workload %s" % args.workload)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sha, base_dir = checkout(args.base)
    sides = {"base": base_dir, "head": "."}
    try:
        differ = []
        for workload in workloads:
            print("bench-compare: %s at %s vs the working tree" % (workload, sha[:12]),
                  flush=True)
            if not compare(workload, sides, seconds, metrics):
                differ.append(workload)
        if differ:
            print("bench-compare: work counts differ on %s" % ", ".join(differ))
            return 1
        return 0
    finally:
        remove(base_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
