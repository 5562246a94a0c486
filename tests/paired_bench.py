"""Alternating parent/change runs of the benchmark, and the paired figures
a speed claim is judged on.

Run from the root of a checkout:

    python3 tests/paired_bench.py --parent HEAD~1 --workload experiment --seed 1993 --pairs 10

It exports ``--parent`` with ``git archive`` into a temporary directory
and measures it against ``--change``: the checkout itself, as it stands,
unless a revision is given, which is exported too. ``--parent HEAD
--change HEAD`` runs two copies of one tree, an A/A batch. Each pair runs
``perfbench/run.py --workload W --seed S --seconds X --trace 0`` once in
each tree, the parent first in the even pairs and the change first in
the odd ones, and reads the run's final JSON line (the metrics) and its
report line before it (``raw_s``, the unnormalised times of each repeat).

Per metric it prints the parent's median and quartiles, the change's
median, the pairs the change won (ties count for neither), and the median
of the per-pair log ratios ``log(change / parent)`` with a sign-test
interval for it, the order statistics of at least 95% coverage. It then
says whether the claim test holds as the benchmark's rule is written:
the change wins at least nine tenths of the pairs and its median beats
the parent's by more than the parent's interquartile range. The metrics
are the end-to-end ones of ``BENCHMARK.json``, with their direction, and
``raw_setup_s`` and ``raw_wall_s``: the median over a run's repeats of
their unnormalised set-up and job times, lower being better.

``--record FILE`` writes the change's run with the median ``wall_s`` into
``FILE`` under its workload, beside any other workload the file holds, in
the layout of the ``BENCH_<n>.json`` files. The script changes nothing
under ``perfbench/``; tier-1 tests its statistics, not the runs, which
take minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = {"raw_setup_s": "setup", "raw_wall_s": "wall"}


def export(rev, into):
    """The tree of revision ``rev`` of this repository, written under the
    directory ``into`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return Path(into)


def run_bench(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``tree``: ``(result, report)``, its
    last two lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed ({out.returncode}): "
                         f"{out.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def values_of(result, report):
    """The metrics of one run by name, the raw medians among them."""
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, key in RAW.items():
        values[name] = statistics.median(r[key] for r in report["raw_s"])
    return values


def quartiles(values):
    """``(q1, median, q3)`` of ``values``, by linear interpolation between
    order statistics (numpy's default percentile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_interval(values, level=0.95):
    """The sign-test interval for the median of ``values``: ``(low, high,
    coverage)``, the ``k``-th smallest and ``k``-th largest value for the
    largest ``k`` whose coverage, ``1 - 2 P(B < k)`` for ``B`` binomial in
    ``n`` trials of one half, is at least ``level``; with too few values
    for any, the whole range (``k = 1``) and its coverage."""
    ordered, n = sorted(values), len(values)

    def coverage(k):
        return 1 - 2 * sum(math.comb(n, j) for j in range(k)) / 2**n

    k = 1
    while k + 1 <= (n + 1) // 2 and coverage(k + 1) >= level:
        k += 1
    return ordered[k - 1], ordered[n - k], coverage(k)


def compare(parent, change, lower_is_better):
    """The paired figures of one metric, ``parent[i]`` and ``change[i]``
    being pair ``i``'s runs."""
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ratios = [math.log(c / p) for p, c in zip(parent, change) if p > 0 and c > 0]
    summary = {
        "parent_median": p_median, "parent_q1": q1, "parent_q3": q3,
        "change_median": c_median, "wins": wins, "pairs": len(parent),
        "gain": sign * (p_median - c_median), "iqr": q3 - q1,
    }
    if ratios:
        low, high, coverage = sign_test_interval(ratios)
        summary.update(log_ratio=statistics.median(ratios), log_low=low, log_high=high,
                       coverage=coverage)
    summary["claim"] = 10 * wins >= 9 * len(parent) and summary["gain"] > summary["iqr"]
    return summary


def line(name, s):
    """One metric's figures as a line CHANGES.md can quote."""
    text = (f"{name}: {s['parent_median']:.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]"
            f" -> {s['change_median']:.6g} ({s['wins']}/{s['pairs']})")
    if "log_ratio" in s:
        text += (f", log ratio {s['log_ratio']:+.4f} [{s['log_low']:+.4f}, {s['log_high']:+.4f}]"
                 f" at {s['coverage']:.1%}")
    return text + (", claim holds" if s["claim"] else ", no claim")


def record(path, workload, seed, runs):
    """Write the run of ``runs`` (``(result, report)`` pairs) with the
    median ``wall_s`` into the file ``path``, under ``workload``."""
    ordered = sorted(runs, key=lambda run: run[0]["metrics"]["wall_s"]["value"])
    result, report = ordered[(len(ordered) - 1) // 2]
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {
        "seed": seed,
        "command": f"python3 perfbench/run.py --workload <name> --seed {seed} --trace 0",
        "environment": report["environment"],
        "workloads": {},
    }
    data["workloads"][workload] = {"digest": report["digest"], "result": result}
    path.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to measure against")
    parser.add_argument("--change", help="a revision in place of the checkout")
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "ablation", "extract"))
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--record", help="a BENCH file to write the change's median run into")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    directions = {m["name"]: m["better"] == "lower"
                  for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    directions.update(dict.fromkeys(RAW, True))

    with tempfile.TemporaryDirectory() as tmp:
        parent = export(args.parent, Path(tmp) / "parent")
        change = export(args.change, Path(tmp) / "change") if args.change else ROOT
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                runs[side].append(run_bench(tree, args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    values = {side: [values_of(*run) for run in side_runs] for side, side_runs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, parent {args.parent}, "
          f"change {args.change or 'the checkout'}; parent median [quartiles] -> change median "
          f"(change better in n/N), median log(change/parent) [sign-test interval]")
    for name, lower in directions.items():
        parent_values = [v[name] for v in values["parent"]]
        change_values = [v[name] for v in values["change"]]
        print(line(name, compare(parent_values, change_values, lower)))
    digests = {side: {run[1]["digest"] for run in side_runs} for side, side_runs in runs.items()}
    print(f"digests: parent {sorted(digests['parent'])}, change {sorted(digests['change'])}")
    if args.record:
        record(args.record, args.workload, args.seed, runs["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
