"""The bien benchmark's one command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload experiment --seed 1993 --seconds 33 --trace 0

It imports ``bien`` from the checkout's ``src`` directory and nowhere
else, measures one workload (``experiment``, ``ablation`` or ``extract``)
and prints a report line and then, as the last line, ``{"correct",
"attempted", "failed", "metrics"}``. Each repeat runs in a fresh
interpreter of this same script (``--child``), which prints that repeat's
record instead. ``--trace 0`` gives the end-to-end metrics from
round(``--seconds`` / 11) repeats, at least 2. ``--trace 1`` gives the
per-layer metrics from one untraced and one traced repeat; the traced
repeat's spans also go to ``perfbench/out/``. The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the checkout
holds no ``src/bien``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def use_checkout_source():
    """Put the checkout's ``src`` first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "bien" / "__init__.py").is_file():
        return False
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def run_child(bench, args, sizes):
    """One repeat in this interpreter; prints its record as the last line."""
    record, spans = bench.repeat(args.workload, args.seed, sizes, traced=bool(args.trace))
    if spans is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.spans.json"
        path.write_text(json.dumps(spans), encoding="utf-8")
        record["trace"]["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "ablation", "extract"))
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one repeat at the given sizes, spawned by the measuring run
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)  # docs,stream,probe
    args = parser.parse_args(argv)

    if not use_checkout_source():
        print(f"perfbench: no bien sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench

    sizes = bench.Sizes(*map(int, args.sizes.split(","))) if args.sizes else bench.Sizes()
    if args.child:
        return run_child(bench, args, sizes)
    result, report = bench.run(args.workload, seed=args.seed, seconds=args.seconds,
                               trace=bool(args.trace), sizes=sizes)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
