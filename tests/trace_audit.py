"""Which functions of ``src/bien/`` the three benchmark jobs never enter.

Run from the root of a checkout:

    python3 tests/trace_audit.py

It runs one repeat of each ``perfbench`` workload (``experiment``,
``ablation`` and ``extract``, seed 1993, ``jobs=1``) in a child
interpreter under the stdlib ``trace`` module, counting the lines run in
files outside the interpreter's own tree, and prints every function
defined in ``src/bien/`` whose first statement never ran, one per line.
A function that only tests call shows up here, as do error paths and
dunders that the jobs do not reach.
"""

import ast
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

from test_callers import LIBRARY, ROOT, _definitions

WORKLOADS = ("experiment", "ablation", "extract")


def _first_line(node):
    """The line of a function's first statement that runs: not its
    docstring, nor a ``global`` or ``nonlocal`` declaration."""
    body = node.body
    if len(body) > 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    while isinstance(body[0], (ast.Global, ast.Nonlocal)):
        body = body[1:]
    return body[0].lineno


def main():
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts"
        # trace reads the counts file before it adds to it, so start from
        # an empty one rather than a missing one
        counts.write_bytes(pickle.dumps(({}, {}, {})))
        for workload in WORKLOADS:
            subprocess.run(
                [sys.executable, "-m", "trace", "--count", "--coverdir", tmp,
                 "--file", str(counts), "--ignore-dir", sys.prefix,
                 str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "1993", "--child"],
                check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
            )
        ran = pickle.loads(counts.read_bytes())[0]
    for path in LIBRARY:
        for qualified, node, _ in _definitions(path):
            if not ran.get((str(path), _first_line(node))):
                print(qualified)


if __name__ == "__main__":
    main()
