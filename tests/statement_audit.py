"""Which statements of ``src/bien/`` neither tier-1 nor the benchmark jobs run.

Run from the root of a checkout:

    python3 tests/statement_audit.py

It runs the tier-1 suite (``pytest`` over ``tests`` and ``perfbench``) and
one repeat of each ``perfbench`` workload (``experiment``, ``ablation``
and ``extract``, seed 1993), each in a child interpreter under the stdlib
``trace`` module, counting the lines run in ``src/bien/`` only. It then
prints every statement of ``src/bien/`` that none of them ran, one per
line, as ``module.py:line`` and the statement's first line. A statement
ran if any line of its header ran: the whole of a simple statement, the
lines before the body of a compound one (with its decorators). Docstrings
and ``global`` and ``nonlocal`` declarations, which compile to nothing,
are not statements here. Statements that only worker processes run
(``jobs > 1``) count as not run. A child that fails, such as a failing
tier-1, stops the audit with its exit status.

It takes five to six minutes on 2 shared vCPUs (4.6 to 6.2 over three
runs).
"""

import ast
import functools
import pickle
import runpy
import subprocess
import sys
import tempfile
import trace
from pathlib import Path

from test_callers import LIBRARY, ROOT
from trace_audit import WORKLOADS

SOURCE = ROOT / "src" / "bien"


class _LibraryOnly:
    """The ``ignore`` of a :class:`trace.Trace` that traces the frames of
    ``src/bien/`` and no others. The stdlib's own caches its answer per
    module basename, which would let ``hypothesis/errors.py`` hide
    ``bien/errors.py``; this one decides per file."""

    def __init__(self):
        self._ignored = {}

    def names(self, filename, modulename):
        ignored = self._ignored.get(filename)
        if ignored is None:
            ignored = self._ignored[filename] = Path(filename).resolve().parent != SOURCE
        return ignored


def _child(counts, argv):
    """Run ``argv`` (``-m module`` or a script, with its arguments) under
    ``trace``, pickle the ``(file, line) -> count`` of ``src/bien/`` to
    ``counts``, and exit with the status ``argv`` exited with, so that a
    failing tier-1 stops the audit."""
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _LibraryOnly()
    if argv[0] == "-m":
        sys.argv = argv[1:]
        run = functools.partial(runpy.run_module, argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        run = functools.partial(runpy.run_path, argv[0], run_name="__main__")
    status = 0
    try:
        tracer.runfunc(run)
    except SystemExit as exit:
        status = exit.code
    ran = {(str(Path(f).resolve()), line): n for (f, line), n in tracer.counts.items()}
    Path(counts).write_bytes(pickle.dumps(ran))
    sys.exit(status)


def _headers(path):
    """``(first line, last line, first line's text)`` of the header of
    every statement in ``path``."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield first, last, lines[node.lineno - 1].strip()


def main():
    runs = [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]]
    runs += [
        [str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed", "1993", "--child"]
        for w in WORKLOADS
    ]
    ran = set()
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts"
        for argv in runs:
            subprocess.run(
                [sys.executable, __file__, "--child", str(counts), *argv],
                check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
            )
            ran.update(key for key, n in pickle.loads(counts.read_bytes()).items() if n)
    for path in LIBRARY:
        for first, last, text in sorted(set(_headers(path))):
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                print(f"{path.name}:{first}  {text}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[3:])
    else:
        main()
