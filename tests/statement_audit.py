"""Which code of ``src/bien/`` the benchmark jobs and tier-1 never run.

Run from the root of a checkout:

    python3 tests/statement_audit.py

It runs one repeat of each workload that ``BENCHMARK.json`` names (seed
1993, ``jobs=1``), then prints every function of ``src/bien/`` whose
first statement (not its docstring, nor a ``global`` or ``nonlocal``
declaration) none of them ran, as ``module.Class.name``: functions that
only tests call, and error paths and dunders that the jobs do not reach.
It then runs tier-1 (``pytest`` over ``tests`` and ``perfbench``) and
prints every statement of ``src/bien/`` that neither run reached, as
``module.py:line`` and its first line. A statement ran if any line of
its header ran: the whole of a simple statement, the lines before the
body of a compound one (with its decorators). Docstrings and ``global``
and ``nonlocal`` declarations compile to nothing and are not statements.

Each run is a child interpreter under the stdlib ``trace`` module,
counting the lines run in ``src/bien/`` only, so code that only worker
processes run (``jobs > 1``) counts as not run. A failing child, such as
a failing tier-1, stops the audit with its exit status. On 2 shared
vCPUs the function list comes after about 25 seconds and the statement
list four and a half minutes later.
"""

import ast
import functools
import json
import pickle
import runpy
import subprocess
import sys
import tempfile
import trace
from pathlib import Path

from test_callers import LIBRARY, ROOT, _definitions

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


def _first_line(node):
    """The line of a function's first statement that runs: not its
    docstring, nor a ``global`` or ``nonlocal`` declaration."""
    body = node.body
    if len(body) > 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    while isinstance(body[0], (ast.Global, ast.Nonlocal)):
        body = body[1:]
    return body[0].lineno


def unentered(paths, ran):
    """Qualified names of the functions of ``paths`` whose first statement
    is not in ``ran``, a set of ``(file, line)``."""
    return [qualified for path in paths for qualified, node, _ in _definitions(path)
            if (str(path), _first_line(node)) not in ran]


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


def _traced(counts, argv):
    """The ``(file, line)`` of ``src/bien/`` that ``argv`` ran in a child."""
    subprocess.run([sys.executable, __file__, "--child", str(counts), *argv],
                   check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return {key for key, n in pickle.loads(counts.read_bytes()).items() if n}


def main():
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ran = set()
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts"
        for workload in workloads:
            ran |= _traced(counts, [str(ROOT / "perfbench" / "run.py"), "--workload",
                                    workload["name"], "--seed", "1993", "--child"])
        for qualified in unentered(LIBRARY, ran):
            print(qualified, flush=True)
        ran |= _traced(counts, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors"])
    for path in LIBRARY:
        for first, last, text in sorted(set(_headers(path))):
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                print(f"{path.name}:{first}  {text}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[3:])
    else:
        main()
