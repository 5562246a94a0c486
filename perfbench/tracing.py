"""Spans around the calls one bien layer makes into another.

A :class:`Tracer` replaces module-level names (for example
``bien.evaluation.viterbi``, the name ``decode`` looks up at call time)
with wrappers that record one span per call: name, start, end, parent
span and optional counts taken from the arguments and the result. The
original names are restored on exit, so tracing never outlives the
``with`` block that installed it.

A site whose module or attribute no longer exists is skipped, and a span
that is never entered is reported as missing, so a later refactor that
stops calling through a name degrades the trace instead of crashing it.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


def _doc_tokens(args, kwargs, result):
    return {"tokens": len(args[0].tokens)}


def _docs_tokens(args, kwargs, result):
    return {"tokens": sum(len(d.tokens) for d in args[0])}


def _seq_tokens(args, kwargs, result):
    return {"tokens": len(args[1])}


def _gazetteer_size(args, kwargs, result):
    return {"size": len(result)}


def _chain_states(args, kwargs, result):
    return {"n_states": result.n_states}


def _train_counts(args, kwargs, result):
    lengths = [len(ex.tags) for ex in args[1]]
    return {
        "iterations": result.iterations,
        "converged": int(bool(result.converged)),
        "pad_tokens": sum(lengths),
        "pad_cells": len(lengths) * max(lengths),
    }


@dataclass(frozen=True)
class Site:
    """One module-level name to wrap, the span it records, and its counter."""

    module: str
    attr: str
    span: str
    count: Callable | None = None


# The names bien.evaluation and bien.learning call other layers through,
# plus the defining modules' names that the benchmark itself calls.
SITES = (
    Site("bien.synth", "generate_corpus", "synth.generate"),
    Site("bien.evaluation", "split", "corpus.split"),
    Site("bien.evaluation", "default_lexicons", "features.lexicons"),
    Site("bien.features", "default_lexicons", "features.lexicons"),
    Site("bien.resources", "load_wordlist", "resources.load"),
    Site("bien.resources", "load_ranked", "resources.load"),
    Site("bien.resources", "load_lemma_table", "resources.load"),
    Site("bien.evaluation", "build_gazetteer", "features.gazetteer", _gazetteer_size),
    Site("bien.features", "build_gazetteer", "features.gazetteer", _gazetteer_size),
    Site("bien.evaluation", "featurize", "features.featurize", _doc_tokens),
    Site("bien.learning", "featurize", "features.featurize", _doc_tokens),
    Site("bien.features", "featurize", "features.featurize", _doc_tokens),
    Site("bien.evaluation", "make_examples", "learning.make_examples", _docs_tokens),
    Site("bien.learning", "make_examples", "learning.make_examples", _docs_tokens),
    Site("bien.evaluation", "train", "learning.train", _train_counts),
    Site("bien.learning", "train", "learning.train", _train_counts),
    Site("bien.evaluation", "compile_chain", "model.compile_chain", _chain_states),
    Site("bien.model", "compile_chain", "model.compile_chain", _chain_states),
    Site("bien.evaluation", "decode", "evaluation.decode", _seq_tokens),
    Site("bien.evaluation", "viterbi", "inference.viterbi", _seq_tokens),
    Site("bien.evaluation", "score_documents", "evaluation.score", _docs_tokens),
)


class Tracer:
    """Installs the wrappers of ``SITES`` for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, counts]
        self.count_errors = {}   # span name -> repr of the counter's exception
        self.unwrapped = []      # "module.attr" of sites that do not exist
        self._stack = []
        self._saved = []

    def __enter__(self):
        for site in SITES:
            try:
                module = importlib.import_module(site.module)
                original = getattr(module, site.attr)
            except (ImportError, AttributeError):
                self.unwrapped.append(f"{site.module}.{site.attr}")
                continue
            self._saved.append((module, site.attr, original))
            setattr(module, site.attr, self._wrap(site, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, site, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [site.span, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if site.count is not None:
                # a signature change in a later version must not break the run
                try:
                    record[4] = site.count(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - recorded and reported
                    self.count_errors[site.span] = repr(exc)
            return result

        return traced

    def summary(self):
        """Per span name: calls, inclusive and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self):
        """The spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "counts": c}
            for n, s, e, p, c in self.spans
        ]
