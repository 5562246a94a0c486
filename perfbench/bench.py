"""Workloads, measurement loop and correctness checks of the bien benchmark.

Three workloads drive the library through its public calls, single
process and with ``jobs=1``:

* ``experiment`` - the paper's 5-run holdout protocol (``run_experiment``);
* ``ablation``   - the six-variant feature/memory grid on one split
  (``run_ablations``);
* ``extract``    - a model trained in set-up extracts an unseen stream one
  document at a time (closed loop, one client).

After the timed job of ``experiment`` and ``ablation``, an untimed probe
has the trained models extract an unseen set, so that every workload
reports every extraction figure.

A run makes a fixed number of repeats. Each repeat is a fresh Python
interpreter that sets the workload up and runs its job once, on the same
inputs as every other repeat, so no repeat sees memos or caches that an
earlier repeat left behind and all of them must predict alike. The repeat
count depends on ``--seconds`` only, never on how fast the program is, so
two commits are measured by the same estimator.

Every time is taken at reference speed (see ``speed``): a probe samples
the machine's speed all through the repeat, and each span - set-up, job,
one document's extraction - is divided by the slowdown measured around
it. A run reports the median over its repeats of set-up and job time, and
the throughput and latency percentiles over the documents of each one's
median latency over the repeats: a preemption of the process that lands
on a few documents in one repeat is left out, while a document that is
slow in every repeat counts in full.

``run`` returns the result object the command prints last plus a report
that carries what the metrics alone cannot: the environment, the
prediction digest, the error counts and the per-repeat figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from bien import evaluation, features, learning, model, synth
from bien.corpus import SplitPlan, parse_tagged_document

from speed import SpeedProbe
from tracing import SITES, Tracer

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1993

# One repeat of any workload (interpreter start, set-up and job) takes
# about REPEAT_S seconds on the unmodified program on a 2-vCPU x86-64
# machine with Python 3.11.7 and numpy 2.4.6. A run makes
# round(seconds / REPEAT_S) repeats, at least MIN_REPEATS for the
# correctness check; a traced run makes one untraced and one traced repeat.
REPEAT_S = 11.0
MIN_REPEATS = 2

# Every child must have ended within RUN_BUDGET_S of the run's start.
RUN_BUDGET_S = 170.0

# A document's slowdown is measured over this many seconds either side of it.
DOC_SPEED_PAD_S = 0.5

# Every 100th stream document is degenerate, cycling through these texts.
DEGENERATE_EVERY = 100
DEGENERATE_TEXTS = ("", " \n\t \n", "-- ... --\n*** !!! ***\n")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "macro_f1": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "extract_tokens_per_s": "tokens/s",
    "extract_doc_ms_p50": "ms",
    "extract_doc_ms_p99": "ms",
}

PER_LAYER = {
    "features.featurize_s": "s",
    "features.featurize_calls": "count",
    "features.featurize_tokens_per_s": "tokens/s",
    "features.gazetteer_s": "s",
    "features.gazetteer_size": "count",
    "features.lexicons_s": "s",
    "features.lexicons_calls": "count",
    "resources.load_s": "s",
    "resources.load_calls": "count",
    "learning.train_s": "s",
    "learning.em_iterations": "count",
    "learning.train_s_per_iter": "s",
    "learning.converged_runs": "count",
    "learning.pad_efficiency": "ratio",
    "learning.make_examples_self_s": "s",
    "inference.viterbi_s": "s",
    "inference.viterbi_tokens_per_s": "tokens/s",
    "evaluation.decode_self_s": "s",
    "evaluation.score_s": "s",
    "model.compile_chain_s": "s",
    "model.n_states": "count",
    "corpus.split_s": "s",
    "corpus.split_calls": "count",
    "synth.generate_s": "s",
    "evaluation.f1.speaker": "ratio",
    "evaluation.f1.location": "ratio",
    "evaluation.f1.stime": "ratio",
    "evaluation.f1.etime": "ratio",
    "evaluation.unterminated": "count",
    "evaluation.orphan_inside": "count",
    "evaluation.orphan_end": "count",
    "trace.overhead_s": "s",
}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Sizes:
    docs: int = 485      # training / protocol corpus
    stream: int = 1200   # extract stream, degenerate documents included
    probe: int = 800     # unseen probe set of experiment and ablation


# ---------------------------------------------------------------------------
# Extraction, one document at a time
# ---------------------------------------------------------------------------

@dataclass
class Extraction:
    """One closed-loop pass: a document goes in when the previous returns."""

    attempted: int = 0
    errors: Counter = field(default_factory=Counter)  # exception type -> count
    doc_marks: list = field(default_factory=list)  # per document; None if it failed
    doc_tokens: list = field(default_factory=list)
    loop_marks: tuple = ()
    predictions: list = field(default_factory=list)   # spans per document
    diagnostics: Counter = field(default_factory=Counter)


def extract_documents(docs, gazetteer, lexicons, chain, probe, mask=(), out=None):
    """Featurize and decode each document, noting ``probe`` marks around
    it; a raising document is counted, gets no spans, and the loop goes on.
    Adds to ``out`` when given."""
    out = Extraction() if out is None else out
    start = probe.mark()
    for doc in docs:
        out.attempted += 1
        out.doc_tokens.append(len(doc.tokens))
        a = probe.mark()
        try:
            obs = features.featurize(doc, gazetteer, lexicons, mask=mask)
            decoded = evaluation.decode(chain, obs)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed document
            out.errors[type(exc).__name__] += 1
            out.doc_marks.append(None)
            out.predictions.append([])
            continue
        out.doc_marks.append((a, probe.mark()))
        out.predictions.append(decoded.spans)
        out.diagnostics.update(decoded.diagnostics)
    out.loop_marks = (start, probe.mark())
    return out


def make_stream(n_docs, seed):
    """``n_docs`` documents: every DEGENERATE_EVERY-th one, from the first
    on, is degenerate, and the others come from ``generate_corpus(.., seed)``."""
    slots = range(0, n_docs, DEGENERATE_EVERY)
    generated = iter(synth.generate_corpus(n_docs - len(slots), seed))
    stream = []
    for i in range(n_docs):
        if i % DEGENERATE_EVERY:
            stream.append(next(generated))
            continue
        k = i // DEGENERATE_EVERY
        text = DEGENERATE_TEXTS[k % len(DEGENERATE_TEXTS)]
        stream.append(parse_tagged_document(text, doc_id=f"degenerate{k:04d}")[0])
    return stream


# ---------------------------------------------------------------------------
# Workloads: set-up and timed job
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one repeat of a workload's job produced."""

    marks: tuple          # probe marks around the timed job
    attempted: int
    errors: Counter
    macro_f1: float | None = None
    f1: dict = field(default_factory=dict)
    diagnostics: Counter = field(default_factory=Counter)
    digest: str | None = None
    extraction: Extraction | None = None


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _span_rows(docs, predictions):
    return [
        [doc.id, s.field, s.start_token, s.end_token]
        for doc, spans in zip(docs, predictions)
        for s in spans
    ]


@dataclass
class Inputs:
    corpus: list
    lexicons: object
    stream: list          # unseen documents: the probe, or the extract stream
    fingerprint: str      # digest of the generated texts; repeats must agree
    gazetteer: object = None   # extract only: the trained model
    chain: object = None


def setup_protocol(seed, sizes):
    """Corpus generation and lexicon load, plus the unseen probe set."""
    corpus = synth.generate_corpus(sizes.docs, seed)
    lexicons = features.default_lexicons()
    probe = synth.generate_corpus(sizes.probe, seed + 1)
    return Inputs(corpus, lexicons, probe, _digest([d.text for d in corpus + probe]))


def setup_extract(seed, sizes):
    """Corpus generation and lexicon load, then train on the whole corpus,
    compile the chain and generate the disjoint stream."""
    corpus = synth.generate_corpus(sizes.docs, seed)
    lexicons = features.default_lexicons()
    cfg = evaluation.ExperimentConfig()
    gazetteer = features.build_gazetteer(
        corpus,
        lexicons.lemma_table,
        window=cfg.gazetteer_window,
        min_freq=cfg.gazetteer_min_freq,
        max_size=cfg.gazetteer_max_size,
    )
    fresh = model.build_model(
        cfg.fields, features.feature_cardinalities(gazetteer), memory=cfg.memory
    )
    examples = learning.make_examples(corpus, gazetteer, lexicons, fresh, mask=cfg.mask)
    fitted = learning.train(fresh, examples, cfg.train)
    chain = model.compile_chain(fitted.model)
    stream = make_stream(sizes.stream, seed + 1)
    return Inputs(corpus, lexicons, stream, _digest([d.text for d in corpus + stream]),
                  gazetteer=gazetteer, chain=chain)


def _protocol_job(inputs, speed, runs, call):
    """Time ``call()``, which returns ``{variant: ExperimentResult}`` and
    does ``runs`` holdout runs; then the untimed probe: the unseen probe
    set is dealt round-robin to the variants' final models, each with its
    variant's mask."""
    start = speed.mark()
    try:
        results = call()
    except Exception as exc:  # noqa: BLE001 - a raising job counts its runs failed
        return Outcome(marks=(start, speed.mark()), attempted=runs,
                       errors=Counter({type(exc).__name__: runs}))
    marks = (start, speed.mark())
    done = [r for res in results.values() for r in res.runs]
    fields = next(iter(results.values())).config.fields
    diagnostics = Counter()
    for r in done:
        diagnostics.update(r.diagnostics)
    probe, probe_docs = Extraction(), []
    for i, res in enumerate(results.values()):
        docs = inputs.stream[i :: len(results)]
        chain = model.compile_chain(res.model)
        extract_documents(docs, res.gazetteer, inputs.lexicons, chain, speed,
                          mask=res.config.mask, out=probe)
        probe_docs += docs
    tallies = [
        [name, [[f, s.produced, s.truth, s.correct] for f, s in r.scores.items()]]
        for name, res in results.items()
        for r in res.runs
    ]
    return Outcome(
        marks=marks,
        attempted=len(done) + probe.attempted,
        errors=probe.errors,
        macro_f1=float(np.mean([res.mean_macro() for res in results.values()])),
        f1={f: float(np.mean([res.mean(f, "f1") for res in results.values()]))
            for f in fields},
        diagnostics=diagnostics,
        digest=_digest({
            "tallies": tallies,
            "diagnostics": diagnostics,
            "probe": _span_rows(probe_docs, probe.predictions),
            "probe_errors": probe.errors,
        }),
        extraction=probe,
    )


def job_experiment(inputs, speed):
    cfg = evaluation.ExperimentConfig()
    return _protocol_job(
        inputs, speed, cfg.plan.runs,
        lambda: {"complete": evaluation.run_experiment(inputs.corpus, cfg, jobs=1)},
    )


def job_ablation(inputs, speed):
    cfg = replace(evaluation.ExperimentConfig(), plan=SplitPlan(runs=1))
    return _protocol_job(
        inputs, speed, len(evaluation.ABLATIONS),
        lambda: evaluation.run_ablations(inputs.corpus, cfg, jobs=1),
    )


def job_extract(inputs, speed):
    cfg = evaluation.ExperimentConfig()
    stream = inputs.stream
    got = extract_documents(stream, inputs.gazetteer, inputs.lexicons, inputs.chain,
                            speed)
    scores = evaluation.score_documents(stream, got.predictions, cfg.fields,
                                        mode=cfg.match_mode)
    return Outcome(
        marks=got.loop_marks,
        attempted=got.attempted,
        errors=got.errors,
        macro_f1=evaluation.macro_f1(scores),
        f1={f: scores[f].f1 for f in cfg.fields},
        diagnostics=got.diagnostics,
        digest=_digest({"spans": _span_rows(stream, got.predictions),
                        "errors": got.errors}),
        extraction=got,
    )


WORKLOADS = {
    "experiment": (setup_protocol, job_experiment),
    "ablation": (setup_protocol, job_ablation),
    "extract": (setup_extract, job_extract),
}


# ---------------------------------------------------------------------------
# One repeat, in the interpreter that calls it
# ---------------------------------------------------------------------------

def latency_figures(doc_ms, doc_tokens):
    """Latency percentiles and throughput over the documents that did not
    fail (latency None); None where no document succeeded."""
    ok = [(ms, n) for ms, n in zip(doc_ms, doc_tokens) if ms is not None]
    if not ok:
        return {"samples": 0, "p50_ms": None, "p99_ms": None, "tokens_per_s": None}
    ms = [m for m, _ in ok]
    return {
        "samples": len(ok),
        "p50_ms": float(np.percentile(ms, 50)),
        "p99_ms": float(np.percentile(ms, 99)),
        "tokens_per_s": sum(n for _, n in ok) / sum(ms) * 1000.0,
    }


def repeat(workload, seed, sizes, traced=False):
    """Set ``workload`` up and run its job once; returns (record, spans).

    The record is JSON-ready. ``spans`` is the traced pass's span list, or
    None when untraced.
    """
    setup, job = WORKLOADS[workload]
    tracer = Tracer() if traced else contextlib.nullcontext()
    with SpeedProbe() as speed, tracer:
        t0 = speed.mark()
        inputs = setup(seed, sizes)
        t1 = speed.mark()
        outcome = job(inputs, speed)
        t2 = speed.mark()
    got = outcome.extraction
    doc_ms = [
        None if m is None else speed.reference_s(*m, pad=DOC_SPEED_PAD_S) * 1000.0
        for m in (got.doc_marks if got else [])
    ]
    record = {
        "setup_s": speed.reference_s(t0, t1),
        "wall_s": speed.reference_s(*outcome.marks),
        "total_s": speed.reference_s(t0, t2),
        "raw_s": {"setup": t1[0] - t0[0], "wall": outcome.marks[1][0] - outcome.marks[0][0],
                  "total": t2[0] - t0[0]},
        "speed": speed.summary(),
        "fingerprint": inputs.fingerprint,
        "attempted": outcome.attempted,
        "errors": dict(outcome.errors),
        "macro_f1": outcome.macro_f1,
        "f1": outcome.f1,
        "diagnostics": dict(outcome.diagnostics),
        "digest": outcome.digest,
        "doc_ms": doc_ms,
        "doc_tokens": got.doc_tokens if got else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not traced:
        return record, None
    summary = tracer.summary()
    record["trace"] = {
        "spans": summary,
        "missing_spans": sorted({s.span for s in SITES} - set(summary)),
        "unwrapped_sites": tracer.unwrapped,
        "count_errors": tracer.count_errors,
    }
    return record, tracer.dump()


def spawn(workload, seed, sizes, traced, deadline):
    """Run one repeat in a fresh interpreter; returns (record, failure).

    The child is waited for, and killed when it outlives ``deadline``.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--child", "--sizes", f"{sizes.docs},{sizes.stream},{sizes.probe}"]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def repeat_count(seconds):
    return max(MIN_REPEATS, round(seconds / REPEAT_S))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def median_latencies(records):
    """Each document's median latency over the repeats; None for a
    document that failed in any of them."""
    rows = zip(*(r["doc_ms"] for r in records))
    return [None if None in row else statistics.median(row) for row in rows]


def end_to_end_metrics(records, error_rate):
    """Medians over the repeats; extraction figures over the documents'
    median latencies. Returns (metrics, those latency figures)."""
    latency = latency_figures(median_latencies(records), records[0]["doc_tokens"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "macro_f1": records[0]["macro_f1"],
        "success_rate": 1.0 - error_rate,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "extract_tokens_per_s": latency["tokens_per_s"],
        "extract_doc_ms_p50": latency["p50_ms"],
        "extract_doc_ms_p99": latency["p99_ms"],
    }
    return {k: _metric(values[k], u) for k, u in END_TO_END.items()}, latency


def per_layer_metrics(summary, record, overhead_s):
    # a span that was never entered reads 0; the report names it as missing
    def get(span, key="total_s"):
        return summary.get(span, {}).get(key, 0.0)

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = get("learning.train", "iterations")
    diagnostics = record["diagnostics"]
    values = {
        "features.featurize_s": get("features.featurize"),
        "features.featurize_calls": calls("features.featurize"),
        "features.featurize_tokens_per_s": ratio(
            get("features.featurize", "tokens"), get("features.featurize")),
        "features.gazetteer_s": get("features.gazetteer"),
        "features.gazetteer_size": ratio(
            get("features.gazetteer", "size"), calls("features.gazetteer")),
        "features.lexicons_s": get("features.lexicons"),
        "features.lexicons_calls": calls("features.lexicons"),
        "resources.load_s": get("resources.load"),
        "resources.load_calls": calls("resources.load"),
        "learning.train_s": get("learning.train"),
        "learning.em_iterations": iterations,
        "learning.train_s_per_iter": ratio(get("learning.train"), iterations),
        "learning.converged_runs": get("learning.train", "converged"),
        "learning.pad_efficiency": ratio(
            get("learning.train", "pad_tokens"), get("learning.train", "pad_cells")),
        "learning.make_examples_self_s": get("learning.make_examples", "self_s"),
        "inference.viterbi_s": get("inference.viterbi"),
        "inference.viterbi_tokens_per_s": ratio(
            get("inference.viterbi", "tokens"), get("inference.viterbi")),
        "evaluation.decode_self_s": get("evaluation.decode", "self_s"),
        "evaluation.score_s": get("evaluation.score"),
        "model.compile_chain_s": get("model.compile_chain"),
        "model.n_states": ratio(
            get("model.compile_chain", "n_states"), calls("model.compile_chain")),
        "corpus.split_s": get("corpus.split"),
        "corpus.split_calls": calls("corpus.split"),
        "synth.generate_s": get("synth.generate"),
        "evaluation.unterminated": diagnostics.get("unterminated", 0),
        "evaluation.orphan_inside": diagnostics.get("orphan_inside", 0),
        "evaluation.orphan_end": diagnostics.get("orphan_end", 0),
        "trace.overhead_s": overhead_s,
    }
    for f in ("speaker", "location", "stime", "etime"):
        values[f"evaluation.f1.{f}"] = record["f1"].get(f, 0.0)
    return {k: _metric(values[k], u) for k, u in PER_LAYER.items()}


def environment(seed, sizes):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "corpus_docs": sizes.docs,
        "stream_docs": sizes.stream,
        "probe_docs": sizes.probe,
    }


# ---------------------------------------------------------------------------
# The measuring run
# ---------------------------------------------------------------------------

def _checks(records, failures):
    """Every repeat, traced or not, scores and predicts alike on identical
    inputs, and some document was extracted."""
    return {
        "repeats_ran": not failures,
        "job_completed": any(r["digest"] is not None for r in records),
        "extracted": any(m is not None for r in records for m in r["doc_ms"]),
        "same_inputs": len({r["fingerprint"] for r in records}) == 1,
        "same_macro_f1": len({r["macro_f1"] for r in records}) == 1,
        "same_digest": len({r["digest"] for r in records}) == 1,
    }


def summarise(workload, seed, sizes, trace, records, failures=()):
    """The result and report of a run from its repeats' records.

    Untraced: the end-to-end metrics of all records. Traced: the records
    are an untraced and a traced repeat, and the per-layer metrics come
    from the traced one.
    """
    report = {"workload": workload, "trace": bool(trace),
              "environment": environment(seed, sizes), "failures": list(failures)}
    checks = _checks(records, failures)
    metrics = {}
    if records and checks["repeats_ran"]:
        attempted = sum(r["attempted"] for r in records)
        failed = sum(sum(r["errors"].values()) for r in records)
        if trace:
            plain, traced = records
            info = traced["trace"]
            overhead_s = traced["total_s"] - plain["total_s"]
            metrics = per_layer_metrics(info["spans"], traced, overhead_s)
            report.update(info, trace_overhead_s=overhead_s)
        else:
            metrics, latency = end_to_end_metrics(records, failed / attempted)
            report.update({
                "latency": latency,
                "setup_s": [r["setup_s"] for r in records],
                "passes": [latency_figures(r["doc_ms"], r["doc_tokens"]) for r in records],
            })
        errors = Counter()
        for r in records:
            errors.update(r["errors"])
        report.update({
            "repeats": len(records),
            "wall_s": [r["wall_s"] for r in records],
            "raw_s": [r["raw_s"] for r in records],
            "speed": [r["speed"] for r in records],
            "digest": records[0]["digest"],
            "error_rate": failed / attempted,
            "errors": dict(errors),
        })
    else:
        attempted, failed = max(1, len(failures)), max(1, len(failures))
    report["checks"] = checks
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def run(workload, seed=DEFAULT_SEED, seconds=33.0, trace=False, sizes=Sizes()):
    """Measure ``workload``: a fixed number of repeats, each in a fresh
    interpreter (see the module docstring); returns (result, report)."""
    modes = [False, True] if trace else [False] * repeat_count(seconds)
    deadline = time.monotonic() + RUN_BUDGET_S
    records, failures = [], []
    for traced in modes:
        record, failure = spawn(workload, seed, sizes, traced, deadline)
        if failure is not None:
            failures.append(failure)
            break
        records.append(record)
    return summarise(workload, seed, sizes, trace, records, failures)
