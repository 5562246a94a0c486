"""Decoding, span assembly, scoring, and the train/test experiment protocol."""

from __future__ import annotations

import concurrent.futures
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SplitPlan, TagSpan, split
from .errors import InvalidSpec
from .features import (
    build_gazetteer,
    default_lexicons,
    feature_cardinalities,
    featurize,
)
from .inference import Evidence, viterbi
from .learning import TrainConfig, make_examples, train
from .model import ROLE_BACKGROUND, build_model, compile_chain

# mask name per ablation; "no memory" flips the model structure instead
ABLATIONS = {
    "complete": (),
    "no lemma": ("lemma",),
    "no semantic": ("semantic",),
    "no length": ("length",),
    "no case": ("case",),
    "no memory": (),
}


def assemble_slots(tag_seq, tag_space):
    """Invert a tag sequence into field spans.

    Well-formed begin/inside*/end runs and singles map back exactly, so
    assembling an encoded gold sequence returns the gold spans. Ill-formed
    runs (possible on arbitrary input) are salvaged into spans rather than
    dropped, and counted in the returned diagnostics.
    """
    spans = []
    diagnostics = {"unterminated": 0, "orphan_inside": 0, "orphan_end": 0}
    open_run = None  # (field index, start token)

    def close(upto):
        fi, start = open_run
        spans.append(TagSpan(tag_space.fields[fi], start, upto))

    for t, tag in enumerate(np.asarray(tag_seq)):
        role = tag_space.role(tag)
        fi = tag_space.field_index(tag)
        if role == ROLE_BACKGROUND:
            if open_run is not None:
                close(t - 1)
                diagnostics["unterminated"] += 1
                open_run = None
        elif role == "begin":
            if open_run is not None:
                close(t - 1)
                diagnostics["unterminated"] += 1
            open_run = (fi, t)
        elif role == "inside":
            if open_run is None or open_run[0] != fi:
                if open_run is not None:
                    close(t - 1)
                    diagnostics["unterminated"] += 1
                diagnostics["orphan_inside"] += 1
                open_run = (fi, t)
        elif role == "end":
            if open_run is not None and open_run[0] == fi:
                close(t)
                open_run = None
            else:
                if open_run is not None:
                    close(t - 1)
                    diagnostics["unterminated"] += 1
                    open_run = None
                diagnostics["orphan_end"] += 1
                spans.append(TagSpan(tag_space.fields[fi], t, t))
        else:  # single
            if open_run is not None:
                close(t - 1)
                diagnostics["unterminated"] += 1
                open_run = None
            spans.append(TagSpan(tag_space.fields[fi], t, t))
    if open_run is not None:
        close(len(tag_seq) - 1)
        diagnostics["unterminated"] += 1
    return spans, diagnostics


@dataclass
class DecodeResult:
    tags: np.ndarray
    ds: np.ndarray
    score: float
    spans: list
    diagnostics: dict


def decode(chain, obs):
    """Viterbi-decode one observation matrix into tags, segments, and spans."""
    path, score = viterbi(chain, Evidence(np.asarray(obs)))
    tags = chain.tag_of[path]
    ds = chain.ds_of[path]
    spans, diagnostics = assemble_slots(tags, chain.model.tags)
    return DecodeResult(tags, ds, score, spans, diagnostics)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass
class FieldScore:
    produced: int = 0
    truth: int = 0
    correct: int = 0

    @property
    def precision(self):
        return self.correct / self.produced if self.produced else 0.0

    @property
    def recall(self):
        return self.correct / self.truth if self.truth else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def add(self, other):
        self.produced += other.produced
        self.truth += other.truth
        self.correct += other.correct


def slot_filler(doc, span):
    """A span's filler string, whitespace-normalized."""
    return " ".join(t.surface for t in doc.tokens[span.start_token : span.end_token + 1])


def score_documents(docs, predictions, fields, mode="slot"):
    """Tally produced/truth/correct per field over (gold document, spans) pairs.

    ``slot`` mode scores one answer per document and field: the field is
    credited when any predicted filler string matches any gold filler
    string in the document. ``occurrence`` mode counts every span and
    requires exact token boundaries.
    """
    if mode not in ("slot", "occurrence"):
        raise InvalidSpec(f"unknown match mode {mode!r}")
    scores = {f: FieldScore() for f in fields}
    for doc, spans in zip(docs, predictions, strict=True):
        for f in fields:
            gold = [s for s in doc.gold_spans if s.field == f]
            pred = [s for s in spans if s.field == f]
            tally = scores[f]
            if mode == "slot":
                tally.truth += bool(gold)
                tally.produced += bool(pred)
                if gold and pred:
                    truths = {slot_filler(doc, s) for s in gold}
                    tally.correct += any(slot_filler(doc, p) in truths for p in pred)
            else:
                tally.truth += len(gold)
                tally.produced += len(pred)
                gold_keys = {(s.start_token, s.end_token) for s in gold}
                tally.correct += sum(
                    1 for s in pred if (s.start_token, s.end_token) in gold_keys
                )
    return scores


def macro_f1(scores):
    return float(np.mean([s.f1 for s in scores.values()]))


# ---------------------------------------------------------------------------
# Experiment protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    fields: tuple = ("speaker", "location", "stime", "etime")
    mask: tuple = ()
    memory: bool = True
    plan: SplitPlan = SplitPlan()
    train: TrainConfig = TrainConfig()
    gazetteer_window: int = 3
    gazetteer_min_freq: int = 3
    gazetteer_max_size: int = 1200
    match_mode: str = "slot"


@dataclass
class RunResult:
    run: int
    scores: dict
    macro: float
    log_likelihood: list
    diagnostics: dict
    n_train: int
    n_test: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list
    model: object        # trained model of the final run
    gazetteer: object

    def mean(self, field_name, metric):
        return float(np.mean([getattr(r.scores[field_name], metric) for r in self.runs]))

    def mean_macro(self):
        return float(np.mean([r.macro for r in self.runs]))

    def summary(self):
        """Per-field averaged precision/recall/F1 plus the macro mean."""
        out = {}
        for f in self.config.fields:
            out[f] = {
                m: self.mean(f, m) for m in ("precision", "recall", "f1")
            }
        out["macro_f1"] = self.mean_macro()
        return out


def _run_one(cfg, lexicons, run_index, train_docs, test_docs):
    """Train and score a single split. Top level so process pools can use it."""
    gazetteer = build_gazetteer(
        train_docs,
        lexicons.lemma_table,
        window=cfg.gazetteer_window,
        min_freq=cfg.gazetteer_min_freq,
        max_size=cfg.gazetteer_max_size,
    )
    model = build_model(cfg.fields, feature_cardinalities(gazetteer), memory=cfg.memory)
    examples = make_examples(train_docs, gazetteer, lexicons, model, mask=cfg.mask)
    fitted = train(model, examples, cfg.train)
    chain = compile_chain(fitted.model)
    predictions = []
    diagnostics = {}
    for doc in test_docs:
        obs = featurize(doc, gazetteer, lexicons, mask=cfg.mask)
        result = decode(chain, obs)
        predictions.append(result.spans)
        for k, v in result.diagnostics.items():
            diagnostics[k] = diagnostics.get(k, 0) + v
    scores = score_documents(test_docs, predictions, cfg.fields, mode=cfg.match_mode)
    run = RunResult(
        run=run_index,
        scores=scores,
        macro=macro_f1(scores),
        log_likelihood=fitted.log_likelihood,
        diagnostics=diagnostics,
        n_train=len(train_docs),
        n_test=len(test_docs),
    )
    return run, fitted.model, gazetteer


def _run_variants(corpus, cfgs, jobs):
    """Run the protocol once per config. The configs share one split plan:
    the corpus is split once into the plan's holdout runs and the lexicons
    are loaded once, then every (config, run) pair trains and scores on its
    split. Results merge in config and run order, so the outcome is
    identical for any ``jobs``."""
    corpus = sorted(corpus, key=lambda d: d.id)
    pairs = split(corpus, cfgs[0].plan)
    lexicons = default_lexicons()
    tasks = [
        (cfg, lexicons, r, train_docs, test_docs)
        for cfg in cfgs
        for r, (train_docs, test_docs) in enumerate(pairs)
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(_run_one, *zip(*tasks)))
    else:
        outs = list(itertools.starmap(_run_one, tasks))
    n = len(pairs)
    results = []
    for i, cfg in enumerate(cfgs):
        runs, models, gazetteers = zip(*outs[i * n : (i + 1) * n])
        results.append(ExperimentResult(cfg, list(runs), models[-1], gazetteers[-1]))
    return results


def run_experiment(corpus, cfg, jobs=1):
    """The full protocol: split the corpus into the plan's holdout runs;
    per run, build the gazetteer from the training side only, train,
    decode the test side, and score."""
    return _run_variants(corpus, [cfg], jobs)[0]


def run_ablations(corpus, cfg, jobs=1, variants=None):
    """The feature/structure ablation grid, all variants on one split."""
    names = list(variants or ABLATIONS)
    cfgs = [
        replace(cfg, mask=ABLATIONS[name], memory=(name != "no memory")) for name in names
    ]
    return dict(zip(names, _run_variants(corpus, cfgs, jobs)))


def learning_curve(corpus, cfg, fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), jobs=1):
    """Mean precision/recall (averaged over fields and runs) per train fraction."""
    points = []
    for frac in fractions:
        variant = replace(cfg, plan=replace(cfg.plan, train_fraction=frac))
        result = run_experiment(corpus, variant, jobs=jobs)
        avg_p = float(np.mean([result.mean(f, "precision") for f in cfg.fields]))
        avg_r = float(np.mean([result.mean(f, "recall") for f in cfg.fields]))
        points.append((float(frac), avg_p, avg_r))
    return points


# ---------------------------------------------------------------------------
# Learned-transition report
# ---------------------------------------------------------------------------

def stationary_ds(ds_trans):
    """Stationary distribution of the two-state segment chain."""
    p01, p10 = float(ds_trans[0, 1]), float(ds_trans[1, 0])
    if p01 + p10 <= 0:
        return np.array([0.5, 0.5])
    return np.array([p10 / (p01 + p10), p01 / (p01 + p10)])


@dataclass
class CptReport:
    fields: tuple
    rows: tuple          # "none" plus one row label per field
    matrix: np.ndarray   # (F+1, F): P(next extracted field | last extracted field)


def report_cpt(model):
    """Summarize learned background transitions as field-to-field movement.

    Rows condition on the last extracted field (or none); columns give the
    probability that the next extracted field is each candidate, i.e. the
    begin-or-single mass leaving a background token, renormalized over
    fields and averaged over segments by their stationary weight.
    """
    tags = model.tags
    F = len(tags.fields)
    pi = stationary_ds(model.cpts["ds_trans"].table)
    table = model.cpts["tag_trans"].table  # (tag_prev, lt, ds, tag)
    matrix = np.zeros((F + 1, F))
    lt_values = range(F + 1) if model.memory else [0] * (F + 1)
    for row, lt in enumerate(lt_values):
        for j in range(F):
            mass = 0.0
            for ds in (0, 1):
                mass += pi[ds] * (
                    table[tags.background, lt, ds, tags.begin(j)]
                    + table[tags.background, lt, ds, tags.single(j)]
                )
            matrix[row, j] = mass
        total = matrix[row].sum()
        if total > 0:
            matrix[row] /= total
    return CptReport(tags.fields, ("none",) + tags.fields, matrix)
