"""Decoding, span assembly, scoring, and the train/test experiment protocol."""

from __future__ import annotations

import concurrent.futures
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .corpus import DEFAULT_FIELDS, SplitPlan, TagSpan, split
from .errors import InvalidSpec, check_array, check_int, check_sequence, check_type
# featurize stays importable here for the benchmark's tracer (perfbench/tracing.py)
from .features import (  # noqa: F401
    build_gazetteer,
    check_gazetteer_settings,
    default_lexicons,
    feature_cardinalities,
    featurize,
    featurize_docs,
    mask_columns,
)
from .inference import Evidence, viterbi, viterbi_batch
from .learning import TrainConfig, check_increasing_ids, make_examples, pack, train
from .model import (
    ROLE_BEGIN,
    ROLE_END,
    ROLE_INSIDE,
    CompiledChain,
    ObservationRows,
    build_model,
    compile_chain,
    number_observations,
)

# The ablation grid: each variant's mask and memory structure, the
# ExperimentConfig fields that replace the base config's. Every run reads
# these rows, so they are never written.
ABLATIONS = {
    "complete": dict(mask=(), memory=True),
    "no lemma": dict(mask=("lemma",), memory=True),
    "no semantic": dict(mask=("semantic",), memory=True),
    "no length": dict(mask=("length",), memory=True),
    "no case": dict(mask=("case",), memory=True),
    "no memory": dict(mask=(), memory=False),
}


def assemble_slots(tag_seq, tag_space):
    """Invert a tag sequence into field spans.

    Well-formed begin/inside*/end runs and singles map back exactly, so
    assembling an encoded gold sequence returns the gold spans. Ill-formed
    runs (possible on arbitrary input) are salvaged into spans rather than
    dropped, and counted in the returned diagnostics. A labelled tag that
    is not an integer of ``tag_space``, or a ``tag_seq`` that is not 1-D,
    raises :class:`InvalidSpec`.
    """
    fields = tag_space.fields
    spans = []
    diagnostics = {"unterminated": 0, "orphan_inside": 0, "orphan_end": 0}
    open_run = None  # (field index, start token)
    tags = check_array(f"tags must be 1-D integers in 0 .. {tag_space.size - 1}", tag_seq,
                       lambda a: a.ndim == 1)
    labelled = np.flatnonzero(tags != tag_space.background)
    values = tags[labelled].tolist()
    if values and (
        tags.dtype.kind not in "iu" or min(values) < 0 or max(values) >= tag_space.size
    ):
        raise InvalidSpec(
            f"tags must be integers in 0 .. {tag_space.size - 1}, got {sorted(set(values))}"
        )
    last = None  # the labelled token before t

    def close_open_run():
        spans.append(TagSpan(fields[open_run[0]], open_run[1], last))
        diagnostics["unterminated"] += 1

    # only labelled tokens are visited: a background token between two of
    # them, or after the last, closes a run left open
    role_of, field_index_of = tag_space.role_of, tag_space.field_index_of
    for t, tag in zip(labelled.tolist(), values):
        role, fi = role_of[tag], field_index_of[tag]
        if open_run is not None:
            if t == last + 1 and open_run[0] == fi and role in (ROLE_INSIDE, ROLE_END):
                if role == ROLE_END:
                    spans.append(TagSpan(fields[fi], open_run[1], t))
                    open_run = None
                last = t
                continue
            close_open_run()
            open_run = None
        # an inside or end tag that reaches here continues no open run
        if role == ROLE_INSIDE:
            diagnostics["orphan_inside"] += 1
        elif role == ROLE_END:
            diagnostics["orphan_end"] += 1
        if role in (ROLE_BEGIN, ROLE_INSIDE):
            open_run = (fi, t)
        else:  # end or single: a one-token span
            spans.append(TagSpan(fields[fi], t, t))
        last = t
    if open_run is not None:
        close_open_run()
    return spans, diagnostics


@dataclass
class DecodeResult:
    tags: np.ndarray
    ds: np.ndarray
    score: float
    spans: list
    diagnostics: dict


def _decode_result(chain, path, score):
    tags = chain.tag_of[path]
    spans, diagnostics = assemble_slots(tags, chain.model.tags)
    return DecodeResult(tags, chain.ds_of[path], score, spans, diagnostics)


def decode(chain, obs):
    """Viterbi-decode one observation matrix into tags, segments, and spans.
    An ``obs`` that is not an integer ``(T, K)`` matrix of the chain's
    codes raises :class:`InvalidSpec` (:func:`bien.model.check_observations`)."""
    return _decode_result(chain, *viterbi(chain, Evidence(obs)))


def decode_batch(chain, numbered):
    """``decode`` for the observation matrices of ``numbered``
    (:class:`~bien.model.ObservationRows`): one ``DecodeResult`` per matrix,
    in order, identical to what ``decode`` returns for it. Each distinct row
    is scored once (a holdout test side of ``generate_corpus(485, 1993)``
    has 271 among its 11,435 tokens). Anything but a
    :class:`~bien.model.CompiledChain` for ``chain`` or an
    :class:`~bien.model.ObservationRows` for ``numbered``, and a row that
    does not fit the chain, raise :class:`InvalidSpec`."""
    check_type("chain", chain, CompiledChain)
    check_type("numbered", numbered, ObservationRows)
    decoded = viterbi_batch(
        chain, chain.log_emission(numbered.table), numbered.rows, numbered.lengths
    )
    return [_decode_result(chain, path, score) for path, score in decoded]


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


MATCH_MODES = ("slot", "occurrence")


def check_match_mode(mode):
    """Raise :class:`InvalidSpec` unless ``mode`` is one of :data:`MATCH_MODES`."""
    if mode not in MATCH_MODES:
        raise InvalidSpec(f"unknown match mode {mode!r}")


def _by_field(spans):
    """``spans`` grouped by field, in order: a dict of lists."""
    out = {}
    for span in spans:
        out.setdefault(span.field, []).append(span)
    return out


def score_documents(docs, predictions, fields, mode="slot"):
    """Tally produced/truth/correct per field over (gold document, spans) pairs.

    ``slot`` mode scores one answer per document and field: the field is
    credited when any predicted filler string matches any gold filler
    string in the document. ``occurrence`` mode counts every span and
    requires exact token boundaries. Before any tally, a prediction that
    is not a sequence of :class:`~bien.corpus.TagSpan` (a ``str`` is
    not), or that holds a span ending past its document, raises
    :class:`InvalidSpec` naming the document, in either mode, as does
    anything but a sequence for ``docs``, ``predictions`` or ``fields``,
    and a field that ``fields`` names twice.

    Each document's gold and predicted spans are grouped by field in one
    pass each. A slot whose predicted and gold spans share their token
    bounds is credited at once, since their fillers are equal; only
    otherwise are filler strings built, the tokens' surfaces joined by
    one space, from one list of the document's surfaces.
    """
    check_match_mode(mode)
    docs = check_sequence("docs", docs)
    predictions = check_sequence("predictions", predictions)
    fields = check_sequence("fields", fields)
    for i, f in enumerate(fields):
        if f in fields[:i]:
            raise InvalidSpec(f"fields name {f!r} twice")
    if len(docs) != len(predictions):
        raise InvalidSpec(
            f"{len(docs)} documents but {len(predictions)} prediction lists"
        )
    checked = []
    for doc, spans in zip(docs, predictions):
        spans = check_sequence(f"{doc.id}: a prediction", spans)
        n_tokens, what = len(doc.type_ids), f"{doc.id}: a predicted span"
        for span in spans:
            check_type(what, span, TagSpan)
            if span.end_token >= n_tokens:
                raise InvalidSpec(f"{doc.id}: predicted {span} ends past its {n_tokens} tokens")
        checked.append(_by_field(spans))
    scores = {f: FieldScore() for f in fields}
    for doc, predicted in zip(docs, checked):
        truth = _by_field(doc.gold_spans)
        surfaces = None  # the document's, built for the first filler string
        for f, tally in scores.items():
            gold, pred = truth.get(f, ()), predicted.get(f, ())
            bounds = {(s.start_token, s.end_token) for s in gold}
            exact = sum((s.start_token, s.end_token) in bounds for s in pred)
            if mode == "occurrence":
                tally.truth += len(gold)
                tally.produced += len(pred)
                tally.correct += exact
                continue
            tally.truth += bool(gold)
            tally.produced += bool(pred)
            if exact or not (gold and pred):
                tally.correct += bool(exact)
                continue
            if surfaces is None:
                surfaces = list(map(doc.types.surfaces.__getitem__, doc.type_ids.tolist()))
            fillers = {" ".join(surfaces[s.start_token : s.end_token + 1]) for s in gold}
            tally.correct += any(
                " ".join(surfaces[s.start_token : s.end_token + 1]) in fillers for s in pred
            )
    return scores


def macro_f1(scores):
    return float(np.mean([s.f1 for s in scores.values()]))


# ---------------------------------------------------------------------------
# Experiment protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    fields: tuple = DEFAULT_FIELDS
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
    iterations: int
    converged: bool
    diagnostics: dict
    n_train: int
    n_test: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list
    model: object        # trained model of the final run, masked as the config says
    gazetteer: object

    def mean(self, field_name, metric):
        return float(np.mean([getattr(r.scores[field_name], metric) for r in self.runs]))

    def mean_macro(self):
        return float(np.mean([r.macro for r in self.runs]))


def _run_split(cfgs, lexicons, run_index, train_docs, test_docs):
    """Train and score every config on one split; a ``(run, model,
    gazetteer)`` triple per config, in config order. Top level so process
    pools can use it.

    The configs differ only in ``mask`` and ``memory``, so they share the
    split's work:

    - once per split: the gazetteer is built, and each side is featurized
      unmasked in one :func:`~bien.features.featurize_docs` pass, the
      training side stacked with its tags by
      :func:`~bien.learning.make_examples` and the test side numbered by
      its distinct observation rows
      (:func:`~bien.model.number_observations`);
    - once per model structure: the training side is packed for EM
      (:func:`~bien.learning.pack`), and each of that structure's configs
      trains on the packing a copy of the model masked as it says
      (:meth:`~bien.model.BienModel.masked`). The packing is dropped before
      the next structure packs, so at most one is alive;
    - per config: once every config has trained, and the last packing and
      the training examples are dropped (so that decoding's table of
      forward scores, :func:`~bien.inference.viterbi_batch`, is not held
      beside them), its masked model is compiled and decodes the one
      numbered test side, and the result is scored."""
    cfg = cfgs[0]
    gazetteer = build_gazetteer(
        train_docs,
        lexicons.lemma_table,
        window=cfg.gazetteer_window,
        min_freq=cfg.gazetteer_min_freq,
        max_size=cfg.gazetteer_max_size,
    )
    cardinalities = feature_cardinalities(gazetteer)
    model = build_model(cfg.fields, cardinalities, memory=cfg.memory)
    examples = make_examples(train_docs, gazetteer, lexicons, model)
    examples.obs.flags.writeable = False
    test_side = number_observations(
        featurize_docs(test_docs, gazetteer, lexicons),
        [len(doc.type_ids) for doc in test_docs],
        list(cardinalities.values()),
    )
    fits = [None] * len(cfgs)
    for memory in dict.fromkeys(c.memory for c in cfgs):
        if memory != model.memory:  # train fits a copy, so a model is reused
            model = build_model(cfgs[0].fields, cardinalities, memory=memory)
        packing = pack(model, examples)
        for i, cfg in enumerate(cfgs):
            if cfg.memory == memory:
                fits[i] = train(model.masked(cfg.mask), packing, cfg.train)
        del packing  # before the next structure packs, or the first config decodes
    del examples
    outs = []
    for cfg, fitted in zip(cfgs, fits):
        run = _score_run(cfg, fitted, test_docs, test_side, run_index, len(train_docs))
        outs.append((run, fitted.model, gazetteer))
    return outs


def _score_run(cfg, fitted, test_docs, test_side, run_index, n_train):
    """Decode ``test_side``, the test documents' numbered observations,
    with the trained (and masked) model of ``fitted`` and score it: the
    split's :class:`RunResult`. It runs once every config of the split has
    trained and the training packings are dropped (:func:`_run_split`).
    The chain and the decoded paths are freed on return, before the next
    config decodes."""
    chain = compile_chain(fitted.model)
    decoded = decode_batch(chain, test_side)
    predictions = [result.spans for result in decoded]
    diagnostics = {}
    for result in decoded:
        for k, v in result.diagnostics.items():
            diagnostics[k] = diagnostics.get(k, 0) + v
    scores = score_documents(test_docs, predictions, cfg.fields, mode=cfg.match_mode)
    return RunResult(
        run=run_index,
        scores=scores,
        macro=macro_f1(scores),
        log_likelihood=fitted.log_likelihood,
        iterations=fitted.iterations,
        converged=fitted.converged,
        diagnostics=diagnostics,
        n_train=n_train,
        n_test=len(test_docs),
    )


def _run_variants(corpus, cfgs, jobs):
    """Run the protocol once per config. The configs share one split plan
    and differ only in ``mask`` and ``memory``. Every mask is checked
    first; then the corpus is split once into the plan's holdout runs and
    the lexicons are loaded once, and each split trains and scores every
    config (:func:`_run_split`). With ``jobs > 1`` the splits run in a
    process pool. Results merge in config and run order, so the outcome is
    identical for any ``jobs``. Document ids must be unique.

    ``corpus`` (a sequence), ``jobs`` (an int >= 1, not a bool), and
    every config's fields, mask name, match mode and gazetteer setting and
    the types of its ``plan`` and ``train`` are checked before any work: a
    bad one raises :class:`InvalidSpec` naming it."""
    corpus = check_sequence("corpus", corpus)
    check_int("jobs", jobs, 1)
    cfgs = [
        replace(c, fields=check_sequence("ExperimentConfig.fields", c.fields),
                mask=check_sequence("ExperimentConfig.mask", c.mask))
        for c in cfgs
    ]
    for cfg in cfgs:
        check_type("ExperimentConfig.plan", cfg.plan, SplitPlan)
        check_type("ExperimentConfig.train", cfg.train, TrainConfig)
        mask_columns(cfg.mask)
        check_match_mode(cfg.match_mode)
        check_gazetteer_settings(
            cfg.gazetteer_window, cfg.gazetteer_min_freq, cfg.gazetteer_max_size
        )
    corpus = sorted(corpus, key=lambda d: d.id)
    check_increasing_ids([d.id for d in corpus])
    pairs = split(corpus, cfgs[0].plan)
    lexicons = default_lexicons()
    tasks = [
        (cfgs, lexicons, r, train_docs, test_docs)
        for r, (train_docs, test_docs) in enumerate(pairs)
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(_run_split, *zip(*tasks)))
    else:
        outs = list(itertools.starmap(_run_split, tasks))
    results = []
    for i, cfg in enumerate(cfgs):
        runs, models, gazetteers = zip(*(split_outs[i] for split_outs in outs))
        results.append(ExperimentResult(cfg, list(runs), models[-1], gazetteers[-1]))
    return results


def run_experiment(corpus, cfg, jobs=1):
    """The full protocol: split the corpus into the plan's holdout runs;
    per run, build the gazetteer from the training side only, train,
    decode the test side, and score. A ``cfg`` that is not an
    :class:`ExperimentConfig` raises :class:`InvalidSpec`."""
    check_type("cfg", cfg, ExperimentConfig)
    return _run_variants(corpus, [cfg], jobs)[0]


def run_ablations(corpus, cfg, jobs=1):
    """The feature/structure ablation grid: ``cfg`` with each row of
    :data:`ABLATIONS` applied, every variant on the same holdout splits of
    ``cfg.plan`` and sharing each split's work (:func:`_run_split`). The
    results map each variant's name to its :class:`ExperimentResult`, in
    table order. A ``cfg`` that is not an :class:`ExperimentConfig` raises
    :class:`InvalidSpec`."""
    check_type("cfg", cfg, ExperimentConfig)
    cfgs = [replace(cfg, **row) for row in ABLATIONS.values()]
    return dict(zip(ABLATIONS, _run_variants(corpus, cfgs, jobs)))
