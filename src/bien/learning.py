"""EM training. Tags are observed from gold spans; the segment chain is
always hidden.

With the tags observed, the compiled product chain collapses per document
to a two-state chain over segments. The E-step runs forward-backward on
that chain for all documents at once, in probability space with each
step's forward row rescaled to sum to one (the scaling of Rabiner 1989),
over tokens packed time-major with no padding, in the layout of
:class:`bien.model.TimeMajor` that the batched Viterbi also uses.
A token's factors depend only on its row of tag-transition and emission
indices, and a corpus holds few distinct rows (about 1,340 among the
45,000 training tokens of a holdout run of ``generate_corpus(485, 1993)``),
so the factors are computed per distinct row. :func:`train` runs the
backward pass, which only the counts need, on no iteration that converges.
Its references in ``tests/oracles.py`` are ``chain_estep``,
forward-backward on the compiled product chain with the tags clamped, and
``PaddedLogBatch``, the same segment-chain E-step in log space over a
padded batch; all three give the same expected counts up to rounding.
Counts with the segments observed too are the oracles'
``observed_counts``, which the exact maximum-likelihood tests feed to
:meth:`~bien.model.Cpt.renormalize`.

A training side moves through featurization and packing as one array:
:func:`make_examples` featurizes the documents in one pass, encodes their
tags from the side's gold spans in another (:func:`encode_side_tags`)
and stacks both (:class:`StackedExamples`), and :func:`pack` checks that
stack against the model with one range check and numbers its rows with
no per-example restacking. The stack is the one form a side takes: it checks
everything that holds for any model once, when it is built.

The packing of the examples (:func:`pack`) is tied to a model structure
(memory, fields, and observable names and cardinalities), not to the
model's mask (:meth:`~bien.model.BienModel.masked`): a mask only selects
which emission families enter the factors and counts. So models that
differ only in their mask train on one packing, exactly as on examples
featurized with that mask, because each token's factors are the same terms
summed in the same order. The ablation grid packs each split's training
side once per memory setting.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import side_spans
from .errors import EmptyCorpus, InconsistentGold, InvalidSpec, OverlappingSpans, UnknownField
from .errors import IntegerRule, check_array, check_int, check_integers, check_sequence, check_type
# featurize stays importable here for the benchmark's tracer (perfbench/tracing.py)
from .features import featurize, featurize_docs  # noqa: F401
from .model import LT_NONE, BienModel, TimeMajor, check_lengths, code_slots, distinct_rows


@dataclass(frozen=True)
class TrainConfig:
    """EM settings.

    ``tol`` bounds the relative change of the data log-likelihood between
    two iterations, ``|ll[i] - ll[i-1]| <= tol * max(1, |ll[i-1]|)``, and
    nothing else. From the symmetric segment rows that EM starts from,
    broken only by ``jitter``, the segment chain sits at a saddle, and the
    default ``tol`` stops there after 3 iterations (in run 0 of the default
    experiment on ``generate_corpus(485, 1993)``, the trace reads -738,508,
    -400,281.4, -400,280.7; every run stops at 3). So
    ``converged=True`` says the likelihood stopped moving, not that the
    header/body segment was learned.
    """

    alpha: float = 0.1       # Dirichlet pseudo-count per allowed cell
    max_iter: int = 30
    tol: float = 1e-4        # relative log-likelihood change at convergence
    seed: int = 0
    jitter: float = 1e-3     # emission symmetry breaking; 0 disables

    def __post_init__(self):
        """Raise :class:`InvalidSpec` naming the first setting that
        :func:`train` cannot honour: ``max_iter`` must be an int of at
        least 1, ``alpha`` and ``tol`` finite and at least 0, and
        ``jitter`` finite in [0, 1), so that every jittered cell stays
        positive, and ``seed`` an int. A bool is not an int."""
        check_int("TrainConfig.max_iter", self.max_iter, 1)
        for name in ("alpha", "tol", "jitter"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise InvalidSpec(f"TrainConfig.{name} must be finite and >= 0, got {value!r}")
        if self.jitter >= 1:
            raise InvalidSpec(f"TrainConfig.jitter must be below 1, got {self.jitter!r}")
        check_int("TrainConfig.seed", self.seed)


@dataclass
class TrainResult:
    model: object
    log_likelihood: list
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TrainExample:
    doc_id: str
    obs: np.ndarray           # (T, K) feature codes
    tags: np.ndarray          # (T,) gold tag values


@dataclass(frozen=True)
class StackedExamples:
    """Training examples as one side: example i is document ``doc_ids[i]``,
    whose ``lengths[i]`` tokens are the next rows of ``obs`` and ``tags``.
    Iterating yields each as a :class:`TrainExample` of views.

    Built, it is checked once against all that holds for any model:
    integer tags and codes (:func:`~bien.errors.check_integers`), one row
    of codes per tag, tags of at least 0 and codes of at least -1, one
    positive length per id, splitting the rows, and ids strictly
    increasing, so training does not depend on document order. No example
    raises :class:`EmptyCorpus`, anything else :class:`InvalidSpec`,
    naming the first example, in id order, whose tag or code is out of
    range."""

    doc_ids: tuple
    lengths: np.ndarray       # (n,) int64 tokens per example
    obs: np.ndarray           # (N, K) feature codes
    tags: np.ndarray          # (N,) integer gold tag values

    def __post_init__(self):
        tags = check_integers("tags", self.tags)
        obs = check_integers("observations", self.obs, ndim=2)
        if len(obs) != len(tags):
            raise InvalidSpec(f"{len(obs)} observation rows for {len(tags)} tags")
        lengths = check_lengths(self.lengths, len(tags))
        if len(lengths) != len(self.doc_ids):
            raise InvalidSpec(f"{len(self.doc_ids)} document ids for {len(lengths)} lengths")
        if not len(lengths):
            raise EmptyCorpus("no training examples")
        if lengths.min() < 1:
            raise InvalidSpec(f"{self.doc_ids[int(lengths.argmin())]}: an example with no tokens")
        check_increasing_ids(self.doc_ids)
        for name, value in (("lengths", lengths), ("obs", obs), ("tags", tags)):
            object.__setattr__(self, name, value)
        # the per-row flags only locate a fault, so they are built only for one
        if tags.min() < 0 or obs.min(initial=0) < -1:
            _check_rows(self, tags < 0, (obs < -1).any(axis=1),
                        IntegerRule("tags", low=0), IntegerRule("observations", 2, low=-1))

    def __iter__(self):
        ends = np.cumsum(self.lengths).tolist()
        for doc_id, end, n in zip(self.doc_ids, ends, self.lengths.tolist()):
            yield TrainExample(doc_id, self.obs[end - n : end], self.tags[end - n : end])


def encode_side_tags(docs, tag_space):
    """Gold spans to per-token tags (begin/inside/end/single), the tags of
    ``docs`` one after another, as a read-only array of the smallest
    unsigned type that holds the tag space.

    Each document's spans are taken in start order, equal starts in gold
    order. The first document that has a faulty span raises for its first
    one: :class:`UnknownField` for a field that ``tag_space`` does not
    model, else :class:`OverlappingSpans` for a start at or before the end
    of the span before it.

    The side's spans are read once (:func:`~bien.corpus.side_spans`) and
    numbered by their tokens in the side, where every span lies inside its
    own document's tokens. So one stable sort puts them in start order
    document by document, and a span overlaps when it starts at or before
    the end of the span sorted before it. Each span's inside tag is filled
    over all its tokens from a difference array, then its end tag written
    at its end and its begin or single tag at its start.
    """
    lengths, counts, starts, ends, fields = side_spans(docs)
    offset = np.repeat(np.cumsum(lengths) - lengths, counts)
    order = np.argsort(offset + starts, kind="stable")
    first, last = (offset + starts)[order], (offset + ends)[order]
    index = {f: k for k, f in enumerate(tag_space.fields)}
    fi = np.fromiter(map(index.get, fields, itertools.repeat(-1)), np.int64, len(order))[order]
    bad = fi < 0
    bad[1:] |= first[1:] <= last[:-1]
    if bad.any():
        span = int(order[bad.argmax()])
        doc_id = docs[int(np.searchsorted(np.cumsum(counts), span, "right"))].id
        if fields[span] not in index:
            raise UnknownField(f"{doc_id}: span field {fields[span]!r} not modeled")
        raise OverlappingSpans(f"{doc_id}: spans overlap at token {starts[span]}")
    depth = np.zeros(int(lengths.sum()) + 1, np.int64)
    depth[first] += tag_space.inside(fi)
    depth[last + 1] -= tag_space.inside(fi)
    out = np.cumsum(depth[:-1]).astype(np.min_scalar_type(tag_space.size - 1))
    out[last] = tag_space.end(fi)
    out[first] = np.where(first < last, tag_space.begin(fi), tag_space.single(fi))
    out.flags.writeable = False
    return out


def make_examples(docs, gazetteer, lexicons, model, mask=()):
    """Featurize and tag-encode documents into training examples, stacked
    as one :class:`StackedExamples` in id order, zero-token documents
    skipped; none left raises :class:`EmptyCorpus`, and an id used twice
    :class:`InvalidSpec`, as do anything but a sequence for ``docs`` and a
    ``model`` that is not a :class:`~bien.model.BienModel`, before any work.

    Sorting by id makes the example order, and so training, invariant to
    the order the documents arrive in. The codes are one
    :func:`~bien.features.featurize_docs` pass over the sorted documents,
    and then the tags one :func:`encode_side_tags` pass, of the smallest
    integer type that holds the tag space. So a fault of featurization
    raises before a fault of the gold spans, and of those the first
    document's in id order.
    """
    docs = check_sequence("docs", docs)
    docs = sorted((doc for doc in docs if len(doc.type_ids)), key=lambda doc: doc.id)
    if not docs:
        raise EmptyCorpus("no non-empty documents to train on")
    check_type("model", model, BienModel)
    obs = featurize_docs(docs, gazetteer, lexicons, mask=mask)
    tags = encode_side_tags(docs, model.tags)
    lengths = np.fromiter((len(doc.type_ids) for doc in docs), np.int64, len(docs))
    return StackedExamples(tuple(doc.id for doc in docs), lengths, obs, tags)


def check_increasing_ids(ids):
    """Raise :class:`InvalidSpec` naming the first id of ``ids`` that
    repeats or comes out of order. Training and the protocol order
    documents by id, so one id twice would leave them in input order."""
    for a, b in itertools.pairwise(ids):
        if a == b:
            raise InvalidSpec(f"document id {a!r} is used more than once")
        if not a < b:
            raise InvalidSpec(f"document ids must increase, got {a!r} before {b!r}")


def _check_rows(side, bad_tags, bad_codes, tag_fault, code_fault):
    """Raise :class:`InvalidSpec` naming the first example of ``side`` with
    a row flagged in ``bad_tags`` or ``bad_codes`` (a bool per row): with
    the rule ``tag_fault`` if it has a flagged tag, else with the rule
    ``code_fault`` (each a :class:`~bien.errors.IntegerRule`). The caller
    has found a flagged row in one of them."""
    n_rows = len(bad_tags)
    first = [int(bad.argmax()) if bad.any() else n_rows for bad in (bad_tags, bad_codes)]
    at_tag, at_code = np.searchsorted(np.cumsum(side.lengths), first, side="right").tolist()
    i, fault = (at_tag, tag_fault) if at_tag <= at_code else (at_code, code_fault)
    raise InvalidSpec(f"{side.doc_ids[i]}: {fault}")


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def _transition_index(model, tags, lengths):
    """Per token of the concatenated documents: its row of ``tag_init``
    (a first token, by tag), or of the ``tag_trans`` rows that follow
    ``tag_init``, by (previous tag, its memory, tag).

    The last-target memory after each token is a forward fill over each
    document's tags: a tag whose ``model.next_lt`` column is constant sets
    it, the others (identity columns) keep it, and each document starts
    from LT_NONE."""
    N = len(tags)
    first = np.zeros(N, dtype=bool)
    first[np.cumsum(lengths) - lengths] = True
    sets = (model.next_lt == model.next_lt[LT_NONE]).all(axis=0)
    src = np.where(first | sets[tags], np.arange(N), 0)
    lt = model.next_lt[LT_NONE][tags[np.maximum.accumulate(src, out=src)]]
    n_tags = model.tags.size
    trans = tags.copy()
    trans[1:] += np.where(first[1:], 0, n_tags * (1 + tags[:-1] * model.lt_card + lt[:-1]))
    return trans


def _tally(weights, flat, row_of, size):
    """``size`` sums: each token's weight added, in token order, to the cell
    ``flat[row_of[token]]``."""
    out = np.zeros(size, dtype=weights.dtype)
    np.add.at(out, np.take(flat, row_of), weights)
    return out


class _FactoredBatch:
    """The segment-chain E-step over a fixed set of non-empty examples,
    packed for EM: what :func:`pack` builds, from checked
    :class:`StackedExamples`, and :func:`train` runs on.

    With tags observed, the product chain collapses per document to a
    two-state chain over segments whose step factors are tag-transition
    and emission probabilities evaluated at the gold tags. Tokens are
    packed in a :class:`bien.model.TimeMajor` layout (``layout``), so
    every step of both recursions works on a contiguous prefix of the
    step before. ``structure`` names the model structure it is tied to.

    A token's factors depend only on its row: its tag-transition index,
    which selects a row of ``tag_init`` at t = 0 and of ``tag_trans``
    (given the previous tag and memory) after, and its emission index per
    column, where -1 codes select a trailing zero column. Tokens
    are numbered by their row with :func:`bien.model.distinct_rows`, in
    example order, and ``row_of`` maps each packed token to its distinct
    row. The log factors, their shift and ``exp`` are computed per
    distinct row and gathered per token. The counts are tallied per token,
    in token order, through each row's flat index gathered per token: a
    token's two segment posteriors, viewed as one complex number (segment
    0 the real part), are added with one ``np.add.at`` per CPT. Like two
    ``np.bincount`` tallies, it adds in token order, and complex addition
    adds each part on its own, so every cell sums the same values in the
    same order, bit for bit.

    Every array per token is ``(N, 2)``, and numpy pays a price per row
    for fancy indexing and broadcast arithmetic on arrays that narrow. So
    rows are gathered with ``np.take(..., axis=0)``, and divided by their
    sums one column at a time. Measured on the 45,027 tokens of a holdout
    training side of ``generate_corpus(485, 1993)`` (numpy 2.4.6, 2 vCPU):
    the per-token gather of ``exp(A - shift)`` takes 0.05 ms by ``take``
    against 0.57 ms by indexing; dividing by ``c`` 0.13 ms by column
    against 0.21 ms broadcast; a CPT's tally 0.12 ms by ``np.add.at``
    against 0.25 ms for two ``np.bincount`` calls. Together they cut
    :func:`train` on one packing from about 16 to 12 ms.

    A packing keeps the buffers of its passes, ``alpha``, ``beta`` and
    ``B`` of ``(N, 2)`` and ``c`` of ``(N,)``, 2.5 MB on that side, and
    each step's views of them for the forward and the backward pass,
    built once. So a step of either pass is only its ufunc and
    ``matmul`` calls, writing into those views, and a packing runs one
    pass at a time. That cut ``train`` on that packing to 0.8 of its
    time, the forward passes from 9.0 to 5.9 ms and the backward passes
    from 8.2 to 7.1 ms per call. The per-token tally indices are gathered
    per pass, not kept: they would hold as much again.

    The recursions run on ``B = exp(A - max_ds A)``, each token's factors
    scaled so the larger is 1. Every forward row is divided by its sum
    ``c``, so the data log-likelihood is ``sum(log c) + sum(max_ds A)``
    and ``alpha * beta`` is the segment posterior with no further
    normalizer. :meth:`forward` alone gives the log-likelihood;
    :meth:`expected_counts` runs the backward pass on the buffers it
    filled. Both skip the emission families that ``model`` masks.
    """

    def __init__(self, model, examples):
        self.examples = examples
        self.layout = TimeMajor(examples.lengths)
        tags, obs = examples.tags.astype(np.int64, copy=False), examples.obs
        trans = _transition_index(model, tags, examples.lengths)

        # Key each token's row by its transition index and emission codes,
        # in example order; the numbers are then laid out time-major. A
        # column of -1 codes throughout keys to one code, adds 0.0 to every
        # factor and tallies into the trailing column, which is dropped.
        n_tags = model.tags.size
        specs = [(k, name, int(card)) for k, (name, card) in enumerate(model.observables.items())]
        row_of, row = distinct_rows(
            len(trans),
            itertools.chain(
                [(trans, n_tags * (1 + n_tags * model.lt_card))],
                ((code_slots(obs[:, k], card), card + 1) for k, _, card in specs),
            ),
        )
        self.row_of = np.empty_like(row_of)
        self.row_of[self.layout.rows()] = row_of
        # per distinct row: the transition index, and per observation column
        # (observable, cardinality, flat emission index)
        self.row_trans = trans[row]
        self.emit = [
            (name, card, tags[row] * (card + 1) + code_slots(obs[row, k], card))
            for k, name, card in specs
        ]
        self.structure = _structure(model)

        # The pass buffers, and each step's views of them, for every pass.
        # alpha, beta and B are one block: as three arrays, the benchmark's
        # extract loop, which runs after a train, read 2-5% slower in
        # paired runs, and as one it did not move.
        N = len(row_of)
        alpha, beta, B = self.alpha, self.beta, self.B = np.empty((3, N, 2))
        c = self.c = np.empty(N)
        steps = self.layout.steps
        # forward, per step: the previous rows of alpha (None at step 0),
        # the step's rows of alpha and B, alpha's two columns and c
        self.forward_steps = [
            (None if prev is None else alpha[prev], alpha[cur], B[cur],
             alpha[cur, 0], alpha[cur, 1], c[cur])
            for cur, prev in steps
        ]
        # backward, last step first down to step 1: the step's rows of B
        # and beta, the previous rows of beta, and of alpha transposed
        self.backward_steps = [
            (B[cur], beta[cur], beta[prev], alpha[prev].T) for cur, prev in steps[:0:-1]
        ]

    def __iter__(self):
        """The examples, in the order they were packed in."""
        return iter(self.examples)

    def _emit(self, model):
        """``emit`` without the families that ``model`` masks."""
        return [e for e in self.emit if e[0] not in model.mask]

    def _log_factors(self, model):
        """A[r, ds]: log P(tag | history, ds) + log P(obs | tag, ds) for
        each distinct row r."""
        n_tags = model.tags.size
        log_tt = model.cpts["tag_trans"].log_table()
        trans = np.concatenate(
            [model.cpts["tag_init"].log_table().T, log_tt.transpose(0, 1, 3, 2).reshape(-1, 2)]
        )
        A = np.take(trans, self.row_trans, axis=0)
        for name, card, idx in self._emit(model):
            rows = np.zeros((n_tags, card + 1, 2))
            rows[:, :card] = model.cpts[f"emit:{name}"].log_table().transpose(0, 2, 1)
            A += np.take(rows.reshape(-1, 2), idx, axis=0)
        return A

    def forward(self, model):
        """Run the scaled forward pass under ``model`` into the packing's
        ``alpha``, ``c`` and ``B``, and return the data log-likelihood. The
        buffers hold this pass until the next; a packing runs one pass at a
        time, whichever model it runs under."""
        A = self._log_factors(model)
        # shift each row's factors by their max, so exp keeps them in range;
        # a row with no possible segment gets zeros and is caught below
        shift = A.max(axis=1)
        shift[~np.isfinite(shift)] = 0.0
        # every index is in range; "raise" would gather into a temporary
        np.take(np.exp(A - shift[:, None]), self.row_of, axis=0, out=self.B, mode="clip")
        P = model.cpts["ds_trans"].table
        matmul, multiply, add, divide = np.matmul, np.multiply, np.add, np.divide

        with np.errstate(invalid="ignore"):  # 0 / 0 on a dead row
            for prev, cur, b, a0, a1, ct in self.forward_steps:
                if prev is None:
                    cur[:] = model.cpts["ds_init"].table
                else:
                    matmul(prev, P, out=cur)
                multiply(cur, b, out=cur)
                add(a0, a1, out=ct)
                divide(a0, ct, out=a0)
                divide(a1, ct, out=a1)
        dead = ~(self.c > 0)
        if dead.any():
            self._raise_dead(dead)
        return float(np.log(self.c).sum() + shift[self.row_of].sum())

    def expected_counts(self, model):
        """Expected counts by the backward pass over the ``alpha``, ``c``
        and ``B`` of the last :meth:`forward`, which must have run under
        ``model``; ``B`` is overwritten, and ``beta`` holds the segment
        posteriors until the next pass."""
        # fp_t = B_t * beta_t / c_t; beta at each document's last token is 1
        P = model.cpts["ds_trans"].table
        P_T, alpha, beta, c, B = P.T, self.alpha, self.beta, self.c, self.B
        beta.fill(1.0)
        B[:, 0] /= c
        B[:, 1] /= c
        pair, pair_t = np.zeros((2, 2)), np.empty((2, 2))
        matmul, multiply, add = np.matmul, np.multiply, np.add
        for fp, beta_cur, beta_prev, alpha_prev_T in self.backward_steps:
            multiply(fp, beta_cur, out=fp)
            matmul(fp, P_T, out=beta_prev)
            matmul(alpha_prev_T, fp, out=pair_t)
            add(pair, pair_t, out=pair)
        beta *= alpha  # the segment posteriors
        first = self.layout.steps[0][0]

        counts = {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}
        n_tags, lt_card = model.tags.size, model.lt_card
        counts["ds_init"] = np.array([beta[first, 0].sum(), beta[first, 1].sum()])
        counts["ds_trans"] = pair * P
        # each token's posteriors as one complex number, segment 0 the real
        # part, tallied in token order through its row's flat index
        post = beta.view(np.complex128).ravel()
        tally = _tally(post, self.row_trans, self.row_of, n_tags * (1 + n_tags * lt_card))
        for ds, part in enumerate((tally.real, tally.imag)):
            counts["tag_init"][ds] = part[:n_tags]
            counts["tag_trans"][:, :, ds, :] = part[n_tags:].reshape(n_tags, lt_card, n_tags)
        for name, card, rows in self._emit(model):
            tally = _tally(post, rows, self.row_of, n_tags * (card + 1))
            for ds, part in enumerate((tally.real, tally.imag)):
                counts[f"emit:{name}"][:, ds, :] = part.reshape(n_tags, card + 1)[:, :card]
        return counts

    def _raise_dead(self, dead):
        """InconsistentGold at the earliest step at which some document's
        gold tags are impossible, naming the first such document there."""
        layout = self.layout
        t = int(np.searchsorted(layout.starts, np.flatnonzero(dead)[0], side="right")) - 1
        rows = np.flatnonzero(dead[layout.steps[t][0]])
        doc_id = self.examples.doc_ids[int(layout.order[rows].min())]
        raise InconsistentGold(
            f"{doc_id}: gold tags impossible at token {t}", doc_id=doc_id, step=t
        )


# ---------------------------------------------------------------------------
# M-step and the EM loop
# ---------------------------------------------------------------------------

def _apply_jitter(model, config):
    if config.jitter <= 0:
        return
    rng = np.random.default_rng(np.random.SeedSequence(config.seed & (2**64 - 1)))
    for name, cpt in model.cpts.items():
        if not name.startswith("emit:"):
            continue
        noise = 1.0 + rng.uniform(-config.jitter, config.jitter, size=cpt.shape)
        cpt.renormalize(cpt.table * noise)


def _structure(model):
    """What a packing of examples depends on in ``model``, as text."""
    observables = ", ".join(f"{name}:{card}" for name, card in model.observables.items())
    return f"memory={model.memory}, fields={model.fields}, observables=({observables})"


def pack(model, examples):
    """The :class:`StackedExamples` of :func:`make_examples` packed for EM
    under ``model``'s structure, for :func:`train` to take in their place.
    Anything but a :class:`~bien.model.BienModel` and a
    :class:`StackedExamples` raises :class:`InvalidSpec`, as does a column
    count not the model's, and a tag or code out of the model's range,
    naming the first example, in id order, that holds one, and a tag
    fault before a code fault."""
    check_type("model", model, BienModel)
    check_type("examples", examples, StackedExamples)
    cardinalities = np.array(list(model.observables.values()))
    obs = check_array(f"observations must be an integer (T, {len(cardinalities)}) matrix",
                      examples.obs, lambda a: a.shape[1] == len(cardinalities))
    tags = examples.tags
    # column by column: ``obs.max(axis=0)`` reduces in inner loops of K codes
    if tags.max() >= model.tags.size or any(
        codes.max() >= card for codes, card in zip(obs.T, cardinalities.tolist())
    ):
        _check_rows(
            examples, tags >= model.tags.size, (obs >= cardinalities).any(axis=1),
            IntegerRule("tags", low=0, high=model.tags.size),
            IntegerRule("observations", 2, low=-1, high=cardinalities),
        )
    return _FactoredBatch(model, examples)


def train(model, examples, config=TrainConfig()):
    """Fit every CPT by EM; returns the trained copy and the
    per-iteration data log-likelihood trace (likelihood of each iteration's
    starting model, so at ``alpha=0`` the trace never decreases).

    ``examples`` is the :class:`StackedExamples` of :func:`make_examples`,
    packed for EM here (:func:`pack`) and dropped on return, or a packing
    from :func:`pack`, which many ``train`` calls share, whatever their
    models' masks. Either way the trained tables and the trace are the
    same, bit for bit. The emission tables of the observables that
    ``model`` masks (:meth:`~bien.model.BienModel.masked`) see no counts,
    and the trained copy keeps the mask. A packing built for a model of
    another structure raises :class:`InvalidSpec` naming both, and
    anything else in their place raises it too, as do a ``model`` that is
    not a :class:`~bien.model.BienModel` and a ``config`` that is not a
    :class:`TrainConfig`.

    ``converged`` is True when the trace's relative change fell within
    ``config.tol`` before ``max_iter`` iterations. With the tags observed,
    that happens at the segment saddle, after 3 iterations, whether or not
    the segment learned anything (see :class:`TrainConfig`)."""
    check_type("model", model, BienModel)
    check_type("config", config, TrainConfig)
    batch = examples if isinstance(examples, _FactoredBatch) else pack(model, examples)
    if batch.structure != _structure(model):
        raise InvalidSpec(
            f"examples packed for a model of {batch.structure} cannot train "
            f"a model of {_structure(model)}"
        )
    model = model.copy()
    model.validate()
    _apply_jitter(model, config)

    trace = []
    converged = False
    for _ in range(config.max_iter):
        # the backward pass runs only when an M-step follows
        ll = batch.forward(model)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= config.tol * max(
            1.0, abs(trace[-2])
        ):
            converged = True
            break
        counts = batch.expected_counts(model)
        # a row that saw no evidence (possible only at alpha=0) keeps its values
        for name, cpt in model.cpts.items():
            cpt.renormalize(counts[name] + config.alpha)
        model.validate()
    return TrainResult(model, trace, len(trace), converged)
