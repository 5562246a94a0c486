"""EM training. Tags are observed from gold spans; the segment chain is
always hidden.

With the tags observed, the compiled product chain collapses per document
to a two-state chain over segments. The E-step runs forward-backward on
that chain for all documents at once, in probability space with each
step's forward row rescaled to sum to one (the scaling of Rabiner 1989),
over tokens packed time-major with no padding (see :class:`_FactoredBatch`).
Its references in ``tests/oracles.py`` are ``chain_estep``,
forward-backward on the compiled product chain with the tags clamped, and
``PaddedLogBatch``, the same segment-chain E-step in log space over a
padded batch; all three give the same expected counts up to rounding.
Counts with the segments observed too are the oracles'
``observed_counts``, which the exact maximum-likelihood tests feed to
:func:`_m_step_cpt`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, InconsistentGold, InvalidSpec, OverlappingSpans, UnknownField
from .features import featurize
from .model import LT_NONE, check_observations


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.1       # Dirichlet pseudo-count per allowed cell
    max_iter: int = 30
    tol: float = 1e-4        # relative log-likelihood change at convergence
    seed: int = 0
    jitter: float = 1e-3     # emission symmetry breaking; 0 disables


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


def encode_tags(doc, tag_space):
    """Gold spans to a per-token tag sequence (begin/inside/end/single)."""
    T = len(doc.tokens)
    out = np.zeros(T, dtype=np.int64)
    prev_end = -1
    for span in sorted(doc.gold_spans, key=lambda s: s.start_token):
        if span.field not in tag_space.fields:
            raise UnknownField(f"{doc.id}: span field {span.field!r} not modeled")
        if span.start_token <= prev_end:
            raise OverlappingSpans(f"{doc.id}: spans overlap at token {span.start_token}")
        if span.end_token >= T:
            raise InconsistentGold(
                f"{doc.id}: span ends past the document",
                doc_id=doc.id,
                step=span.end_token,
            )
        fi = tag_space.fields.index(span.field)
        if span.start_token == span.end_token:
            out[span.start_token] = tag_space.single(fi)
        else:
            out[span.start_token] = tag_space.begin(fi)
            out[span.start_token + 1 : span.end_token] = tag_space.inside(fi)
            out[span.end_token] = tag_space.end(fi)
        prev_end = span.end_token
    return out


def make_examples(docs, gazetteer, lexicons, model, mask=()):
    """Featurize and tag-encode documents into training examples.

    Documents are keyed and sorted by id, so example order (and therefore
    training) is invariant to the order documents arrive in.
    """
    examples = []
    for doc in docs:
        if len(doc.tokens) == 0:
            continue
        obs = featurize(doc, gazetteer, lexicons, mask=mask)
        tags = encode_tags(doc, model.tags)
        examples.append(TrainExample(doc.id, obs, tags))
    if not examples:
        raise EmptyCorpus("no non-empty documents to train on")
    return sorted(examples, key=lambda e: e.doc_id)


def check_unique_ids(sorted_ids):
    """Raise :class:`InvalidSpec` naming the first id that repeats in
    ``sorted_ids``. Training and the protocol order documents by id, so
    two documents with one id would be ordered by input order."""
    for a, b in itertools.pairwise(sorted_ids):
        if a == b:
            raise InvalidSpec(f"document id {a!r} is used more than once")


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _check_example(model, ex, cardinalities):
    """Raise :class:`InvalidSpec` unless ``ex`` holds integer tags of the
    model's tag space and one row of valid observation codes per tag."""
    tags = np.asarray(ex.tags)
    if tags.dtype.kind not in "iu" or tags.ndim != 1 or (
        tags.min() < 0 or tags.max() >= model.tags.size
    ):
        raise InvalidSpec(
            f"{ex.doc_id}: tags must be a 1-D integer array of values "
            f"0 .. {model.tags.size - 1}"
        )
    try:
        obs = check_observations(ex.obs, cardinalities)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{ex.doc_id}: {exc}") from None
    if len(obs) != len(tags):
        raise InvalidSpec(f"{ex.doc_id}: {len(obs)} observation rows for {len(tags)} tags")


class _FactoredBatch:
    """The segment-chain E-step over a fixed set of non-empty examples.

    With tags observed, the product chain collapses per document to a
    two-state chain over segments whose step factors are tag-transition
    and emission probabilities evaluated at the gold tags.

    Tokens are packed time-major with no padding. Documents are sorted
    longest first (stably, so equal lengths keep example order), and step
    t holds one row per document longer than t, in that order: the
    documents alive at step t are the first ``n[t]`` rows of step t - 1,
    so every step of both recursions works on a contiguous prefix.

    A token's factors are gathers through flat indices built here once:
    the tag-transition index selects a row of ``tag_init`` at t = 0 and of
    ``tag_trans`` (given the previous tag and memory) after, and each
    emission table gets a trailing zero column that masked (-1) codes
    select. The same indices tally the counts with ``np.bincount``.

    The recursions run on ``B = exp(A - max_ds A)``, each token's factors
    scaled so the larger is 1. Every forward row is divided by its sum
    ``c``, so the data log-likelihood is ``sum(log c) + sum(max_ds A)``
    and ``alpha * beta`` is the segment posterior with no further
    normalizer.
    """

    def __init__(self, model, examples):
        cardinalities = np.array([spec.cardinality for spec in model.observables])
        for ex in examples:
            _check_example(model, ex, cardinalities)
        lengths = np.array([len(ex.tags) for ex in examples])
        self.examples = examples
        self.order = np.argsort(-lengths, kind="stable")
        D, Tmax = len(examples), int(lengths.max())
        self.n = D - np.cumsum(np.bincount(lengths, minlength=Tmax + 1))[:Tmax]
        self.starts = np.concatenate([[0], np.cumsum(self.n)])
        N = int(self.starts[-1])

        # flat position of each token, taking the documents in sorted order
        sorted_len = lengths[self.order]
        step = np.arange(N) - np.repeat(np.cumsum(sorted_len) - sorted_len, sorted_len)
        pos = self.starts[step] + np.repeat(np.arange(D), sorted_len)
        g = np.empty(N, dtype=np.int64)
        g[pos] = np.concatenate([examples[d].tags for d in self.order])
        obs = np.empty((N, len(model.observables)), dtype=np.int64)
        obs[pos] = np.concatenate([examples[d].obs for d in self.order])

        # t = 0 rows index tag_init by tag; later rows index the tag_trans
        # rows that follow tag_init, by (previous tag, its memory, tag). The
        # last-target memory after each token is model.next_lt applied along
        # the gold tags.
        n_tags = model.tags.size
        lt = model.next_lt[LT_NONE, g]
        self.trans_idx = g.copy()
        for t in range(1, Tmax):
            cur, prev = slice(self.starts[t], self.starts[t + 1]), self._prev_rows(t)
            lt[cur] = model.next_lt[lt[prev], g[cur]]
            self.trans_idx[cur] += n_tags * (1 + g[prev] * model.lt_card + lt[prev])
        # per observed column: (name, cardinality, flat emission index);
        # columns masked throughout add nothing and count nothing
        self.emit = []
        for spec, col in zip(model.observables, obs.T):
            if (col >= 0).any():
                card = spec.cardinality
                idx = g * (card + 1) + np.where(col >= 0, col, card)
                self.emit.append((f"emit:{spec.name}", card, idx))

    def _prev_rows(self, t):
        """Rows of step t - 1 holding the documents alive at step t."""
        return slice(self.starts[t - 1], self.starts[t - 1] + self.n[t])

    def _log_factors(self, model):
        """A[i, ds]: log P(tag | history, ds) + log P(obs | tag, ds) at token i."""
        n_tags = model.tags.size
        log_tt = model.cpts["tag_trans"].log_table()
        trans = np.concatenate(
            [model.cpts["tag_init"].log_table().T, log_tt.transpose(0, 1, 3, 2).reshape(-1, 2)]
        )
        A = trans[self.trans_idx]
        for name, card, idx in self.emit:
            rows = np.zeros((n_tags, card + 1, 2))
            rows[:, :card] = model.cpts[name].log_table().transpose(0, 2, 1)
            A += rows.reshape(-1, 2)[idx]
        return A

    def estep(self, model):
        """Expected counts and the data log-likelihood under ``model``."""
        A = self._log_factors(model)
        # shift each token's factors by their max, so exp keeps them in range;
        # a token with no possible segment gets a zero row and is caught below
        shift = A.max(axis=1)
        shift[~np.isfinite(shift)] = 0.0
        B = np.exp(A - shift[:, None])
        P = model.cpts["ds_trans"].table
        n, starts = self.n, self.starts
        Tmax = len(n)

        alpha = np.empty_like(B)
        c = np.empty(len(B))
        with np.errstate(invalid="ignore"):  # 0 / 0 on a dead row
            for t in range(Tmax):
                cur = alpha[starts[t] : starts[t + 1]]
                if t:
                    np.matmul(alpha[self._prev_rows(t)], P, out=cur)
                else:
                    cur[:] = model.cpts["ds_init"].table
                cur *= B[starts[t] : starts[t + 1]]
                ct = np.sum(cur, axis=1, out=c[starts[t] : starts[t + 1]])
                cur /= ct[:, None]
        dead = ~(c > 0)
        if dead.any():
            self._raise_dead(dead)
        ll_total = float(np.log(c).sum() + shift.sum())

        # fp_t = B_t * beta_t / c_t; beta at each document's last token is 1
        beta = np.ones_like(B)
        B /= c[:, None]
        pair = np.zeros((2, 2))
        for t in range(Tmax - 1, 0, -1):
            fp = B[starts[t] : starts[t + 1]] * beta[starts[t] : starts[t + 1]]
            prev = self._prev_rows(t)
            np.matmul(fp, P.T, out=beta[prev])
            pair += alpha[prev].T @ fp
        gamma = (alpha * beta).T.copy()

        counts = {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}
        n_tags, lt_card = model.tags.size, model.lt_card
        counts["ds_init"] = gamma[:, : n[0]].sum(axis=1)
        counts["ds_trans"] = pair * P
        for ds in range(2):
            tally = np.bincount(
                self.trans_idx, weights=gamma[ds], minlength=n_tags * (1 + n_tags * lt_card)
            )
            counts["tag_init"][ds] = tally[:n_tags]
            counts["tag_trans"][:, :, ds, :] = tally[n_tags:].reshape(n_tags, lt_card, n_tags)
            for name, card, idx in self.emit:
                tally = np.bincount(idx, weights=gamma[ds], minlength=n_tags * (card + 1))
                counts[name][:, ds, :] = tally.reshape(n_tags, card + 1)[:, :card]
        return counts, ll_total

    def _raise_dead(self, dead):
        """InconsistentGold at the earliest step at which some document's
        gold tags are impossible, naming the first such document there."""
        t = int(np.searchsorted(self.starts, np.flatnonzero(dead)[0], side="right")) - 1
        rows = np.flatnonzero(dead[self.starts[t] : self.starts[t + 1]])
        doc_id = self.examples[int(self.order[rows].min())].doc_id
        raise InconsistentGold(
            f"{doc_id}: gold tags impossible at token {t}", doc_id=doc_id, step=t
        )


# ---------------------------------------------------------------------------
# M-step and the EM loop
# ---------------------------------------------------------------------------

def _m_step_cpt(cpt, counts, alpha):
    c = np.where(cpt.allowed, counts + alpha, 0.0)
    tot = c.sum(axis=-1, keepdims=True)
    # rows that saw no evidence (possible only at alpha=0) keep their values
    with np.errstate(invalid="ignore", divide="ignore"):
        cpt.table = np.where(tot > 0, c / tot, cpt.table)


def _apply_jitter(model, config):
    if config.jitter <= 0:
        return
    rng = np.random.default_rng(np.random.SeedSequence(config.seed & (2**64 - 1)))
    for name, cpt in model.cpts.items():
        if not name.startswith("emit:"):
            continue
        noise = 1.0 + rng.uniform(-config.jitter, config.jitter, size=cpt.shape)
        perturbed = np.where(cpt.allowed, cpt.table * noise, 0.0)
        tot = perturbed.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cpt.table = np.where(tot > 0, perturbed / tot, 0.0)


def train(model, examples, config=TrainConfig()):
    """Fit every CPT by EM; returns the trained copy and the
    per-iteration data log-likelihood trace (likelihood of each iteration's
    starting model, so at ``alpha=0`` the trace never decreases).
    Zero-token examples are skipped, as :func:`make_examples` skips empty
    documents."""
    examples = sorted((e for e in examples if len(e.tags)), key=lambda e: e.doc_id)
    if not examples:
        raise EmptyCorpus("no non-empty training examples")
    check_unique_ids([e.doc_id for e in examples])
    model = model.copy()
    model.validate()
    _apply_jitter(model, config)

    batch = _FactoredBatch(model, examples)

    trace = []
    converged = False
    for _ in range(config.max_iter):
        counts, ll = batch.estep(model)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= config.tol * max(
            1.0, abs(trace[-2])
        ):
            converged = True
            break
        for name, cpt in model.cpts.items():
            _m_step_cpt(cpt, counts[name], config.alpha)
        model.validate()
    return TrainResult(model, trace, len(trace), converged)
