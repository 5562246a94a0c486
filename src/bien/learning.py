"""EM training. Tags are observed from gold spans; the segment chain is
always hidden.

With the tags observed, the compiled product chain collapses per document
to a two-state chain over segments. The E-step runs forward-backward on
that chain, batched across documents. Its reference, forward-backward on
the compiled product chain with the tags clamped, is ``chain_estep`` in
``tests/oracles.py``; the two give identical expected counts. Counts with
the segments observed too are the oracles' ``observed_counts``, which the
exact maximum-likelihood tests feed to :func:`_m_step_cpt`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, InconsistentGold, OverlappingSpans, UnknownField
from .features import featurize
from .inference import _logsumexp


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


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _zero_counts(model):
    return {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}


class _FactoredBatch:
    """Precomputed index tensors for the segment-chain E-step.

    With tags observed, the product chain collapses per document to a
    two-state chain over segments whose step factors are tag-transition
    and emission probabilities evaluated at the gold tags.
    """

    def __init__(self, model, examples):
        D = len(examples)
        lengths = np.array([len(ex.tags) for ex in examples])
        Tmax = int(lengths.max())
        K = len(model.observables)
        self.examples = examples
        self.valid = np.arange(Tmax)[None, :] < lengths[:, None]
        self.g = np.zeros((D, Tmax), dtype=np.int64)
        self.obs = np.full((D, Tmax, K), -1, dtype=np.int64)
        for d, ex in enumerate(examples):
            T = lengths[d]
            self.g[d, :T] = ex.tags
            self.obs[d, :T] = ex.obs
        # last-target memory after each token, deterministic given gold tags
        lt = np.zeros((D, Tmax), dtype=np.int64)
        running = np.zeros(D, dtype=np.int64)
        fi_of = np.array(
            [-1] + [model.tags.field_index(t) for t in range(1, model.tags.size)]
        )
        for t in range(Tmax):
            tag_fi = fi_of[self.g[:, t]]
            if model.memory:
                running = np.where(self.valid[:, t] & (tag_fi >= 0), tag_fi + 1, running)
            lt[:, t] = running
        self.lt = lt

    def _log_factors(self, model):
        """A[d, t, ds]: log P(tag_t | history, ds) + log P(obs_t | tag_t, ds)."""
        D, Tmax = self.g.shape
        log_tag_init = model.cpts["tag_init"].log_table()
        log_tt = model.cpts["tag_trans"].log_table()
        A = np.zeros((D, Tmax, 2))
        A[:, 0, :] = log_tag_init[:, self.g[:, 0]].T
        if Tmax > 1:
            d_idx, t_idx = np.nonzero(self.valid[:, 1:])
            t_idx = t_idx + 1
            rows = log_tt[
                self.g[d_idx, t_idx - 1], self.lt[d_idx, t_idx - 1], :, self.g[d_idx, t_idx]
            ]
            A[d_idx, t_idx, :] = rows
        for k, spec in enumerate(model.observables):
            log_emit = model.cpts[f"emit:{spec.name}"].log_table()
            d_idx, t_idx = np.nonzero(self.valid & (self.obs[:, :, k] >= 0))
            A[d_idx, t_idx, :] += log_emit[
                self.g[d_idx, t_idx], :, self.obs[d_idx, t_idx, k]
            ]
        return A

    def estep(self, model):
        A = self._log_factors(model)
        gamma, pair_counts, ll_total = self._hidden_posteriors(model, A)

        counts = _zero_counts(model)
        counts["ds_init"] += gamma[:, 0].sum(axis=0)
        counts["ds_trans"] += pair_counts
        np.add.at(counts["tag_init"].T, self.g[:, 0], gamma[:, 0])

        Tmax = self.g.shape[1]
        d_idx, t_idx = (
            np.nonzero(self.valid[:, 1:]) if Tmax > 1 else (np.array([], int),) * 2
        )
        if d_idx.size:
            t_idx = t_idx + 1
            np.add.at(
                counts["tag_trans"],
                (
                    self.g[d_idx, t_idx - 1][:, None],
                    self.lt[d_idx, t_idx - 1][:, None],
                    np.arange(2)[None, :],
                    self.g[d_idx, t_idx][:, None],
                ),
                gamma[d_idx, t_idx],
            )
        for k, spec in enumerate(model.observables):
            d_idx, t_idx = np.nonzero(self.valid & (self.obs[:, :, k] >= 0))
            if not d_idx.size:
                continue
            np.add.at(
                counts[f"emit:{spec.name}"],
                (
                    self.g[d_idx, t_idx][:, None],
                    np.arange(2)[None, :],
                    self.obs[d_idx, t_idx, k][:, None],
                ),
                gamma[d_idx, t_idx],
            )
        return counts, ll_total

    def _hidden_posteriors(self, model, A):
        """Forward-backward on the two-state segment chain, batched over docs."""
        D, Tmax = self.g.shape
        log_ds_init = model.cpts["ds_init"].log_table()
        log_ds_trans = model.cpts["ds_trans"].log_table()

        la = np.zeros((D, Tmax, 2))
        la[:, 0] = log_ds_init[None, :] + A[:, 0]
        self._check_alive(la[:, 0], 0, np.ones(D, dtype=bool))
        for t in range(1, Tmax):
            prop = (
                _logsumexp(la[:, t - 1, :, None] + log_ds_trans[None, :, :], axis=1)
                + A[:, t]
            )
            live = self.valid[:, t]
            la[:, t] = np.where(live[:, None], prop, la[:, t - 1])
            self._check_alive(la[:, t], t, live)
        ll_doc = _logsumexp(la[:, -1, :], axis=1)

        lb = np.zeros((D, Tmax, 2))
        for t in range(Tmax - 2, -1, -1):
            forward_part = A[:, t + 1] + lb[:, t + 1]
            prop = _logsumexp(log_ds_trans[None, :, :] + forward_part[:, None, :], axis=2)
            lb[:, t] = np.where(self.valid[:, t + 1, None], prop, 0.0)

        gamma = np.exp(la + lb - ll_doc[:, None, None]) * self.valid[:, :, None]

        pair_counts = np.zeros((2, 2))
        for t in range(1, Tmax):
            live = self.valid[:, t]
            if not live.any():
                continue
            xi = np.exp(
                la[live, t - 1, :, None]
                + log_ds_trans[None, :, :]
                + (A[live, t] + lb[live, t])[:, None, :]
                - ll_doc[live, None, None]
            )
            pair_counts += xi.sum(axis=0)
        return gamma, pair_counts, float(ll_doc.sum())

    def _check_alive(self, la_t, t, live):
        dead = live & ~np.isfinite(la_t).any(axis=1)
        if dead.any():
            doc_id = self.examples[int(np.nonzero(dead)[0][0])].doc_id
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
