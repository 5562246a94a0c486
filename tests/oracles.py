"""Independent reference implementations used to check the package's math.

Most of what is here recomputes quantities by brute force (dense
enumeration over all state sequences) or directly from first principles,
sharing no recursion code with the package. ``forward_backward`` is
exact log-space smoothing on the compiled product chain, which
``test_inference.py`` checks against enumeration. ``chain_estep``, the
reference for the package's factored E-step, runs it with the tags
clamped by ``ClampedEvidence``. ``PaddedLogBatch`` is the package's earlier
padded, log-space segment-chain E-step, the reference on batches too large
for ``chain_estep``; ``factored_estep`` runs the package's E-step in the
same form. ``observed_counts`` tallies the counts of fully observed
``SegmentedExample`` data, which the exact maximum-likelihood tests
normalize with the package's M-step.
``sample_example`` and ``sample_corpus`` draw test data from a model's
generative story, and ``stack_examples`` stacks hand-built or sampled
examples into the one form that ``pack`` and ``train`` take. ``viterbi_reference``, ``featurize_reference`` and
``build_gazetteer_reference`` are the plain per-step and per-token
versions of the package's ``viterbi`` (and ``viterbi_batch``),
``featurize`` and ``build_gazetteer``, which must match them bit for bit.
``apply_mask`` masks a featurized matrix by copy, the earlier form of
``featurize``'s in-place mask. ``matches_time_reference`` tests a
lowercased surface against the four time patterns one by one, the
longhand form of the semantic feature's single alternation.
``assemble_slots_reference`` is the branch-per-role version of
``assemble_slots``, and ``tag_name`` writes a tag as its role and field.
``tag_sequence_reference`` is the per-document, span-by-span form of
``encode_side_tags``.
``score_documents_reference`` is the package's earlier per-field tally
of ``score_documents``, building every filler with ``slot_filler``.
``case_feature``, ``length_feature`` and ``lemmatise`` are the
per-type forms of the case class, the length bucket and the lemma, which
the package computes a table at a time.
``tag_spans_reference`` maps tag pairs to tokens by scanning every token
for every pair, the longhand form of the bisection in
``parse_tagged_document``. ``tokenize_reference`` splits and classifies
every whitespace chunk afresh, the memo-free form of ``tokenize``.
``token_kind_reference`` classifies a surface from the set of its
characters' major Unicode categories, the earlier form of ``token_kind``.
"""

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from bien.corpus import (
    _DECIMAL_RE,
    KIND_MIXED,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_SYMBOL,
    KIND_WORD,
    LintIssue,
    TagSpan,
    Token,
    _split_chunk,
    token_kind,
)
from bien.errors import (
    EmptyVocabulary,
    InconsistentGold,
    InvalidSpec,
    MissingResource,
    NumericError,
    OverlappingSpans,
    UnknownField,
    ZeroProbabilityEvidence,
)
from bien.evaluation import FieldScore
from bien.features import (
    CASES,
    CHUNKS,
    FEATURE_NAMES,
    Gazetteer,
    LENGTH_BUCKETS,
    MASKED,
    POS_CLUSTERS,
    SEMANTIC,
    chunk_flatten,
    mask_columns,
    pos_cluster,
    semantic_feature,
)
from bien.inference import Evidence
from bien.learning import StackedExamples, TrainExample
from bien.model import LT_NONE, ROLE_BACKGROUND, compile_chain


_HEALTH_TOL = 1e-9


def _logsumexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


@dataclass
class ClampedEvidence(Evidence):
    """Observations plus optional per-token clamps.

    ``allowed_tags``/``allowed_ds`` are boolean masks of shape (T, n_tags)
    and (T, 2); a False cell forbids that value at that token. ``None``
    leaves the variable unconstrained. The clamps enter the recursions as
    -inf emission scores, so clamped inference is exact inference in the
    restricted chain.
    """

    allowed_tags: np.ndarray | None = None
    allowed_ds: np.ndarray | None = None

    @classmethod
    def from_tags(cls, obs, tag_seq, n_tags, allowed_ds=None):
        """Evidence with the tag at every token clamped to a known value."""
        T = len(tag_seq)
        allowed = np.zeros((T, n_tags), dtype=bool)
        allowed[np.arange(T), np.asarray(tag_seq)] = True
        return cls(np.asarray(obs), allowed, allowed_ds)

    def log_clamp(self, chain):
        """The clamps as a (T, S) additive log mask over chain states."""
        mask = np.zeros((len(self), chain.n_states))
        if self.allowed_tags is not None:
            mask[~np.asarray(self.allowed_tags, dtype=bool)[:, chain.tag_of]] = -np.inf
        if self.allowed_ds is not None:
            mask[~np.asarray(self.allowed_ds, dtype=bool)[:, chain.ds_of]] = -np.inf
        return mask

    def log_emission(self, chain):
        return super().log_emission(chain) + self.log_clamp(chain)


@dataclass(frozen=True)
class SegmentedExample(TrainExample):
    """A training example whose segments are known too, as sampled data has."""

    ds: np.ndarray  # (T,) segment values


def randomize_model(model, rng):
    """Give every CPT random row-normalized values over its allowed support."""
    for cpt in model.cpts.values():
        t = rng.random(cpt.shape) * cpt.allowed
        t /= t.sum(axis=-1, keepdims=True)
        cpt.table = t
    return model


def random_obs(model, T, rng, mask_rate=0.0):
    """A (T, K) observation matrix with optional random masking."""
    cols = []
    for card in model.observables.values():
        cols.append(rng.integers(0, card, size=T))
    out = np.stack(cols, axis=1).astype(np.int16)
    if mask_rate:
        out[rng.random(out.shape) < mask_rate] = -1
    return out


@dataclass
class Posteriors:
    """Smoothed posteriors: state marginals, summed transition counts, log-likelihood."""

    log_likelihood: float
    gamma: np.ndarray  # (T, S)
    xi_sum: np.ndarray  # (S, S), expected transition counts summed over steps

    def tag_marginals(self, chain):
        """Per-token posterior over tags, aggregating the product states."""
        T = self.gamma.shape[0]
        n_tags = chain.model.tags.size
        out = np.zeros((T, n_tags))
        np.add.at(out.T, chain.tag_of, self.gamma.T)
        return out


def forward_backward(chain, evidence):
    """Exact smoothing. Raises :class:`ZeroProbabilityEvidence` naming the
    first token at which every state dies; raises :class:`NumericError` if
    the forward and backward likelihoods disagree beyond tolerance. An empty
    document has empty posteriors and log-likelihood 0."""
    emis = evidence.log_emission(chain)
    T, S = emis.shape
    if T == 0:
        return Posteriors(0.0, np.zeros((0, S)), np.zeros((S, S)))
    log_alpha = np.empty((T, S))
    log_alpha[0] = chain.log_init + emis[0]
    if np.max(log_alpha[0]) == -np.inf:
        raise ZeroProbabilityEvidence("no state admits token 0", step=0)
    for t in range(1, T):
        log_alpha[t] = (
            _logsumexp(log_alpha[t - 1][:, None] + chain.log_trans, axis=0) + emis[t]
        )
        if np.max(log_alpha[t]) == -np.inf:
            raise ZeroProbabilityEvidence(f"no state admits token {t}", step=t)
    ll = _logsumexp(log_alpha[-1])

    log_beta = np.empty((T, S))
    log_beta[-1] = 0.0
    xi_sum = np.zeros((S, S))
    for t in range(T - 2, -1, -1):
        forward_part = emis[t + 1] + log_beta[t + 1]
        log_beta[t] = _logsumexp(chain.log_trans + forward_part[None, :], axis=1)
        xi_sum += np.exp(
            log_alpha[t][:, None] + chain.log_trans + forward_part[None, :] - ll
        )

    ll_backward = _logsumexp(chain.log_init + emis[0] + log_beta[0])
    # written as "not within" so that a NaN on either side fails the check
    if not abs(ll - ll_backward) <= _HEALTH_TOL * max(1.0, abs(ll)):
        raise NumericError(
            f"forward/backward disagree: {ll!r} vs {ll_backward!r}"
        )

    gamma = np.exp(log_alpha + log_beta - ll)
    return Posteriors(ll, gamma, xi_sum)


def _sequence_scores(chain, log_emis, log_clamp=None):
    """Log score of every state sequence, as a (S,)*T tensor.

    Sequences through structural zeros score -inf, contributing nothing
    to sums; that is exactly the semantics of the recursions under test.
    """
    S = chain.n_states
    T = log_emis.shape[0]
    if log_clamp is None:
        log_clamp = np.zeros((T, S))
    lp = chain.log_init + log_emis[0] + log_clamp[0]
    for t in range(1, T):
        last = np.arange(lp.size) % S  # fastest-varying digit is the newest state
        step = chain.log_trans[last] + log_emis[t] + log_clamp[t]
        lp = (lp[:, None] + step).ravel()
    return lp.reshape((S,) * T)


def enumerate_posteriors(chain, log_emis, log_clamp=None):
    """Exact (log_likelihood, gamma, xi_sum) by summing over all sequences."""
    scores = _sequence_scores(chain, log_emis, log_clamp)
    T = scores.ndim
    S = chain.n_states
    ll = _logsumexp(scores)
    if ll == -np.inf:
        return ll, np.zeros((T, S)), np.zeros((S, S))
    gamma = np.zeros((T, S))
    for t in range(T):
        axes = tuple(a for a in range(T) if a != t)
        gamma[t] = np.exp(_logsumexp(scores, axis=axes) - ll)
    xi_sum = np.zeros((S, S))
    for t in range(T - 1):
        axes = tuple(a for a in range(T) if a not in (t, t + 1))
        xi_sum += np.exp(_logsumexp(scores, axis=axes) - ll)
    return ll, gamma, xi_sum


def enumerate_best_path(chain, log_emis, log_clamp=None):
    """Exact MAP state sequence score and one maximizing path."""
    scores = _sequence_scores(chain, log_emis, log_clamp)
    flat = np.argmax(scores)
    best = np.unravel_index(flat, scores.shape)
    return float(scores[best]), np.array(best)


def assignment_log_prob(model, tag_seq, ds_seq, obs_matrix):
    """Log joint of one full assignment straight from the CPT product.

    The uncompiled reference for the compiled chain: both must give
    identical joints. Masked observations contribute no factor.
    """
    tag_seq = np.asarray(tag_seq)
    ds_seq = np.asarray(ds_seq)
    T = len(tag_seq)
    with np.errstate(divide="ignore"):
        logp = np.log(model.cpts["ds_init"].table[ds_seq[0]])
        logp += np.log(model.cpts["tag_init"].table[ds_seq[0], tag_seq[0]])
        lt = model.next_lt[LT_NONE, tag_seq[0]]
        trans = model.cpts["tag_trans"].table
        ds_trans = model.cpts["ds_trans"].table
        for t in range(1, T):
            logp += np.log(ds_trans[ds_seq[t - 1], ds_seq[t]])
            logp += np.log(trans[tag_seq[t - 1], lt, ds_seq[t], tag_seq[t]])
            lt = model.next_lt[lt, tag_seq[t]]
        for k, name in enumerate(model.observables):
            emit = model.cpts[f"emit:{name}"].table
            for t in range(T):
                o = obs_matrix[t, k]
                if o >= 0:
                    logp += np.log(emit[tag_seq[t], ds_seq[t], o])
    return float(logp)


def joint_log_prob(chain, state_seq, obs_matrix):
    """Log joint of a state path and observations via the compiled arrays."""
    state_seq = np.asarray(state_seq)
    emis = chain.log_emission(obs_matrix)
    logp = chain.log_init[state_seq[0]] + emis[0, state_seq[0]]
    for t in range(1, len(state_seq)):
        logp += chain.log_trans[state_seq[t - 1], state_seq[t]]
        logp += emis[t, state_seq[t]]
    return float(logp)


def states_of_assignment(chain, tag_seq, ds_seq):
    """Map (tag, segment) sequences onto product-state indices."""
    lt = LT_NONE
    out = []
    for tag, ds in zip(tag_seq, ds_seq):
        lt = int(chain.model.next_lt[lt, tag])
        out.append(chain.states.index((int(tag), lt, int(ds))))
    return np.array(out)


def chain_estep(model, examples, observe_ds):
    """Expected counts and data log-likelihood by forward-backward on the
    compiled product chain, with each example's tags (and, under
    ``observe_ds``, its ``SegmentedExample.ds`` segments) clamped."""
    chain = compile_chain(model)
    counts = {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}
    tag_of, lt_of, ds_of = chain.tag_of, chain.lt_of, chain.ds_of
    total_ll = 0.0
    for ex in examples:
        allowed_ds = None
        if observe_ds:
            allowed_ds = np.zeros((len(ex.tags), 2), dtype=bool)
            allowed_ds[np.arange(len(ex.tags)), ex.ds] = True
        ev = ClampedEvidence.from_tags(ex.obs, ex.tags, model.tags.size, allowed_ds)
        try:
            post = forward_backward(chain, ev)
        except ZeroProbabilityEvidence as exc:
            raise InconsistentGold(
                f"{ex.doc_id}: gold tags impossible at token {exc.step}",
                doc_id=ex.doc_id,
                step=exc.step,
            ) from exc
        total_ll += post.log_likelihood
        gamma, xi = post.gamma, post.xi_sum
        np.add.at(counts["ds_init"], ds_of, gamma[0])
        np.add.at(counts["tag_init"], (ds_of, tag_of), gamma[0])
        np.add.at(counts["ds_trans"], (ds_of[:, None], ds_of[None, :]), xi)
        np.add.at(
            counts["tag_trans"],
            (tag_of[:, None], lt_of[:, None], ds_of[None, :], tag_of[None, :]),
            xi,
        )
        for k, name in enumerate(model.observables):
            col = ex.obs[:, k]
            seen = col >= 0
            if not seen.any():
                continue
            np.add.at(
                counts[f"emit:{name}"],
                (tag_of[None, :], ds_of[None, :], col[seen, None]),
                gamma[seen],
            )
    return counts, total_ll


class PaddedLogBatch:
    """The segment-chain E-step in log space over a (D, Tmax) padded batch.

    This is the package's earlier ``_FactoredBatch``: the same two-state
    chain and counts, with a log-sum-exp per step, documents padded to the
    longest and counts tallied with ``np.add.at``. It is the reference for
    the packed, scaled-probability E-step on batches too large for
    ``chain_estep``.
    """

    def __init__(self, model, examples):
        lengths = np.array([len(ex.tags) for ex in examples])
        D = len(lengths)
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
        fi_of = np.array([-1, *model.tags.field_index_of[1:]])
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
        for k, name in enumerate(model.observables):
            log_emit = model.cpts[f"emit:{name}"].log_table()
            d_idx, t_idx = np.nonzero(self.valid & (self.obs[:, :, k] >= 0))
            A[d_idx, t_idx, :] += log_emit[
                self.g[d_idx, t_idx], :, self.obs[d_idx, t_idx, k]
            ]
        return A

    def estep(self, model):
        A = self._log_factors(model)
        gamma, pair_counts, ll_total = self._hidden_posteriors(model, A)

        counts = {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}
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
        for k, name in enumerate(model.observables):
            d_idx, t_idx = np.nonzero(self.valid & (self.obs[:, :, k] >= 0))
            if not d_idx.size:
                continue
            np.add.at(
                counts[f"emit:{name}"],
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


def factored_estep(batch, model):
    """Expected counts and data log-likelihood of a packing from
    ``bien.learning.pack`` under ``model``, whatever its mask, by
    its forward and then its backward pass, as ``train`` runs them, in the
    form of ``chain_estep`` and ``PaddedLogBatch.estep``."""
    ll = batch.forward(model)
    return batch.expected_counts(model), ll


def observed_counts(model, examples):
    """Counts and data log-likelihood with tags and segments both observed.

    Nothing is hidden, so every count is a tally of one (parents, value)
    pair and the maximum-likelihood CPTs are ratios of integers. The
    likelihood is the sum of ``assignment_log_prob`` over the examples.
    """
    counts = {name: np.zeros(cpt.shape) for name, cpt in model.cpts.items()}
    total_ll = 0.0
    for ex in examples:
        lt = LT_NONE
        for t, (tag, ds) in enumerate(zip(ex.tags, ex.ds)):
            if t == 0:
                counts["ds_init"][ds] += 1
                counts["tag_init"][ds, tag] += 1
            else:
                counts["ds_trans"][ex.ds[t - 1], ds] += 1
                counts["tag_trans"][ex.tags[t - 1], lt, ds, tag] += 1
            lt = model.next_lt[lt, tag]
            for k, name in enumerate(model.observables):
                if ex.obs[t, k] >= 0:
                    counts[f"emit:{name}"][tag, ds, ex.obs[t, k]] += 1
        total_ll += assignment_log_prob(model, ex.tags, ex.ds, ex.obs)
    return counts, total_ll


def sample_example(model, T, rng, doc_id="sample"):
    """Ancestral sample of (tags, segments, observations) for T tokens."""
    ds_init = model.cpts["ds_init"].table
    ds_trans = model.cpts["ds_trans"].table
    tag_init = model.cpts["tag_init"].table
    tag_trans = model.cpts["tag_trans"].table
    tags = np.zeros(T, dtype=np.int64)
    ds = np.zeros(T, dtype=np.int64)
    obs = np.zeros((T, len(model.observables)), dtype=np.int64)
    lt = LT_NONE
    for t in range(T):
        if t == 0:
            ds[t] = rng.choice(2, p=ds_init)
            tags[t] = rng.choice(model.tags.size, p=tag_init[ds[t]])
        else:
            ds[t] = rng.choice(2, p=ds_trans[ds[t - 1]])
            tags[t] = rng.choice(model.tags.size, p=tag_trans[tags[t - 1], lt, ds[t]])
        lt = model.next_lt[lt, tags[t]]
        for k, (name, card) in enumerate(model.observables.items()):
            emit = model.cpts[f"emit:{name}"].table
            obs[t, k] = rng.choice(card, p=emit[tags[t], ds[t]])
    return SegmentedExample(doc_id, obs.astype(np.int16), tags, ds)


def sample_corpus(model, n_docs, rng, t_range=(4, 12)):
    """``n_docs`` sampled examples with lengths drawn uniformly from ``t_range``."""
    lo, hi = t_range
    return [
        sample_example(model, int(rng.integers(lo, hi + 1)), rng, doc_id=f"s{i:05d}")
        for i in range(n_docs)
    ]


def stack_examples(examples):
    """A list of examples, in list order, as one ``StackedExamples``: their
    ids, lengths, and observations and tags concatenated as they are, so
    that a malformed example makes a malformed stack. No examples make an
    empty stack."""
    if not examples:
        return StackedExamples((), [], np.zeros((0, 0), np.int64), np.zeros(0, np.int64))
    return StackedExamples(
        tuple(ex.doc_id for ex in examples),
        np.array([len(ex.tags) for ex in examples], dtype=np.int64),
        np.concatenate([ex.obs for ex in examples]),
        np.concatenate([ex.tags for ex in examples]),
    )


def viterbi_reference(chain, evidence):
    """Max-product recursion one step at a time, dead steps raised as found.

    Ties break toward the lowest state index (``np.argmax`` takes the first
    maximum), both for backpointers and for the final state.
    """
    emis = evidence.log_emission(chain)
    T, S = emis.shape
    if T == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    delta = chain.log_init + emis[0]
    if np.max(delta) == -np.inf:
        raise ZeroProbabilityEvidence("no state admits token 0", step=0)
    backptr = np.zeros((T, S), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + chain.log_trans
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(S)] + emis[t]
        if np.max(delta) == -np.inf:
            raise ZeroProbabilityEvidence(f"no state admits token {t}", step=t)
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    score = float(delta[path[-1]])
    for t in range(T - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, score


def tag_name(tag_space, tag):
    """A tag as text: ``background``, or its role and field, such as
    ``begin:speaker``."""
    fi = tag_space.field_index_of[tag]
    if fi is None:
        return ROLE_BACKGROUND
    return f"{tag_space.role_of[tag]}:{tag_space.fields[fi]}"


def tag_sequence_reference(doc, tag_space):
    """The package's earlier per-document tag encoding: the spans in start
    order (a stable sort), each checked against the field list and the
    span before it, then written tag by tag. ``encode_side_tags`` must
    give the same array, dtype and read-only flag, document by document
    and on the documents joined, and raise the same error for the same
    span."""
    T = len(doc.tokens)
    out = np.zeros(T, dtype=np.min_scalar_type(tag_space.size - 1))
    prev_end = -1
    for span in sorted(doc.gold_spans, key=lambda s: s.start_token):
        if span.field not in tag_space.fields:
            raise UnknownField(f"{doc.id}: span field {span.field!r} not modeled")
        if span.start_token <= prev_end:
            raise OverlappingSpans(f"{doc.id}: spans overlap at token {span.start_token}")
        fi = tag_space.fields.index(span.field)
        if span.start_token == span.end_token:
            out[span.start_token] = tag_space.single(fi)
        else:
            out[span.start_token] = tag_space.begin(fi)
            out[span.start_token + 1 : span.end_token] = tag_space.inside(fi)
            out[span.end_token] = tag_space.end(fi)
        prev_end = span.end_token
    out.flags.writeable = False
    return out


def assemble_slots_reference(tag_seq, tag_space):
    """The package's earlier ``assemble_slots``, one branch per role, each
    closing the open run itself. The package's version must return the
    same spans and diagnostics."""
    spans = []
    diagnostics = {"unterminated": 0, "orphan_inside": 0, "orphan_end": 0}
    open_run = None  # (field index, start token)

    def close(upto):
        fi, start = open_run
        spans.append(TagSpan(tag_space.fields[fi], start, upto))

    for t, tag in enumerate(np.asarray(tag_seq).tolist()):
        role = tag_space.role_of[tag]
        fi = tag_space.field_index_of[tag]
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


def case_feature(surface):
    """A surface's case class, from its letters (``str.isalpha``):
    NA without one, UpperInitial for a capital followed by lowercase
    letters only (a single capital too), AllCaps, Lower, else Mixed."""
    letters = [c for c in surface if c.isalpha()]
    if not letters:
        return "NA"
    if letters[0].isupper() and all(c.islower() for c in letters[1:]):
        return "UpperInitial"
    if all(c.isupper() for c in letters):
        return "AllCaps"
    if all(c.islower() for c in letters):
        return "Lower"
    return "Mixed"


def length_feature(surface):
    """A surface's length bucket, by comparisons; an empty surface has none."""
    n = len(surface)
    if n == 0:
        raise InvalidSpec("an empty surface has no length bucket")
    if n <= 3:
        return LENGTH_BUCKETS[n - 1]
    if n <= 5:
        return "4-5"
    if n <= 8:
        return "6-8"
    return "9+"


def lemmatise(surface, table):
    """A surface's lemma: its lowercased form looked up in ``table``, else
    that form itself."""
    low = surface.lower()
    return table.get(low, low)


def gazetteer_id_reference(gazetteer, token):
    """A token's id in ``gazetteer``, looked up for that token alone."""
    if token.kind in (KIND_PUNCT, KIND_SYMBOL):
        return gazetteer.naw_id
    got = gazetteer.ids.get(lemmatise(token.surface, gazetteer.lemma_table))
    if got is None:
        got = gazetteer.ids.get(token.surface.lower())
    return got if got is not None else gazetteer.oov_id


def build_gazetteer_reference(docs, lemma_table, window=3, min_freq=3, max_size=1200):
    """The package's earlier ``build_gazetteer``: every token lemmatised and
    counted on its own, every window scanned token by token."""
    freq = {}
    candidates = set()
    for doc in docs:
        lemmas = [
            None
            if t.kind in (KIND_PUNCT, KIND_SYMBOL)
            else lemmatise(t.surface, lemma_table)
            for t in doc.tokens
        ]
        for lem in lemmas:
            if lem is not None:
                freq[lem] = freq.get(lem, 0) + 1
        for span in doc.gold_spans:
            lo = max(0, span.start_token - window)
            hi = min(len(doc.tokens) - 1, span.end_token + window)
            for i in range(lo, hi + 1):
                if lemmas[i] is not None:
                    candidates.add(lemmas[i])
    kept = [lem for lem in candidates if freq[lem] >= min_freq]
    kept.sort(key=lambda lem: (-freq[lem], lem))
    kept = kept[:max_size]
    if not kept:
        raise EmptyVocabulary(
            f"no lemma near a gold span reaches frequency {min_freq}"
        )
    return Gazetteer({lem: i + 1 for i, lem in enumerate(kept)}, lemma_table)


def slot_filler(doc, span):
    """A span's filler string: its tokens' surfaces joined by one space."""
    surfaces = doc.types.surfaces
    ids = doc.type_ids[span.start_token : span.end_token + 1]
    return " ".join(surfaces[i] for i in ids.tolist())


def score_documents_reference(docs, predictions, fields, mode="slot"):
    """The package's earlier tally of ``score_documents``, on checked
    input: per document and field, the gold and predicted spans of the
    field found by scanning every span, and in slot mode every filler
    string built (:func:`slot_filler`) before any is compared."""
    scores = {f: FieldScore() for f in fields}
    for doc, spans in zip(docs, predictions):
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


def apply_mask(obs, mask):
    """``obs`` as ``featurize`` returns it with ``mask``: ``obs`` itself
    when the mask is empty, else a copy with the masked columns all
    ``MASKED``. An unknown name raises :class:`InvalidSpec`."""
    if not mask:
        return obs
    out = obs.copy()
    out[:, mask_columns(mask)] = MASKED
    return out


TIME_PATTERNS = (
    re.compile(r"\d\d"),                      # bare hour written as two digits
    re.compile(r"\d{1,2}:\d{2}"),             # 3:30
    re.compile(r"\d{1,2}\.\d{2}"),            # 3.30
    re.compile(r"\d{1,2}(?::\d{2})?(?:am|pm)"),  # 7pm, 7:30pm
)


def matches_time_reference(low):
    """Whether a lowercased surface is a time by one of the four patterns."""
    return any(p.fullmatch(low) for p in TIME_PATTERNS)


def featurize_reference(doc, gazetteer, lexicons, mask=()):
    """Every feature of every token computed afresh, one cell at a time."""
    mask = set(mask)
    unknown = mask - set(FEATURE_NAMES)
    if unknown:
        raise InvalidSpec(f"unknown feature names in mask: {sorted(unknown)}")
    if gazetteer is None or lexicons is None:
        raise MissingResource("featurize needs both a gazetteer and lexicons")

    T = len(doc.tokens)
    out = np.full((T, len(FEATURE_NAMES)), MASKED, dtype=np.int16)
    pos_col = doc.column("pos")
    chunk_col = doc.column("chunk")
    for t, tok in enumerate(doc.tokens):
        if "lemma" not in mask:
            out[t, 0] = gazetteer_id_reference(gazetteer, tok) - 1
        if "pos" not in mask:
            out[t, 1] = POS_CLUSTERS.index(pos_cluster(pos_col[t]))
        if "chunk" not in mask:
            out[t, 2] = CHUNKS.index(chunk_flatten(chunk_col[t]))
        if "semantic" not in mask:
            out[t, 3] = SEMANTIC.index(semantic_feature(tok.surface, tok.kind, lexicons))
        if "case" not in mask:
            out[t, 4] = CASES.index(case_feature(tok.surface))
        if "length" not in mask:
            out[t, 5] = LENGTH_BUCKETS.index(length_feature(tok.surface))
    return out


def tag_spans_reference(doc_id, tokens, char_spans, fields):
    """Gold spans and lint issues for ``(field, start, end)`` character
    spans of the tag-stripped text, as ``parse_tagged_document`` reports
    them, found by testing every token against every span."""
    spans = []
    issues = []
    for name, cs, ce in char_spans:
        inside = [i for i, t in enumerate(tokens) if t.start >= cs and t.end <= ce]
        partial = [
            i for i, t in enumerate(tokens) if t.start < ce and t.end > cs and i not in inside
        ]
        if inside or partial:
            anchor = (inside or partial)[0]
        else:
            # the first token that starts at or after the pair, else the last
            later = [i for i, t in enumerate(tokens) if t.start >= cs]
            anchor = later[0] if later else len(tokens) - 1
        if name not in fields:
            issues.append(LintIssue(doc_id, anchor, "UNKNOWN_FIELD", f"tag <{name}> dropped"))
            continue
        for i in partial:
            issues.append(
                LintIssue(
                    doc_id,
                    i,
                    "PARTIAL_BOUNDARY",
                    f"<{name}> boundary falls inside token {tokens[i].surface!r}",
                )
            )
        if not inside:
            issues.append(LintIssue(doc_id, anchor, "EMPTY_SPAN", f"<{name}> covers no token"))
            continue
        if len(inside) > 15:
            issues.append(
                LintIssue(doc_id, inside[0], "LONG_SPAN", f"<{name}> covers {len(inside)} tokens")
            )
        spans.append(TagSpan(name, inside[0], inside[-1]))
    spans.sort(key=lambda s: s.start_token)
    return tuple(spans), issues


def strip_tags_reference(raw):
    """The tag-stripped text of the well-formed ``raw`` and its tag pairs as
    ``(field, start, end)`` offsets into that text, one tag at a time."""
    pieces, char_spans, last, opened = [], [], 0, None
    for m in re.finditer(r"<(/?)([A-Za-z][A-Za-z0-9_-]*)>", raw):
        pieces.append(raw[last : m.start()])
        last = m.end()
        at = sum(map(len, pieces))
        if m.group(1):
            char_spans.append((m.group(2), opened, at))
        else:
            opened = at
    return "".join(pieces) + raw[last:], char_spans


def tokenize_reference(text, abbreviations=frozenset()):
    """The tokens of ``tokenize`` with no memo, given the bundled
    abbreviations: every whitespace chunk is split and classified on its
    own."""
    tokens = []
    for m in re.finditer(r"\S+", text):
        for surface, off in _split_chunk(m.group(), abbreviations):
            start = m.start() + off
            tokens.append(Token(surface, start, start + len(surface), token_kind(surface)))
    return tuple(tokens)


def token_kind_reference(surface):
    """``token_kind`` with a set of every character's major category."""
    if surface.isalpha():
        return KIND_WORD
    if len(surface) > 1 and surface[-1] == "." and surface[:-1].isalpha():
        return KIND_WORD
    if surface.isdigit() or _DECIMAL_RE.fullmatch(surface):
        return KIND_NUMBER
    cats = {unicodedata.category(c)[0] for c in surface}
    if cats <= {"P", "S"}:
        if len(surface) == 1 and unicodedata.category(surface)[0] == "P":
            return KIND_PUNCT
        return KIND_SYMBOL
    return KIND_MIXED
