"""Exact inference on the compiled chain: forward-backward and Viterbi.

All recursions run in log space over the emission scores that
``Evidence.log_emission`` returns. The package's evidence is the
observation matrix alone; ``ClampedEvidence`` in ``tests/oracles.py``
subclasses it to add per-token -inf masks on tag and segment values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ZeroProbabilityEvidence

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
class Evidence:
    """The (T, K) observation matrix of one document."""

    obs: np.ndarray

    def __len__(self):
        return self.obs.shape[0]

    def log_emission(self, chain):
        """The (T, S) emission log-probabilities of every chain state."""
        return chain.log_emission(self.obs)


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


def viterbi(chain, evidence):
    """Most probable state path and its log score.

    Ties break toward the lowest state index, both for backpointers and
    for the final state. An empty document has an empty path scoring 0.
    """
    emis = evidence.log_emission(chain)
    T, S = emis.shape
    if T == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    trans_T = chain.log_trans.T.copy()  # row j: scores of every move into j
    scores = np.empty((S, S))
    flat_scores = scores.reshape(-1)
    row_starts = np.arange(0, S * S, S)
    picked = np.empty(S, dtype=np.intp)
    best = np.empty((T, S))
    backptr = np.zeros((T, S), dtype=np.intp)
    np.add(chain.log_init, emis[0], out=best[0])
    # per step: score every move, pick the first best predecessor of each
    # state, gather its score, add the emission
    for prev, cur, ptr, e in zip(best, best[1:], backptr[1:], emis[1:]):
        np.add(trans_T, prev, out=scores)
        scores.argmax(axis=1, out=ptr)
        np.add(ptr, row_starts, out=picked)
        flat_scores.take(picked, out=cur)
        cur += e
    # a step with no live state leaves every later step dead as well
    dead = np.flatnonzero(best.max(axis=1) == -np.inf)
    if dead.size:
        step = int(dead[0])
        raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(best[-1]))
    score = float(best[-1, path[-1]])
    for t in range(T - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, score
