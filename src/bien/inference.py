"""Exact inference on the compiled chain: forward-backward and Viterbi.

All recursions run in log space. Evidence carries the observation matrix
plus optional per-token clamps restricting the tag and segment values a
token may take; clamps enter the recursions as -inf masks, so clamped
inference is exact inference in the restricted chain.
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
    """Observations plus optional per-token clamps.

    ``allowed_tags``/``allowed_ds`` are boolean masks of shape (T, n_tags)
    and (T, 2); a False cell forbids that value at that token. ``None``
    leaves the variable unconstrained.
    """

    obs: np.ndarray
    allowed_tags: np.ndarray | None = None
    allowed_ds: np.ndarray | None = None

    def __len__(self):
        return self.obs.shape[0]

    @classmethod
    def from_tags(cls, obs, tag_seq, n_tags, allowed_ds=None):
        """Evidence with the tag at every token clamped to a known value."""
        T = len(tag_seq)
        allowed = np.zeros((T, n_tags), dtype=bool)
        allowed[np.arange(T), np.asarray(tag_seq)] = True
        return cls(np.asarray(obs), allowed, allowed_ds)

    def log_clamp(self, chain):
        """The clamps as a (T, S) additive log mask over chain states."""
        T = len(self)
        mask = np.zeros((T, chain.n_states))
        if self.allowed_tags is not None:
            bad = ~np.asarray(self.allowed_tags, dtype=bool)[:, chain.tag_of]
            mask[bad] = -np.inf
        if self.allowed_ds is not None:
            bad = ~np.asarray(self.allowed_ds, dtype=bool)[:, chain.ds_of]
            mask[bad] = -np.inf
        return mask


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


def _scored_emissions(chain, evidence):
    emis = chain.log_emission(evidence.obs)
    emis += evidence.log_clamp(chain)
    return emis


def forward_backward(chain, evidence):
    """Exact smoothing. Raises :class:`ZeroProbabilityEvidence` naming the
    first token at which every state dies; raises :class:`NumericError` if
    the forward and backward likelihoods disagree beyond tolerance. An empty
    document has empty posteriors and log-likelihood 0."""
    emis = _scored_emissions(chain, evidence)
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
    emis = _scored_emissions(chain, evidence)
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
