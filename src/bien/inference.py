"""Exact MAP inference on the compiled chain: Viterbi, one document at a
time or a batch of documents at once.

Both recursions run in log space over the emission scores that
``Evidence.log_emission`` returns, with the same floating-point operations
in the same order, so they return identical paths and scores. The
package's evidence is the observation matrix alone; ``ClampedEvidence``
in ``tests/oracles.py`` subclasses it to add per-token -inf masks on tag
and segment values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityEvidence

# Documents per packed chunk in ``viterbi_batch``. Each step's (k, S, S)
# score block then stays cache-sized at 42 states: on 2 vCPU (AMD EPYC,
# 2 MiB L2), decode measured about 1.85, 1.64, 1.60, 1.72 and 1.83 us per
# token at 8, 16, 32, 64 and 97 (all) documents per chunk.
_BATCH_DOCS = 32


@dataclass
class Evidence:
    """The (T, K) observation matrix of one document."""

    obs: np.ndarray

    def __len__(self):
        return self.obs.shape[0]

    def log_emission(self, chain):
        """The (T, S) emission log-probabilities of every chain state."""
        return chain.log_emission(self.obs)


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


def viterbi_batch(chain, evidences):
    """``viterbi`` for many documents: ``(path, score)`` per evidence, in
    input order, each identical to what ``viterbi`` returns for it.

    Documents are sorted longest first (stably) and cut into chunks of
    ``_BATCH_DOCS``. A chunk is packed time-major, so the documents alive
    at step t are a prefix of those alive at step t-1, and each step
    scores every move of all of them with one (k, S, S) add and one
    argmax. If any document has no live state at some step, this raises
    the :class:`ZeroProbabilityEvidence` of the first such document in
    input order, at its first dead step.
    """
    if len(evidences) == 1:
        # one document decodes faster without the packing
        return [viterbi(chain, evidences[0])]
    order = sorted(range(len(evidences)), key=lambda i: -len(evidences[i]))
    # row j of each copy holds the scores of every move into j; with one
    # copy per document the (k, S, S) add broadcasts only the previous
    # scores, which measured faster than broadcasting both operands
    trans_T = np.empty((min(len(order), _BATCH_DOCS),) + chain.log_trans.shape)
    trans_T[:] = chain.log_trans.T
    results = {}
    dead = {}  # input index -> first dead step
    for lo in range(0, len(order), _BATCH_DOCS):
        chunk = order[lo : lo + _BATCH_DOCS]
        decoded, chunk_dead = _viterbi_chunk(chain, trans_T, [evidences[i] for i in chunk])
        results.update(zip(chunk, decoded))
        dead.update((chunk[p], step) for p, step in chunk_dead.items())
    if dead:
        step = dead[min(dead)]
        raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    return [results[i] for i in range(len(evidences))]


def _viterbi_chunk(chain, trans_T, evidences):
    """``(path, score)`` per document, for documents sorted longest first,
    and ``{position: first dead step}`` for those with a step that no
    state admits."""
    S = chain.n_states
    k = len(evidences)
    lengths = np.array([len(ev) for ev in evidences])
    T = int(lengths[0])
    # n[t] documents are alive at step t; step t's rows start at off[t]
    n = k - np.cumsum(np.bincount(lengths, minlength=T + 1))[:T]
    off = np.concatenate([[0], np.cumsum(n)])
    # ``best`` holds the packed emissions until the recursion overwrites them
    best = np.empty((off[-1], S))
    for p, ev in enumerate(evidences):
        best[off[: lengths[p]] + p] = ev.log_emission(chain)
    backptr = np.zeros((off[-1], S), dtype=np.intp)
    n, off = n.tolist(), off.tolist()
    prev_rows = best.reshape(-1, 1, S)
    scores = np.empty((k, S, S))
    flat_scores = scores.reshape(-1)
    row_starts = np.arange(0, k * S * S, S).reshape(k, S)
    picked = np.empty((k, S), dtype=np.intp)
    moved = np.empty((k, S))
    if T:
        best[: n[0]] += chain.log_init
    # per step, for the m documents alive: score every move, pick the
    # first best predecessor of each state, gather its score, add the
    # emission
    for t in range(1, T):
        m, a, b = n[t], off[t - 1], off[t]
        np.add(trans_T[:m], prev_rows[a : a + m], out=scores[:m])
        ptr = backptr[b : b + m]
        scores[:m].argmax(axis=2, out=ptr)
        np.add(ptr, row_starts[:m], out=picked[:m])
        flat_scores.take(picked[:m], out=moved[:m])
        best[b : b + m] += moved[:m]
    # a step with no live state leaves every later step dead as well
    rows = np.flatnonzero(best.max(axis=1) == -np.inf)
    steps = np.searchsorted(off, rows, side="right") - 1
    dead = {}
    for t, p in zip(steps.tolist(), (rows - np.take(off, steps)).tolist()):
        dead.setdefault(p, t)
    decoded = []
    for p, length in enumerate(lengths.tolist()):
        if not length:
            decoded.append((np.zeros(0, dtype=np.int64), 0.0))
            continue
        last = off[length - 1] + p
        state = int(best[last].argmax())
        score = best.item(last, state)
        path = [state]
        for t in range(length - 1, 0, -1):
            state = backptr.item(off[t] + p, state)
            path.append(state)
        decoded.append((np.array(path[::-1], dtype=np.int64), score))
    return decoded, dead
