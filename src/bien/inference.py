"""Exact MAP inference on the compiled chain: Viterbi, one document at a
time or a batch of documents at once.

Both recursions run in log space over the emission scores that the
evidence's ``log_emission`` returns, and they return identical paths and
scores. At every step both form the same sums, the score of each move
plus the previous score of its source. ``viterbi`` takes each state's
first best predecessor by ``argmax`` and reads its score through that
index. ``viterbi_batch`` keeps only the best score, by ``np.maximum``,
which returns the very float that ``argmax`` picks. Its backtrace forms
the sums again along the decoded path alone and takes their ``argmax``,
so ties still break toward the lowest state index. For one document the
argmax step is the faster (3.1 against 4.2 us per step on 2 vCPU), so
``viterbi`` keeps it.

The package's evidence is the observation matrix of a document
(``Evidence``), or its rows of a table of emission scores that a batch
computes once per distinct observation row (``EmissionRows``).
``ClampedEvidence`` in ``tests/oracles.py`` subclasses ``Evidence`` to add
per-token -inf masks on tag and segment values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityEvidence

# Documents per packed chunk in ``viterbi_batch``. Each step's (S, k, S)
# score block then stays cache-sized at 42 states. On 2 vCPU (AMD EPYC,
# 2 MiB L2), decoding the 5 test sides of the default experiment on
# ``generate_corpus(485, 1993)`` (56,749 tokens) took about 1.77, 1.44,
# 1.32, 1.32, 1.36 and 1.48 us per token at 8, 16, 32, 48, 64 and 97 (all)
# documents per chunk; 32 ties 48 with the smaller block.
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


@dataclass
class EmissionRows:
    """The evidence of one document whose emission scores are rows of a
    shared ``(R, S)`` table, as ``CompiledChain.distinct_log_emission``
    returns them: token t scores ``table[rows[t]]``."""

    table: np.ndarray
    rows: np.ndarray

    def __len__(self):
        return len(self.rows)

    def log_emission(self, chain):
        return self.table[self.rows]


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
    at step t are a prefix of those alive at step t-1. The forward pass
    keeps only each state's best score: per step, one add lays out every
    move of every live document predecessor-major, ``(S, m, S)``, and one
    maximum over the leading axis reduces it. The backtrace then finds each
    document's best predecessors along its own path only, one step at a
    time for the whole chunk. If any document has no live state at some
    step, this raises the :class:`ZeroProbabilityEvidence` of the first
    such document in input order, at its first dead step.
    """
    if len(evidences) == 1:
        # one document decodes faster without the packing
        return [viterbi(chain, evidences[0])]
    order = sorted(range(len(evidences)), key=lambda i: -len(evidences[i]))
    S = chain.n_states
    # trans_rep[i, d, j] holds the score of the move i -> j once per chunk
    # slot d, so the step's add broadcasts only the previous scores
    trans_rep = np.empty((S, min(len(order), _BATCH_DOCS), S))
    trans_rep[:] = chain.log_trans[:, None, :]
    trans_T = chain.log_trans.T.copy()  # row j: scores of every move into j
    results = {}
    dead = {}  # input index -> first dead step
    for lo in range(0, len(order), _BATCH_DOCS):
        chunk = order[lo : lo + _BATCH_DOCS]
        decoded, chunk_dead = _viterbi_chunk(
            chain, trans_rep, trans_T, [evidences[i] for i in chunk]
        )
        results.update(zip(chunk, decoded))
        dead.update((chunk[p], step) for p, step in chunk_dead.items())
    if dead:
        step = dead[min(dead)]
        raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    return [results[i] for i in range(len(evidences))]


def _viterbi_chunk(chain, trans_rep, trans_T, evidences):
    """``(path, score)`` per document, for documents sorted longest first,
    and ``{position: first dead step}`` for those with a step that no
    state admits."""
    S = chain.n_states
    k = len(evidences)
    lengths = np.array([len(ev) for ev in evidences])
    T = int(lengths[0])
    # n[t] documents are alive at step t; step t's rows start at starts[t]
    n = k - np.cumsum(np.bincount(lengths, minlength=T + 1))[:T]
    starts = np.concatenate([[0], np.cumsum(n)])
    # ``best`` holds the packed emissions until the recursion adds to them
    best = np.empty((starts[-1], S))
    for p, ev in enumerate(evidences):
        best[starts[: lengths[p]] + p] = ev.log_emission(chain)
    n, off = n.tolist() + [0], starts.tolist()
    moves = np.empty((S, k, S))
    into = np.empty((k, S))
    if T:
        best[: n[0]] += chain.log_init
    # per step, for the m documents alive: score every move, keep each
    # state's best, add the emission
    for t in range(1, T):
        m, a, b = n[t], off[t - 1], off[t]
        np.add(trans_rep[:, :m], best[a : a + m].T[:, :, None], out=moves[:, :m])
        np.maximum.reduce(moves[:, :m], axis=0, out=into[:m])
        best[b : b + m] += into[:m]
    # Backtrace. A document starts at the first best state of its last
    # step; each earlier state is the first best predecessor of the state
    # after it.
    path = np.empty(off[-1], dtype=np.int64)
    state = np.empty(k, dtype=np.intp)
    score = np.zeros(k)  # an empty document scores 0
    for t in range(T - 1, -1, -1):
        m, ending, b = n[t], n[t + 1], off[t]
        if ending < m:  # the documents whose last step is t
            state[ending:m] = best[b + ending : b + m].argmax(axis=1)
            score[ending:m] = best[np.arange(b + ending, b + m), state[ending:m]]
        path[b : b + m] = state[:m]
        if t:
            a = off[t - 1]
            np.add(trans_T[state[:m]], best[a : a + m], out=into[:m])
            into[:m].argmax(axis=1, out=state[:m])
    # a step with no live state leaves every later step dead as well, so
    # only a document whose last step has no finite score can have one
    dead = {}
    for p in np.flatnonzero(~(score > -np.inf)).tolist():
        steps = np.flatnonzero(best[starts[: lengths[p]] + p].max(axis=1) == -np.inf)
        if steps.size:
            dead[p] = int(steps[0])
    return [
        (path[starts[:length] + p], score.item(p)) for p, length in enumerate(lengths.tolist())
    ], dead
