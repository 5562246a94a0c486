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
so ties still break toward the lowest state index.

For one document the cost is numpy's per-call overhead, so ``viterbi``
makes each step a few calls on fixed buffers. It keeps the previous
scores tiled in an ``(S, S)`` buffer, so that scoring every move is one
contiguous add of S * S values, where adding an ``(S,)`` row to an
``(S, S)`` block runs S inner loops of S. On 2 vCPU with numpy 2.4.6, at
42 states, that add takes 0.34 us against 1.0 us, plus 0.31 us for the
tiling copy. Its backpointers are flat indices into the step's scores,
which the gather reads unchecked. The max-only step of ``viterbi_batch``
is slower for one document, so ``viterbi`` keeps the argmax.

``viterbi`` scores a document's observation matrix (``Evidence``);
``ClampedEvidence`` in ``tests/oracles.py`` adds per-token -inf masks on
tag and segment values. ``viterbi_batch`` reads one ``(R, S)`` table of
emission scores and each document's row numbers into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ZeroProbabilityEvidence
from .model import TimeMajor

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


def viterbi(chain, evidence):
    """Most probable state path and its log score.

    Ties break toward the lowest state index, both for backpointers and
    for the final state. An empty document has an empty path scoring 0.
    A step that no state admits raises :class:`ZeroProbabilityEvidence`
    at the first such step.

    Each step is six calls on fixed buffers: tile the previous scores,
    add the flat transposed transitions to them, take each state's
    ``argmax``, offset it by its row's start into a flat backpointer,
    gather through that into the step's row, and add the emission. The
    backtrace walks the backpointers in Python ints.
    """
    emis = evidence.log_emission(chain)
    T, S = emis.shape
    if T == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    # Row j of ``trans_T`` and of ``scores`` holds every move into j, and
    # every row of ``tiled`` the previous step's scores; the add reads all
    # three flat.
    trans_T = chain.log_trans.T.reshape(-1)
    tiled = np.empty((S, S))
    flat_tiled = tiled.reshape(-1)
    scores = np.empty((S, S))
    flat_scores = scores.reshape(-1)
    row_starts = np.arange(0, S * S, S)
    ptr = np.empty(S, dtype=np.intp)
    best = np.empty((T, S))
    # picked[t, j]: the flat index into step t's ``scores`` of the best move into j
    picked = np.zeros((T, S), dtype=np.intp)
    np.add(chain.log_init, emis[0], best[0])
    add, argmax, take = np.add, scores.argmax, flat_scores.take
    # per step: score every move, pick the first best predecessor of each
    # state, gather its score, add the emission
    for prev, cur, back, e in zip(best, best[1:], picked[1:], emis[1:]):
        tiled[...] = prev
        add(trans_T, flat_tiled, flat_scores)
        argmax(1, ptr)
        add(ptr, row_starts, back)
        take(back, None, cur, "clip")  # every index is in range
        add(cur, e, cur)
    # a step with no live state leaves every later step dead (-inf, or NaN
    # where a NaN entered), so only a last step with no finite score needs
    # the scan for the first dead step
    if not best[-1].max() > -np.inf:
        dead = np.flatnonzero(best.max(axis=1) == -np.inf)
        if dead.size:
            step = int(dead[0])
            raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    state = int(best[-1].argmax())
    score = best.item(T - 1, state)
    states = [state] * T
    item = picked.item
    for t in range(T - 1, 0, -1):
        state = item(t, state) - S * state
        states[t - 1] = state
    return np.array(states, dtype=np.int64), score


def viterbi_batch(chain, table, rows):
    """``viterbi`` for many documents, document i scoring ``table[rows[i]]``:
    ``(path, score)`` per document, in input order, each identical to what
    ``viterbi`` returns for those emission scores. Unless ``table`` is a
    float64 ``(R, S)`` array and each of ``rows`` a 1-D integer array in
    ``0 .. R - 1``, this raises :class:`InvalidSpec` before decoding.

    Documents are sorted longest first and cut into chunks of
    ``_BATCH_DOCS``, each packed in a :class:`bien.model.TimeMajor`
    layout. The forward pass keeps only each state's best score: per step,
    one add lays out every move of every live document predecessor-major,
    ``(S, m, S)``, and one maximum over the leading axis reduces it. The
    backtrace then finds each document's best predecessors along its own
    path only, one step at a time for the whole chunk. If any document has
    no live state at some step, this raises the
    :class:`ZeroProbabilityEvidence` of the first such document in input
    order, at its first dead step.
    """
    table, S = np.asarray(table), chain.n_states
    try:
        flat = np.concatenate(rows) if len(rows) else np.zeros(0, dtype=np.intp)
    except ValueError:  # a 0-d row, or rows of different dimensions
        flat = None
    if not (
        table.dtype == np.float64
        and table.shape[1:] == (S,)
        and flat is not None
        and flat.dtype.kind in "iu"
        and flat.ndim == 1
        and (not flat.size or 0 <= flat.min() <= flat.max() < len(table))
    ):
        raise InvalidSpec(
            f"emissions must be a float64 (R, {S}) table and 1-D integer row numbers "
            f"in 0 .. R - 1, got a {table.dtype} table of shape {table.shape}"
        )
    order = np.argsort([-len(r) for r in rows], kind="stable").tolist()
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
            chain, trans_rep, trans_T, table, [rows[i] for i in chunk]
        )
        results.update(zip(chunk, decoded))
        dead.update((chunk[p], step) for p, step in chunk_dead.items())
    if dead:
        step = dead[min(dead)]
        raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    return [results[i] for i in range(len(rows))]


def _viterbi_chunk(chain, trans_rep, trans_T, table, rows):
    """``(path, score)`` per document p, scoring ``table[rows[p]]``, for
    documents sorted longest first (so that their layout keeps their
    order), and ``{p: first dead step}`` where no state admits a step."""
    S = chain.n_states
    k = len(rows)
    lengths = [len(r) for r in rows]
    layout = TimeMajor(lengths)
    steps, live = layout.steps, layout.live.tolist() + [0]
    packed = layout.rows()
    doc_rows = np.split(packed, np.cumsum(lengths[:-1]))
    # each packed row's table row, so one gather makes ``best``, with no temporary
    table_rows = np.empty(len(packed), dtype=np.intp)
    table_rows[packed] = np.concatenate(rows)
    best = table[table_rows]  # the packed emissions, until the recursion adds to them
    moves = np.empty((S, k, S))
    into = np.empty((k, S))
    if steps:
        best[steps[0][0]] += chain.log_init
    # per step, for the m documents alive: score every move, keep each
    # state's best, add the emission
    for (cur, prev), m in zip(steps[1:], live[1:]):
        np.add(trans_rep[:, :m], best[prev].T[:, :, None], out=moves[:, :m])
        np.maximum.reduce(moves[:, :m], axis=0, out=into[:m])
        best[cur] += into[:m]
    # Backtrace. A document starts at the first best state of its last
    # step; each earlier state is the first best predecessor of the state
    # after it.
    path = np.empty(len(best), dtype=np.int64)
    state = np.empty(k, dtype=np.intp)
    score = np.zeros(k)  # an empty document scores 0
    for t in range(len(steps) - 1, -1, -1):
        (cur, prev), m, ending = steps[t], live[t], live[t + 1]
        if ending < m:  # the documents whose last step is t
            last = best[cur][ending:]
            state[ending:m] = last.argmax(axis=1)
            score[ending:m] = last[np.arange(m - ending), state[ending:m]]
        path[cur] = state[:m]
        if prev is not None:
            np.add(trans_T[state[:m]], best[prev], out=into[:m])
            into[:m].argmax(axis=1, out=state[:m])
    # a step with no live state leaves every later step dead as well, so
    # only a document whose last step has no finite score can have one
    dead = {}
    for p in np.flatnonzero(~(score > -np.inf)).tolist():
        steps_dead = np.flatnonzero(best[doc_rows[p]].max(axis=1) == -np.inf)
        if steps_dead.size:
            dead[p] = int(steps_dead[0])
    return [(path[rows], score.item(p)) for p, rows in enumerate(doc_rows)], dead
