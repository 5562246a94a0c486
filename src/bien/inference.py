"""Exact MAP inference on the compiled chain: Viterbi, one document at a
time or a batch of documents at once.

Both recursions run in log space over the emission scores that the
evidence's ``log_emission`` returns, and they return identical paths and
scores. Every sum either forms is the score of a move plus the previous
score of its source. ``viterbi`` forms all S * S of them at each step,
takes each state's first best predecessor by ``argmax`` and reads its
score through that index. ``viterbi_batch`` keeps only the best score,
by ``np.maximum``, which returns the very float that ``argmax`` picks.
It skips most moves that score -inf: the compiled chain keeps the DBN's
structure only as -inf transitions (820 of the 1,764 moves are finite at
42 states), so a state with few finite predecessors is scored over those
alone. A skipped sum is -inf, so the max is the same float, as long as
no score is NaN or +inf, which ``viterbi_batch`` refuses. Its backtrace
forms every sum again along the decoded path alone and takes their
``argmax``, so ties still break toward the lowest state index.

For one document the cost is numpy's per-call overhead, so ``viterbi``
makes each step a few calls on fixed buffers. It keeps the previous
scores tiled in an ``(S, S)`` buffer, so that scoring every move is one
contiguous add of S * S values, where adding an ``(S,)`` row to an
``(S, S)`` block runs S inner loops of S. On 2 vCPU with numpy 2.4.6, at
42 states, that add takes 0.34 us against 1.0 us, plus 0.31 us for the
tiling copy. Its backpointers are flat indices into the step's scores,
which the gather reads unchecked. The max-only step of ``viterbi_batch``
is slower for one document, so ``viterbi`` keeps the argmax.

``viterbi_batch`` packs the whole batch in one time-major layout, so it
gathers the emission scores once and walks every document back in one
backtrace. Only its forward pass works in chunks of documents, each a
slice of the layout at every step. That pass is most of its time, and it
forms 932 sums per document-step at 42 states, not 1,764.

``viterbi`` scores a document's observation matrix (``Evidence``);
``ClampedEvidence`` in ``tests/oracles.py`` adds per-token -inf masks on
tag and segment values. ``viterbi_batch`` reads one ``(R, S)`` table of
emission scores, a flat array of each token's row in it, and the lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ZeroProbabilityEvidence
from .model import TimeMajor, check_lengths

# Documents per chunk of ``viterbi_batch``'s forward pass. Only that pass
# is chunked: the batch has one layout, one emission gather and one
# backtrace, over a table of forward scores for the whole batch (3.8 MB on
# a holdout test side of ``generate_corpus(485, 1993)``). Each step's
# blocks stay cache-sized at 42 states: (S, k, 16) sums for the states with
# many predecessors and (10, 26, k) for the others. On 2 vCPU (AMD EPYC,
# 2 MiB L2, numpy 2.4.6), decoding the 5 test sides of the default
# experiment on ``generate_corpus(485, 1993)`` (56,749 tokens), medians of
# 35 interleaved repeats in one session, twice, took 3.1-3.3, 2.4-2.5,
# 2.3-2.4, 2.1-2.2, 1.9-2.0, 2.1 and 2.0 us per token at 8, 16, 24, 32, 48,
# 64 and 97 (all) documents per chunk. 64 is no faster than 32; 48 was
# about 10% faster in-process, which no end-to-end run has confirmed.
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


def _split_by_in_degree(log_trans):
    """The states of a chain split by their number of finite predecessors
    (in-degree) at the cut that forms the fewest sums per document-step:
    the k states of lowest in-degree are each scored over a list of w
    predecessors, w the largest in-degree among them (at least 1), and
    the others over all S states, so the step forms k * w + (S - k) * S
    sums. At 42 states that is 26 states of in-degree at most 10 (932
    sums, against 1,764), at 34 it is 16 of in-degree 4 (676 against
    1,156).

    Returns ``(many, few, preds)``: the states scored over all, those
    scored over their own, both in index order, and the ``(w, k)`` array
    of the latter's predecessors, in index order, each list padded by
    repeating its last entry. So a pad repeats a sum already formed, and
    the max is exact. A state with no finite predecessor gets state 0,
    whose move into it scores -inf, as every move into it does.
    """
    S = len(log_trans)
    finite = np.isfinite(log_trans)
    degree = finite.sum(axis=0)
    by_degree = np.argsort(degree, kind="stable")
    width = np.maximum(degree[by_degree], 1)
    k = np.arange(1, S + 1)
    sums = np.concatenate([[S * S], width * k + (S - k) * S])
    k = int(sums.argmin())
    few, many = np.sort(by_degree[:k]), np.sort(by_degree[k:])
    w = int(width[k - 1]) if k else 1
    # slot s of a state: its s-th predecessor, or its last past its in-degree
    slot = np.minimum(np.arange(w)[:, None], np.maximum(degree[few] - 1, 0))
    listed = np.argsort(~finite[:, few], axis=0, kind="stable")  # predecessors first
    return many, few, np.take_along_axis(listed, slot, axis=0)


def viterbi_batch(chain, table, rows, lengths):
    """``viterbi`` for many documents, document i scoring the table rows
    that the next ``lengths[i]`` entries of ``rows`` number: ``(path,
    score)`` per document, in input order, each identical to what
    ``viterbi`` returns for those emission scores; the paths are views of
    one array. Unless ``table`` is a float64 ``(R, S)`` array, ``rows`` 1-D
    integers in ``0 .. R - 1`` and ``lengths`` split them
    (:func:`bien.model.check_lengths`), this raises :class:`InvalidSpec`,
    as it does for a NaN or +inf in ``table`` or in the chain's
    ``log_init`` or ``log_trans``, with which ``viterbi``'s sums can be
    NaN (a NaN, or +inf plus a -inf move).

    The batch is packed in one :class:`bien.model.TimeMajor` layout, its
    documents sorted longest first, and one gather of the emission scores
    makes the table of forward scores, one row per token: 11,435 x 42
    float64 (3.8 MB) on a holdout test side of ``generate_corpus(485,
    1993)``. The forward pass keeps only each state's best score. It runs
    chunk by chunk, over runs of ``_BATCH_DOCS`` documents of that order;
    as the documents alive at a step are a prefix of the order, a chunk's
    rows at each step are one slice of the layout. The states are split
    once per call by their number of finite predecessors
    (:func:`_split_by_in_degree`). Per step, for the chunk's m live
    documents, the states with many predecessors take one add that lays
    out every move into them predecessor-major, ``(S, m, 16)`` at 42
    states, and one maximum over the leading axis. The others take one
    ``take`` of their padded predecessors' scores from the state-major view
    of the previous step, ``[slot, state, document]``, ``(10, 26, m)``, one
    add of those moves' scores and one maximum over the slots, so both run
    with the documents innermost. One gather of the columns puts the
    states back in order before the emission is added to them. One
    backtrace then walks every document back at once: per step, one
    gather of the moves into each live document's state, one add of the
    previous scores and one ``argmax``. If any document has no live state
    at some step, this raises the :class:`ZeroProbabilityEvidence` of the
    first such document in input order, at its first dead step.
    """
    table, rows, S = np.asarray(table), np.asarray(rows), chain.n_states
    if not (
        table.dtype == np.float64
        and table.shape[1:] == (S,)
        and rows.dtype.kind in "iu"
        and rows.ndim == 1
        and (not rows.size or 0 <= rows.min() <= rows.max() < len(table))
    ):
        raise InvalidSpec(
            f"emissions must be a float64 (R, {S}) table and 1-D integer row numbers "
            f"in 0 .. R - 1, got a {table.dtype} table of shape {table.shape}"
        )
    for name, scores in (("log_init", chain.log_init), ("log_trans", chain.log_trans),
                         ("emission table", table)):
        if not (scores < np.inf).all():
            raise InvalidSpec(f"the {name} holds NaN or +inf; a batched decode scores only "
                              "finite values and -inf")
    lengths = check_lengths(lengths, len(rows))
    n = len(lengths)
    layout = TimeMajor(lengths)
    starts, live = layout.starts.tolist(), layout.live.tolist() + [0]
    # each packed row's table row, so one gather makes ``best``, with no temporary
    packed = layout.rows()
    table_rows = np.empty(len(packed), dtype=np.intp)
    table_rows[packed] = rows
    best = table[table_rows]  # the packed emissions, until the recursion adds to them
    best[: live[0]] += chain.log_init
    many, few, preds = _split_by_in_degree(chain.log_trans)
    d = len(many)
    # trans_rep[i, c, j] holds the score of the move i -> many[j] once per
    # chunk slot c, so the step's add broadcasts only the previous scores
    trans_rep = np.empty((S, min(n, _BATCH_DOCS), d))
    trans_rep[:] = chain.log_trans[:, None, many]
    moves = np.empty_like(trans_rep)
    few_trans = chain.log_trans[preds, few][:, :, None]  # [slot, state, 1]
    restore = np.argsort(np.concatenate([many, few]))  # each state's column in ``into``
    into = np.empty((n, S))
    by_state = best.T  # the previous step's scores, state by state
    # per chunk and step, for the m documents of the chunk alive: score the
    # moves into each state, keep its best, add the emission
    ranked = layout.lengths[layout.order]  # the lengths, longest first
    for lo, T in zip(range(0, n, _BATCH_DOCS), ranked[::_BATCH_DOCS].tolist()):
        for t in range(1, T):
            m = min(live[t] - lo, _BATCH_DOCS)
            cur, prev = starts[t] + lo, starts[t - 1] + lo
            np.add(trans_rep[:, :m], by_state[:, prev : prev + m, None], out=moves[:, :m])
            np.maximum.reduce(moves[:, :m], axis=0, out=into[:m, :d])
            block = by_state[:, prev : prev + m].take(preds, axis=0)  # [slot, state, document]
            block += few_trans
            np.maximum.reduce(block, axis=0, out=into[:m, d:].T)
            best[cur : cur + m] += into[:m].take(restore, axis=1)
    # Backtrace. A document starts at the first best state of its last
    # step; each earlier state is the first best predecessor of the state
    # after it.
    nonempty = np.arange(live[0])  # the ranks of the non-empty documents
    last = best[layout.starts[ranked[: live[0]] - 1] + nonempty]  # their last rows
    first = last.argmax(axis=1)
    score = np.zeros(n)  # an empty document scores 0
    score[nonempty] = last[nonempty, first]
    trans_T = chain.log_trans.T.copy()  # row j: scores of every move into j
    path = np.empty(len(best), dtype=np.int64)
    state = np.empty(n, dtype=np.intp)
    for t in range(len(layout.steps) - 1, -1, -1):
        (cur, prev), m, ending = layout.steps[t], live[t], live[t + 1]
        state[ending:m] = first[ending:m]  # the documents whose last step is t
        path[cur] = state[:m]
        if prev is not None:
            np.add(trans_T[state[:m]], best[prev], out=into[:m])
            into[:m].argmax(axis=1, out=state[:m])
    # a step with no live state leaves every later step dead as well, so
    # only a document whose last step has no finite score can have one
    for r in sorted(np.flatnonzero(~(score > -np.inf)).tolist(), key=layout.order.item):
        dead = np.flatnonzero(best[layout.starts[: ranked[r]] + r].max(axis=1) == -np.inf)
        if dead.size:
            step = int(dead[0])
            raise ZeroProbabilityEvidence(f"no state admits token {step}", step=step)
    scores = np.empty(n)
    scores[layout.order] = score  # in input order
    paths = np.split(path[packed], np.cumsum(lengths[:-1]))
    return list(zip(paths, scores.tolist()))
