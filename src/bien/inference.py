"""Exact MAP inference on the compiled chain: Viterbi, one document at a
time or a batch of documents at once.

Both recursions run in log space over the emission scores that the
evidence's ``log_emission`` returns, and they return identical paths and
scores. ``viterbi`` forms every move's score plus the previous score of
its source, all S * S of them at each step, takes each state's first
best predecessor by ``argmax`` and reads its score through that index.

``viterbi_batch`` keeps only each state's best score, and forms far
fewer sums: the compiled chain's moves factor as the DBN's do (see
:class:`bien.model.CompiledChain`), a segment move ``log_ds[ds, ds']``
plus a move between (tag, memory) pairs ``pair_trans[p, ds', q]`` that
does not depend on the previous segment. So it eliminates the previous
segment first, as exact inference on a two-slice DBN does: stage 1
keeps, per pair and next segment, the best of the two previous
segments, and stage 2 the best pair move into each state, over the few
pairs that can precede it where there are few (the chain keeps the DBN's
structure as -inf moves). That is 550 sums per document-step at 42
states and 406 at 34, where ``viterbi`` forms 1,764 and 1,156. Its
scores are ``(best + log_ds) + pair_trans`` where ``viterbi``'s are
``best + log_trans``, which need not round alike, so a guard keeps the
results identical: the backtrace keeps each document's smallest margin
between the sum it picks and the next best. A document whose margin
could be a rounding (at most ``16 * T * ulp(|score|)``) is decoded again
by ``viterbi``, which breaks ties toward the lowest state index; every
other path is ``viterbi``'s, and its score is formed again in
``viterbi``'s order. The
decoded sides of the 5-run experiment and of the ablation grid at seeds
1993 and 7 (6,790 documents) need no fallback; their smallest margin is
3.5e-7. A NaN or +inf score would make the two recursions' sums differ
in more than rounding, so both refuse them.

For one document the cost is numpy's per-call overhead, so ``viterbi``
makes each step a few calls on fixed buffers. It keeps the previous
scores tiled in an ``(S, S)`` buffer, so that scoring every move is one
contiguous add of S * S values, where adding an ``(S,)`` row to an
``(S, S)`` block runs S inner loops of S. On 2 vCPU with numpy 2.4.6, at
42 states, that add takes 0.34 us against 1.0 us, plus 0.31 us for the
tiling copy. Its backpointers are flat indices into the step's scores,
which the gather reads unchecked. The factored step of ``viterbi_batch``
is nine calls, slower for one document, so ``viterbi`` keeps the flat
one.

``viterbi_batch`` packs the whole batch in one time-major layout, so it
gathers the emission scores once and walks every document back in one
backtrace. Only its forward pass works in chunks of documents, each a
slice of the layout at every step; that pass is most of its time.

``viterbi`` scores a document's observation matrix (``Evidence``);
``ClampedEvidence`` in ``tests/oracles.py`` adds per-token -inf masks on
tag and segment values. ``viterbi_batch`` reads one ``(R, S)`` table of
emission scores, a flat array of each token's row in it, and the lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ZeroProbabilityEvidence, check_type
from .model import CompiledChain, TimeMajor, check_lengths, join_factors

# Documents per chunk of ``viterbi_batch``'s forward pass. Only that pass
# is chunked: the batch has one layout, one emission gather and one
# backtrace, over a table of forward scores for the whole batch (3.8 MB on
# a holdout test side of ``generate_corpus(485, 1993)``). Each step's
# buffers span the whole chunk, so a wide chunk makes long contiguous adds
# and maxima: at 42 states the largest is the stage-2 block, (21, 8, 2,
# k) float64, 0.26 MB at 97 documents. On 2 vCPU (Intel Xeon, 4 MiB L2,
# numpy 2.4.6), decoding the 5 test sides of the default experiment on
# ``generate_corpus(485, 1993)`` (56,749 tokens), medians of 35 interleaved
# repeats in one session, twice, took 3.3-3.4, 2.3-2.4, 1.8-1.9, 1.8,
# 1.6-1.7 and 1.4-1.5 us per token at 8, 16, 32, 48, 64 and 97 (all)
# documents per chunk, against 2.2-2.3 for the unfactored kernel at 32. So
# a test side of 97 documents is one chunk. Past 128 documents the chunks
# pay, where one chunk's stage-2 block would grow to 3.2 MB at 1,188
# documents. A model trained on ``generate_corpus(485, 1993)`` decoded the
# 1,188 non-empty documents of ``generate_corpus(1188, 1994)`` (137,172
# tokens) on the same host: medians of 7 and 15 interleaved repeats, in two
# sessions, took 1.66 and 1.68 us per token in chunks of 128 against 1.90
# and 2.03 as one chunk, and on the first 400 documents 1.60 and 1.87
# against 1.73 and 1.95. Paths and scores were identical either way.
_BATCH_DOCS = 128


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
    at the first such step, and a ``chain`` that is not a
    :class:`~bien.model.CompiledChain` :class:`InvalidSpec`. ``evidence``
    is anything with a ``log_emission(chain)`` method, whose scores are read
    with ``np.asarray``; as in ``viterbi_batch``, scores that are not a
    float64 ``(T, S)`` array raise :class:`InvalidSpec`, and so does a NaN
    or +inf in them or in the chain's ``log_init`` or, past one token,
    ``log_trans``, whatever step is dead.

    Each step is six calls on fixed buffers: tile the previous scores,
    add the flat transposed transitions to them, take each state's
    ``argmax``, offset it by its row's start into a flat backpointer,
    gather through that into the step's row, and add the emission. The
    backtrace walks the backpointers in Python ints.
    """
    check_type("chain", chain, CompiledChain)
    emis, S = np.asarray(evidence.log_emission(chain)), chain.n_states
    if not (emis.dtype == np.float64 and emis.shape[1:] == (S,)):
        raise InvalidSpec(f"emissions must be a float64 (T, {S}) array, "
                          f"got {emis.dtype} of shape {emis.shape}")
    return _viterbi(chain, emis)


def _viterbi(chain, emis):
    """``viterbi`` over the ``(T, S)`` emission scores ``emis``."""
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
    add, argmax, take = np.add, scores.argmax, flat_scores.take
    # +inf plus a -inf move is NaN, which the check after the loop refuses,
    # so numpy's warning for it would only come first
    with np.errstate(invalid="ignore"):
        add(chain.log_init, emis[0], best[0])
        # per step: score every move, pick the first best predecessor of
        # each state, gather its score, add the emission
        for prev, cur, back, e in zip(best, best[1:], picked[1:], emis[1:]):
            tiled[...] = prev
            add(trans_T, flat_tiled, flat_scores)
            argmax(1, ptr)
            add(ptr, row_starts, back)
            take(back, None, cur, "clip")  # every index is in range
            add(cur, e, cur)
    # A NaN or +inf in the scores, log_init or log_trans reaches the last
    # step: once a state's score holds one, every state's best move at the
    # next step does (argmax takes NaN as the maximum, and +inf plus a -inf
    # move is NaN), and no finite score is left. So the last step's max,
    # which propagates NaN, is NaN or +inf.
    top = best[-1].max()
    if not top < np.inf:
        raise InvalidSpec("the emission scores, log_init or log_trans hold NaN or +inf; "
                          "a decode scores only finite values and -inf")
    # a step with no live state leaves every later step dead, so only a
    # dead last step needs the scan for the first dead step
    if top == -np.inf:
        step = int(np.flatnonzero(best.max(axis=1) == -np.inf)[0])
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
    sums. ``viterbi_batch`` splits the chain's (tag, memory) pairs this
    way, given the ``(P, P)`` best move score between two pairs: at 21
    pairs (42 states) 13 pairs of in-degree at most 5 are scored over
    their own, at 17 (34 states) 8 pairs of in-degree 2.

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


def _widths(counts):
    """The width of :func:`_forward`'s stage buffers at each step of a
    chunk whose steps hold ``counts`` live documents, a count that never
    rises: the first count, until a count falls to half the width or
    less, which becomes the width. So every step runs at least as wide as
    its live count and less than twice as wide."""
    widths, width = [], counts[0] if counts else 0
    for m in counts:
        if 2 * m <= width:
            width = m
        widths.append(width)
    return widths


def _forward(best, layout, log_ds, trans, d, preds):
    """The factored max-product pass of ``viterbi_batch``, in place: each
    row of ``best`` past step 0 holds its emission scores on entry and
    its forward scores on return.

    The states are in the kernel's order: state 2i + ds is pair i in
    segment ds, and ``trans[i, ds', j]`` scores the pair move i -> j into
    segment ds'. Pairs 0 .. d - 1 are scored over every pair, and each
    later pair over its column of ``preds``. Per step, on a chunk of up
    to ``_BATCH_DOCS`` columns, one document per column, pair-major with
    the documents innermost: a copy of the previous scores, stage 1 (one
    add and one maximum: ``u[i, ds'] = max_ds prev[2i + ds] + log_ds[ds,
    ds']``), stage 2 for the first d pairs (one add of every pair's ``u``
    to its moves, ``(P, d, 2, width)``, and one maximum over the pairs)
    and for the others (one gather of their predecessors' ``u``, one add
    and one maximum over the slots), and one add of the result to the
    emission scores.

    The stage buffers are contiguous, so each of their adds and maxima
    runs over whole blocks. The documents alive at a step are a prefix of
    the chunk, and their count only falls, so the buffers are built at
    the first step's live count and built again, narrower, whenever it
    falls to half their width or less (:func:`_widths`), together with
    the views that every step reads. The columns past the live count hold
    the stale scores of documents that have ended, finite or -inf, whose
    results are not read. On the 5 test sides of the default experiment
    on ``generate_corpus(485, 1993)`` the pass runs 60,271 column-steps
    for 56,264 live ones, where buffers of the chunk's full width ran
    75,951.
    """
    P = len(trans)
    (w, k), n = preds.shape, len(layout.lengths)
    chunk = max(min(n, _BATCH_DOCS), 1)
    many_trans = trans[:, :, :d].transpose(0, 2, 1)[..., None]  # [from pair, to pair, next segment, 1]
    few_trans = trans[preds, :, np.arange(d, P)][..., None]  # [slot, pair, next segment, 1]
    # the sums of stage 1, of stage 2's first pairs and of its others, one
    # after the other in one buffer, so that the pass holds one at a time
    n_sums = max(4 * P, 2 * P * d, 2 * w * k)
    starts, live = layout.starts.tolist(), layout.live.tolist()
    ranked = layout.lengths[layout.order]  # the lengths, longest first
    add, maximum, reduce = np.add, np.maximum, np.maximum.reduce
    for lo, T in zip(range(0, n, chunk), ranked[::chunk].tolist()):
        counts = [min(live[t] - lo, chunk) for t in range(1, T)]
        width = 0
        for t, m, step_width in zip(range(1, T), counts, _widths(counts)):
            if step_width != width:
                width = step_width
                prev_scores = np.empty((P, 2, width))  # [pair, segment, document]
                u = np.empty((P, 2, width))  # [pair, next segment, document]
                ds_rep = np.empty((2, 2, width))
                ds_rep[:] = log_ds[:, :, None]
                many_rep = np.empty((P, d, 2, width))  # [from pair, to pair, next segment, document]
                many_rep[:] = many_trans
                sums = np.empty(n_sums * width)
                stage1 = sums[: 4 * P * width].reshape(P, 2, 2, width)  # [pair, segment, next segment, document]
                moves = sums[: many_rep.size].reshape(many_rep.shape)
                block = sums[: 2 * w * k * width].reshape(w, k, 2, width)  # [slot, pair, next segment, document]
                into = np.empty((P, 2, width))  # the best move into each state
                # the views that every step at this width reads
                prev_b, u_b = prev_scores[:, :, None], u[:, None]
                from_0, from_1 = stage1[:, 0], stage1[:, 1]
                into_many, into_few, flat_into = into[:d], into[d:], into.reshape(2 * P, width)
            cur, prev = starts[t] + lo, starts[t - 1] + lo
            prev_scores[:, :, :m] = best[prev : prev + m].T.reshape(P, 2, m)
            add(prev_b, ds_rep, out=stage1)
            maximum(from_0, from_1, out=u)
            add(many_rep, u_b, out=moves)
            reduce(moves, axis=0, out=into_many)
            u.take(preds, axis=0, out=block, mode="clip")  # every index is in range
            block += few_trans
            reduce(block, axis=0, out=into_few)
            best[cur : cur + m] += flat_into[:, :m].T


def viterbi_batch(chain, table, rows, lengths):
    """``viterbi`` for many documents, document i scoring the table rows
    that the next ``lengths[i]`` entries of ``rows`` number: ``(path,
    score)`` per document, in input order, each identical to what
    ``viterbi`` returns for those emission scores. Unless ``chain`` is a
    :class:`~bien.model.CompiledChain`, ``table`` a float64 ``(R, S)``
    array, ``rows`` 1-D integers in ``0 .. R - 1`` and ``lengths`` split
    them (:func:`bien.model.check_lengths`), this raises
    :class:`InvalidSpec`, as it does, like ``viterbi``, for a NaN or +inf
    in ``table`` or in the chain's ``log_init`` or ``log_trans``, and for a
    ``log_trans`` that is not the sum of the chain's factors
    (:func:`bien.model.join_factors`), which this decodes.

    The batch is packed in one :class:`bien.model.TimeMajor` layout, its
    documents sorted longest first, and one gather of the emission scores
    makes the table of forward scores, one row per token: 11,435 x 42
    float64 (3.8 MB) on a holdout test side of ``generate_corpus(485,
    1993)``. The forward pass (:func:`_forward`) keeps only each state's
    best score and eliminates the previous segment first: stage 1 takes,
    per pair and next segment, the best of the two previous segments,
    ``max_ds best[2p + ds] + log_ds[ds, ds']``, in 4P sums; stage 2 takes,
    per state ``(q, ds')``, the best pair move into it, ``max_p u[p, ds']
    + pair_trans[p, ds', q]``, over every pair for the pairs with many
    finite predecessors and over their own for the others
    (:func:`_split_by_in_degree`). That is 550 sums per document-step at
    42 states and 406 at 34. It runs chunk by chunk, over runs of
    ``_BATCH_DOCS`` documents of that order; as the documents alive at a
    step are a prefix of the order, a chunk's rows at each step are one
    slice of the layout, and its buffers narrow as its documents end. If
    any document has no live state at some step, this raises the
    :class:`ZeroProbabilityEvidence` of the first such document in input
    order, at its first dead step.

    The factored sums ``(best + log_ds) + pair_trans`` need not round as
    ``viterbi``'s ``best + log_trans`` do, so a guard keeps the results
    identical. One backtrace walks every document back at once: per step,
    one gather of the moves into each live document's state, one add of
    the previous scores and one ``argmax``. It keeps, per document, the
    smallest margin between the sum it picks and the next best, at every
    step and at the last state. A document whose margin is not above
    ``16 * T * ulp(|score|)``, T its length, may hold a tie that
    ``viterbi`` breaks the other way (the backtrace runs in the kernel's
    state order, not the chain's), and is decoded by ``viterbi``. Every
    other path is ``viterbi``'s, and its score is formed again as
    ``viterbi`` forms it: ``(score + move) + emission`` per step.
    """
    check_type("chain", chain, CompiledChain)
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
    if not np.array_equal(join_factors(chain.log_ds, chain.pair_trans), chain.log_trans):
        raise InvalidSpec("the log_trans is not the sum of the chain's log_ds and pair_trans, "
                          "which a batched decode scores")
    lengths = check_lengths(lengths, len(rows))
    n = len(lengths)
    layout = TimeMajor(lengths)
    live = layout.live.tolist() + [0]
    # each packed row's table row, so one gather makes ``best``, with no temporary
    packed = layout.rows()
    table_rows = np.empty(len(packed), dtype=np.intp)
    table_rows[packed] = rows
    # The kernel's order: the pairs scored over every pair first, so that
    # each stage writes one block; kernel state i is chain state states[i].
    many, few, preds = _split_by_in_degree(chain.pair_trans.max(axis=1))
    pairs = np.concatenate([many, few])
    states = (2 * pairs[:, None] + [0, 1]).reshape(-1)
    # the packed emissions, until the recursion adds to them
    best = np.take(table[:, states], table_rows, axis=0)
    del table_rows  # so that the forward pass, the peak of memory, runs without it
    best[: live[0]] += chain.log_init[states]
    _forward(best, layout, chain.log_ds, chain.pair_trans[pairs][:, :, pairs], len(many),
             np.argsort(pairs)[preds])
    ranked = layout.lengths[layout.order]
    nonempty = np.arange(live[0])  # the ranks of the non-empty documents
    last = best[layout.starts[ranked[: live[0]] - 1] + nonempty]  # their last rows
    ends = np.cumsum(lengths)
    # A step with no live state leaves every later step dead as well, so a
    # document has a dead step if and only if its last step has no finite
    # score. With NaN and +inf refused, both recursions find the same live
    # states, so ``viterbi`` raises at the first such document's first dead step.
    dead = np.flatnonzero(~(last.max(axis=1) > -np.inf))
    if dead.size:
        i = int(layout.order[dead].min())
        _viterbi(chain, table[rows[ends[i] - lengths[i] : ends[i]]])
    path, margin = _backtrace(best, layout, chain.log_trans[states][:, states], last.argmax(axis=1))
    del best  # past the backtrace, the rest runs on one value per token
    path = states[path]
    emitted = np.empty(len(path))
    emitted[packed] = table[rows, path[packed]]
    score = np.zeros(n)  # an empty document scores 0
    score[nonempty] = _flat_scores(chain, layout, emitted, path)
    rank_of = np.arange(len(path)) - np.repeat(layout.starts[:-1], layout.live)
    bound = 16 * ranked * np.spacing(np.abs(score))
    close = np.zeros(n, dtype=bool)  # by rank: the documents that go to ``viterbi``
    close[rank_of[~(margin > bound[rank_of])]] = True
    scores = np.empty(n)
    scores[layout.order] = score  # in input order
    paths = np.split(path[packed], ends[:-1])
    for i in layout.order[close].tolist():
        paths[i], scores[i] = _viterbi(chain, table[rows[ends[i] - lengths[i] : ends[i]]])
    return list(zip(paths, scores.tolist()))


def _backtrace(best, layout, trans, first):
    """Walk every document of ``layout`` back at once over its forward
    scores ``best``, from the states ``first`` of the documents' last
    steps, by rank; ``trans`` scores each move in the same state order.
    Each earlier state is the first best predecessor of the state after
    it: per step, one gather of the moves into each live document's
    state, one add of the previous scores and one ``argmax``.

    Returns the path, one state per row of ``best``, and each row's
    margin between the score its state was picked by and the next best.
    The sums into each row's successor overwrite the row, so that
    afterwards every row holds the scores its state was picked from, and
    one pass over ``best`` finds every margin.
    """
    live = layout.live.tolist() + [0]
    trans_T = trans.T.copy()  # row j: scores of every move into j
    path = np.empty(len(best), dtype=np.intp)
    state = np.empty(len(layout.lengths), dtype=np.intp)
    for t in range(len(layout.steps) - 1, -1, -1):
        (cur, prev), m, ending = layout.steps[t], live[t], live[t + 1]
        state[ending:m] = first[ending:m]  # the documents whose last step is t
        path[cur] = state[:m]
        if prev is not None:
            sums = best[prev]
            np.add(trans_T[state[:m]], sums, out=sums)
            sums.argmax(axis=1, out=state[:m])
    rows = np.arange(len(best))
    picked = best[rows, path]
    best[rows, path] = -np.inf
    return path, picked - best.max(axis=1)


def _flat_scores(chain, layout, emitted, path):
    """The score of each non-empty document's path, packed in ``layout``
    with its emission scores ``emitted``, formed as ``viterbi`` forms it:
    ``log_init + emission`` at step 0, then ``(score + move) + emission``
    per step; in the layout's order."""
    live = layout.live
    start = int(live[0]) if len(live) else 0  # the rows of step 0
    # a row's previous row, past step 0, is live[t - 1] rows before it
    before = np.arange(start, len(path)) - np.repeat(live[:-1], live[1:])
    moved = np.empty(len(path))
    moved[start:] = chain.log_trans[path[before], path[start:]]
    score = chain.log_init[path[:start]] + emitted[:start]
    for (cur, _), m in zip(layout.steps[1:], live[1:].tolist()):
        score[:m] += moved[cur]
        score[:m] += emitted[cur]
    return score
