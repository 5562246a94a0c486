"""Model structure: tag space, conditional probability tables, chain compilation.

The generative story factors per token into a document-segment chain
(header/body), a tag chain conditioned on the previous tag, the last
extracted field, and the current segment, and one emission table per
observable feature. Exact inference runs on the compiled product chain
over (tag, last-target, segment) triples. The segment chain is a free
two-state Markov chain whose transitions, body back to header included,
EM learns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, check_array, check_int, check_sequence, check_type

ROLE_BACKGROUND = "background"
ROLE_BEGIN = "begin"
ROLE_INSIDE = "inside"
ROLE_END = "end"
ROLE_SINGLE = "single"

_FIELD_ROLES = (ROLE_BEGIN, ROLE_INSIDE, ROLE_END, ROLE_SINGLE)

DS_HEADER = 0
DS_BODY = 1

LT_NONE = 0

# how far a cell may fall below 0, or a row's sum stray from 1, in a valid CPT
_ROW_TOL = 1e-9


def check_fields(name, fields):
    """The field list ``fields`` as a tuple
    (:func:`~bien.errors.check_sequence`, naming it ``name``), once it is
    known to name at least one field and no field twice; anything else
    raises :class:`InvalidSpec`."""
    fields = check_sequence(name, fields)
    if not fields:
        raise InvalidSpec(f"{name} must name at least one field")
    for i, f in enumerate(fields):
        if f in fields[:i]:
            raise InvalidSpec(f"{name} name {f!r} twice")
    return fields


class TagSpace:
    """The 4F+1 token tags: background plus begin/inside/end/single per field.

    ``role_of[tag]`` is a tag's role and ``field_index_of[tag]`` the index
    of its field, None for the background tag: tuples built once. A field
    list that :func:`check_fields` refuses raises :class:`InvalidSpec`."""

    def __init__(self, fields):
        self.fields = check_fields("fields", fields)
        self.size = 1 + 4 * len(self.fields)
        self.background = 0
        self.role_of = (ROLE_BACKGROUND, *_FIELD_ROLES * len(self.fields))
        self.field_index_of = (None, *(fi for fi in range(len(self.fields)) for _ in _FIELD_ROLES))

    def begin(self, fi):
        return 1 + 4 * fi

    def inside(self, fi):
        return 2 + 4 * fi

    def end(self, fi):
        return 3 + 4 * fi

    def single(self, fi):
        return 4 + 4 * fi

    def allows_follow(self, prev_tag, cur_tag):
        """Structural rule: inside/end of a field needs begin/inside of it before."""
        if cur_tag == 0:
            return True
        role = self.role_of[cur_tag]
        if role in (ROLE_BEGIN, ROLE_SINGLE):
            return True
        fi = self.field_index_of[cur_tag]
        return prev_tag in (self.begin(fi), self.inside(fi))

    def allows_initial(self, tag):
        return tag == 0 or self.role_of[tag] in (ROLE_BEGIN, ROLE_SINGLE)


class Cpt:
    """One conditional probability table.

    ``table`` is normalized over its last axis for every parent row.
    ``allowed`` marks the structural support; cells outside it stay
    exactly zero. A fresh table spreads each row uniformly over its
    allowed cells. :meth:`renormalize` is the one writer of ``table``.
    """

    def __init__(self, name, parents, shape, allowed=None):
        self.name = name
        self.parents = tuple(parents)
        self.shape = tuple(shape)
        if len(self.parents) != len(self.shape) - 1:
            raise InvalidSpec(f"cpt {name}: {len(self.parents)} parents for shape {shape}")
        self.allowed = (
            np.ones(self.shape, dtype=bool) if allowed is None else allowed.astype(bool)
        )
        if not self.allowed.any(axis=-1).all():
            raise InvalidSpec(f"cpt {self.name}: a row has no allowed cell")
        self.table = np.zeros(self.shape)
        self.renormalize(1.0)

    def renormalize(self, weights):
        """Set each row to the non-negative ``weights`` on its allowed
        cells, 0.0 elsewhere, divided by the row's sum. A row whose sum is
        not positive keeps its values."""
        w = np.where(self.allowed, weights, 0.0)
        tot = w.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.table = np.where(tot > 0, w / tot, self.table)

    def validate(self):
        if (self.table < -_ROW_TOL).any():
            raise InvalidSpec(f"cpt {self.name}: negative probability")
        if np.any(self.table, where=~self.allowed):
            raise InvalidSpec(f"cpt {self.name}: mass outside allowed support")
        sums = np.atleast_1d(self.table.sum(axis=-1))
        bad = ~(np.abs(sums - 1.0) <= _ROW_TOL)  # a NaN sum is bad too
        if bad.any():
            raise InvalidSpec(f"cpt {self.name}: a row sums to {sums[bad].flat[0]}")

    def log_table(self):
        with np.errstate(divide="ignore"):
            return np.log(self.table)

    def copy(self):
        dup = copy.copy(self)
        dup.allowed = self.allowed.copy()
        dup.table = self.table.copy()
        return dup


class BienModel:
    """CPT collection plus the spaces they are indexed by. ``observables``
    maps each feature name to its cardinality, in column order, and
    ``mask`` names, in that order, the observables the model leaves out of
    its scores (:meth:`masked`); a fresh model reads them all."""

    def __init__(self, fields, observables, memory=True):
        self.tags = TagSpace(fields)
        self.fields = self.tags.fields
        self.observables = dict(observables)
        self.mask = ()
        self.memory = bool(memory)
        self.lt_card = (len(self.fields) + 1) if self.memory else 1
        # next_lt[lt, tag]: the last-target memory after emitting ``tag`` with
        # memory ``lt`` before it. A field tag sets it to its field (1-based),
        # background keeps it, and without memory it stays LT_NONE.
        self.next_lt = np.full((self.lt_card, self.tags.size), LT_NONE)
        if self.memory:
            for tag in range(self.tags.size):
                fi = self.tags.field_index_of[tag]
                self.next_lt[:, tag] = np.arange(self.lt_card) if fi is None else fi + 1
        self.next_lt.flags.writeable = False
        self.cpts = {}
        self._build_cpts()

    # -- structure ---------------------------------------------------------

    def _build_cpts(self):
        n_tags = self.tags.size
        self.cpts["ds_init"] = Cpt("ds_init", (), (2,))
        self.cpts["ds_trans"] = Cpt("ds_trans", ("ds_prev",), (2, 2))

        allowed_init = np.zeros((2, n_tags), dtype=bool)
        for tag in range(n_tags):
            allowed_init[:, tag] = self.tags.allows_initial(tag)
        self.cpts["tag_init"] = Cpt("tag_init", ("ds",), (2, n_tags), allowed=allowed_init)

        shape = (n_tags, self.lt_card, 2, n_tags)
        allowed = np.zeros(shape, dtype=bool)
        for tp in range(n_tags):
            for tc in range(n_tags):
                allowed[tp, :, :, tc] = self.tags.allows_follow(tp, tc)
        self.cpts["tag_trans"] = Cpt(
            "tag_trans", ("tag_prev", "last_target", "ds"), shape, allowed=allowed
        )

        for name, card in self.observables.items():
            self.cpts[f"emit:{name}"] = Cpt(f"emit:{name}", ("tag", "ds"), (n_tags, 2, card))

    def validate(self):
        for cpt in self.cpts.values():
            cpt.validate()

    def copy(self):
        dup = copy.copy(self)
        dup.cpts = {k: v.copy() for k, v in self.cpts.items()}
        return dup

    def masked(self, mask):
        """A copy whose scores leave out the observables that ``mask``
        names, in place of any mask this model has: EM leaves them out of
        its factors and counts, so the M-step sets their emission tables
        from the prior alone, and the compiled chain adds nothing for them.
        Their codes are still range-checked. ``mask`` is a sequence
        (:func:`~bien.errors.check_sequence`) of the model's own observable
        names; another name raises :class:`InvalidSpec`."""
        mask = check_sequence("mask", mask)
        unknown = sorted(set(mask) - set(self.observables))
        if unknown:
            raise InvalidSpec(
                f"mask names {unknown}, not among the observables {list(self.observables)}"
            )
        dup = self.copy()
        dup.mask = tuple(name for name in self.observables if name in mask)
        return dup


def build_model(fields, observables, memory=True):
    """A fresh model with uniform CPTs over the allowed structure.

    ``observables`` is a dict from feature name to cardinality, in
    feature-vector column order. Anything else, or a cardinality that is
    not an integer >= 1 (a bool is not), raises :class:`InvalidSpec`.
    """
    check_type("observables", observables, dict)
    for name, card in observables.items():
        check_int(f"observable {name!r}: cardinality", card, 1)
    return BienModel(fields, observables, memory=memory)


# ---------------------------------------------------------------------------
# Compiled product chain
# ---------------------------------------------------------------------------

class CompiledChain:
    """First-order Markov chain over reachable (tag, last-target, segment) states.

    The states are sorted, so state ``2p + ds`` is (tag, last-target)
    pair p in segment ds. The DBN's transition factors: a move ``(p, ds)
    -> (q, ds')`` scores ``log_ds[ds, ds'] + pair_trans[p, ds', q]``.
    ``log_ds`` (2 x 2) is the segment chain's, and ``pair_trans`` (P, 2,
    P) the tag chain's given the new segment, -inf where q's memory is
    not the one that p leaves on emitting q's tag. ``log_trans`` (S x S)
    is their sum (:func:`join_factors`); the batched Viterbi scores the
    factors, and everything else ``log_trans``.

    The chain is a snapshot of the model at compile time: ``log_init``,
    the factors, ``log_trans`` and the per-state emission rows are
    computed once from the CPTs, so changing the model afterwards needs a
    fresh compile. Emission rows are built only for the observables the
    model reads, so a masked model's chain scores an observation matrix
    alike whatever its masked columns hold, though every column's codes
    are range-checked.
    """

    def __init__(self, model):
        self.model = model
        # a tag's states carry every memory that emitting it can leave
        states = sorted(
            (tag, lt, ds)
            for tag in range(model.tags.size)
            for lt in set(model.next_lt[:, tag].tolist())
            for ds in (DS_HEADER, DS_BODY)
        )
        self.states = tuple(states)
        self.n_states = len(states)
        self.tag_of = np.array([s[0] for s in states])
        self.lt_of = np.array([s[1] for s in states])
        self.ds_of = np.array([s[2] for s in states])
        self._build_matrices()

    def _build_matrices(self):
        m = self.model
        S = self.n_states
        tag, lt, ds = self.tag_of, self.lt_of, self.ds_of
        # a state is entered only with the memory its tag leaves behind
        init = m.cpts["ds_init"].log_table()[ds] + m.cpts["tag_init"].log_table()[ds, tag]
        self.log_init = np.where(lt == m.next_lt[LT_NONE, tag], init, -np.inf)
        # pair p is the (tag, memory) of states 2p and 2p + 1
        pair_tag, pair_lt = tag[::2], lt[::2]
        self.log_ds = m.cpts["ds_trans"].log_table()
        pair_trans = m.cpts["tag_trans"].log_table()[
            pair_tag[:, None, None], pair_lt[:, None, None], np.arange(2)[:, None], pair_tag
        ]
        follows = pair_lt == m.next_lt[pair_lt[:, None], pair_tag]
        self.pair_trans = np.where(follows[:, None], pair_trans, -np.inf)
        # rows are the previous state, columns the next
        self.log_trans = join_factors(self.log_ds, self.pair_trans)

        # Per observable the model reads, its column and a (card + 1, S)
        # table: row c holds every state's log P(code c); the last row is
        # zeros, so a -1 code adds 0.
        self._emit_rows = tuple(
            (k, np.vstack([m.cpts[f"emit:{name}"].log_table()[tag, ds, :].T, np.zeros(S)]))
            for k, name in enumerate(m.observables) if name not in m.mask
        )
        self._cardinalities = np.array(list(m.observables.values()))

    def log_emission(self, obs_matrix):
        """Per-step state log-likelihoods, shape ``(T, S)``; -1 codes and
        the model's masked columns are skipped.

        ``obs_matrix`` must be an integer ``(T, K)`` matrix over the model's
        K observables with codes in ``-1 .. cardinality - 1``; anything else
        raises :class:`InvalidSpec`.
        """
        obs_matrix = check_observations(obs_matrix, self._cardinalities)
        out = np.zeros((len(obs_matrix), self.n_states))
        for k, rows in self._emit_rows:
            out += rows[obs_matrix[:, k]]
        return out


@dataclass(frozen=True)
class ObservationRows:
    """Observation matrices as their distinct rows, ``table``, an int64
    ``(R, K)`` array: matrix i is ``table`` at the next ``lengths[i]`` row
    numbers of the flat int64 ``rows`` (see :func:`number_observations`)."""

    table: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray


def number_observations(obs, lengths, cardinalities):
    """Observation matrices stacked in ``obs``, matrix i its next
    ``lengths[i]`` rows, as :class:`ObservationRows`. ``obs`` is checked
    once, as one matrix (:func:`check_observations`), and ``lengths`` once
    (:func:`check_lengths`), and ``cardinalities`` must be a sequence
    (:func:`~bien.errors.check_sequence`) of integers. Rows are keyed by
    each code's slot (:func:`code_slots`). Only the distinct rows and the
    row number of each row of the stack are kept, not the stack."""
    cardinalities = check_array("cardinalities must be a 1-D integer array",
                                check_sequence("cardinalities", cardinalities),
                                lambda a: a.ndim == 1 and (not a.size or a.dtype.kind in "iu"))
    obs = check_observations(obs, cardinalities)
    lengths = check_lengths(lengths, len(obs))
    cards = cardinalities.tolist()
    digits = ((code_slots(obs[:, k], card), card + 1) for k, card in enumerate(cards))
    row_of, first = distinct_rows(len(obs), digits)
    return ObservationRows(obs[first].astype(np.int64), row_of, lengths)


def code_slots(codes, card):
    """The slot of each of ``codes``, codes of an observable of cardinality
    ``card``, as int64: a code in ``0 .. card - 1`` is its own slot, and a
    masked (-1) code is slot ``card``, the zero row that the emission tables
    of the chain and of EM keep last."""
    return np.take(np.arange(card + 1), codes)  # -1 reads the last


def distinct_rows(n_rows, digits):
    """Number the distinct rows of an integer table given column by column.

    ``digits`` yields ``(codes, radix)`` pairs: int64 arrays of ``n_rows``
    codes in ``0 .. radix - 1``. Rows are keyed in mixed radix, and the key
    is re-ranked (:func:`_ranked`) before it could reach ``2**63 >> shift``,
    which leaves room for a row index in the low ``shift`` bits, so any
    number of columns keys exactly. Returns
    ``(row_of, first)``: each row's distinct-row number, in key order, and
    for each distinct row the index of one row that holds it.
    """
    shift = n_rows.bit_length()
    key, radix = np.zeros(n_rows, dtype=np.int64), 1
    for codes, base in digits:
        if radix * base > 2**63 >> shift:
            key, first = _ranked(key, shift)
            radix = len(first)
        key = key * base + codes
        radix *= base
    return _ranked(key, shift)


def _ranked(key, shift):
    """Each entry's rank among the distinct values of ``key``, and for each
    value the last index that holds it, as :func:`distinct_rows` returns
    them. Each key, below ``2**63 >> shift``, is shifted left over its
    index, so one plain sort of int64 orders keys and finds their indices,
    with no argsort."""
    n = len(key)
    packed = np.sort((key << shift) | np.arange(n))
    index = packed & ((1 << shift) - 1)
    packed >>= shift
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    rank = np.cumsum(new) - 1
    row_of = np.empty(n, dtype=np.int64)
    row_of[index] = rank
    first = np.empty(np.count_nonzero(new), dtype=np.int64)
    first[rank] = index
    return row_of, first


class TimeMajor:
    """Documents of the given lengths unrolled time-major into the rows of
    one table, with no padding: the layout of EM's forward-backward and of
    the batched Viterbi.

    The documents are sorted longest first, stably (``order``), and step t
    holds one row per document longer than t, in that order: ``live[t]``
    rows from row ``starts[t]`` on. So the documents alive at step t are a
    prefix of those alive at step t - 1, and ``steps[t]`` pairs step t's
    rows with the rows of step t - 1 that hold the same documents (``None``
    at t = 0), as slices. Each token's row is computed on demand
    (:meth:`rows`), so that a layout held for many passes holds nothing
    per token.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.order = np.argsort(-self.lengths, kind="stable")
        T = int(self.lengths.max(initial=0))
        self.live = len(self.lengths) - np.cumsum(np.bincount(self.lengths, minlength=T + 1))[:T]
        self.starts = np.concatenate([[0], np.cumsum(self.live)])
        bounds = self.starts.tolist()
        stops = (self.starts[:-2] + self.live[1:]).tolist()  # of the previous-step slices
        self.steps = list(zip(map(slice, bounds, bounds[1:]), [None, *map(slice, bounds, stops)]))

    def rows(self):
        """Each token's row, for the documents' tokens concatenated in
        input order: token t of the document ranked r in ``order`` sits at
        row ``starts[t] + r``."""
        lengths = self.lengths
        rank = np.empty(len(lengths), dtype=np.int64)
        rank[self.order] = np.arange(len(lengths))
        step = np.arange(self.starts[-1]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return self.starts[step] + np.repeat(rank, lengths)


def join_factors(log_ds, pair_trans):
    """The ``(S, S)`` move scores of a chain with these factors, S = 2P
    (see :class:`CompiledChain`): ``log_ds[ds, ds'] + pair_trans[p, ds',
    q]`` for the move from state 2p + ds to state 2q + ds'."""
    pair, ds = np.divmod(np.arange(2 * len(pair_trans)), 2)
    return log_ds[ds[:, None], ds] + pair_trans[pair[:, None], ds, pair]


def check_observations(obs_matrix, cardinalities):
    """``obs_matrix`` as an array, once it is known to be an integer
    ``(T, K)`` matrix over K observables of the given cardinalities (an
    integer array), with codes in ``-1 .. cardinality - 1``; anything else
    raises :class:`InvalidSpec`."""
    K = len(cardinalities)
    obs_matrix = check_array(
        f"observations must be an integer (T, {K}) matrix", obs_matrix,
        lambda a: a.dtype.kind in "iu" and a.ndim == 2 and a.shape[1] == K,
    )
    if obs_matrix.size and (obs_matrix.min() < -1 or (obs_matrix >= cardinalities).any()):
        raise InvalidSpec(
            "observation codes must lie in -1 .. cardinality - 1 "
            f"(cardinalities {cardinalities.tolist()})"
        )
    return obs_matrix


def check_lengths(lengths, n_rows):
    """``lengths`` as an int64 array, once it is known to split ``n_rows``
    stacked rows into runs: 1-D integers (or empty) of at least 0 summing
    to ``n_rows``. Anything else raises :class:`InvalidSpec`."""
    lengths = check_array(
        "lengths must be a 1-D integer array", lengths,
        lambda a: a.ndim == 1 and (not a.size or a.dtype.kind in "iu"),
    ).astype(np.int64, copy=False)
    # each length within 0 .. n_rows, so that the sum cannot wrap around
    if lengths.sum() != n_rows or (lengths < 0).any() or (lengths > n_rows).any():
        raise InvalidSpec(f"lengths {lengths.tolist()} do not split {n_rows} observation rows")
    return lengths


def compile_chain(model):
    """The :class:`CompiledChain` of a valid ``model``; anything but a
    :class:`BienModel` raises :class:`InvalidSpec`."""
    check_type("model", model, BienModel)
    model.validate()
    return CompiledChain(model)

