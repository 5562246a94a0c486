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

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumMismatch, InvalidSpec, ModelFormatError, VersionMismatch

ROLE_BACKGROUND = "background"
ROLE_BEGIN = "begin"
ROLE_INSIDE = "inside"
ROLE_END = "end"
ROLE_SINGLE = "single"

_FIELD_ROLES = (ROLE_BEGIN, ROLE_INSIDE, ROLE_END, ROLE_SINGLE)

DS_HEADER = 0
DS_BODY = 1
DS_NAMES = ("header", "body")

LT_NONE = 0


class TagSpace:
    """The 4F+1 token tags: background plus begin/inside/end/single per field."""

    def __init__(self, fields):
        self.fields = tuple(fields)
        if len(set(self.fields)) != len(self.fields) or not self.fields:
            raise InvalidSpec(f"bad field list {fields!r}")
        self.size = 1 + 4 * len(self.fields)
        self.background = 0

    def tag(self, role, field_name):
        fi = self.fields.index(field_name)
        return 1 + 4 * fi + _FIELD_ROLES.index(role)

    def begin(self, fi):
        return 1 + 4 * fi

    def inside(self, fi):
        return 2 + 4 * fi

    def end(self, fi):
        return 3 + 4 * fi

    def single(self, fi):
        return 4 + 4 * fi

    def role(self, tag):
        if tag == 0:
            return ROLE_BACKGROUND
        return _FIELD_ROLES[(tag - 1) % 4]

    def field_index(self, tag):
        """Index of the tag's field, or None for the background tag."""
        if tag == 0:
            return None
        return (tag - 1) // 4

    def field(self, tag):
        fi = self.field_index(tag)
        return None if fi is None else self.fields[fi]

    def name(self, tag):
        if tag == 0:
            return ROLE_BACKGROUND
        return f"{self.role(tag)}:{self.field(tag)}"

    def parse(self, name):
        if name == ROLE_BACKGROUND:
            return 0
        role, _, field_name = name.partition(":")
        return self.tag(role, field_name)

    def allows_follow(self, prev_tag, cur_tag):
        """Structural rule: inside/end of a field needs begin/inside of it before."""
        if cur_tag == 0:
            return True
        role = self.role(cur_tag)
        if role in (ROLE_BEGIN, ROLE_SINGLE):
            return True
        fi = self.field_index(cur_tag)
        return prev_tag in (self.begin(fi), self.inside(fi))

    def allows_initial(self, tag):
        return tag == 0 or self.role(tag) in (ROLE_BEGIN, ROLE_SINGLE)


class Cpt:
    """One conditional probability table.

    ``table`` is normalized over its last axis for every reachable parent
    row. ``allowed`` marks the structural support; cells outside it stay
    exactly zero. ``reachable`` marks parent rows that can occur given the
    chain structure; unreachable rows are kept uniform and skipped by
    validation and training. A fresh table spreads each row uniformly over
    its allowed cells.
    """

    def __init__(self, name, parents, shape, allowed=None, reachable=None):
        self.name = name
        self.parents = tuple(parents)
        self.shape = tuple(shape)
        if len(self.parents) != len(self.shape) - 1:
            raise InvalidSpec(f"cpt {name}: {len(self.parents)} parents for shape {shape}")
        self.allowed = (
            np.ones(self.shape, dtype=bool) if allowed is None else allowed.astype(bool)
        )
        parent_shape = self.shape[:-1]
        self.reachable = (
            np.ones(parent_shape, dtype=bool)
            if reachable is None
            else reachable.astype(bool)
        )
        counts = self.allowed.sum(axis=-1, keepdims=True)
        if (counts == 0).any():
            raise InvalidSpec(f"cpt {self.name}: a row has no allowed cell")
        self.table = self.allowed / counts

    def validate(self, atol=1e-9):
        if (self.table < -atol).any():
            raise InvalidSpec(f"cpt {self.name}: negative probability")
        if np.where(~self.allowed, self.table, 0.0).any():
            raise InvalidSpec(f"cpt {self.name}: mass outside allowed support")
        sums = np.atleast_1d(self.table.sum(axis=-1))
        bad = ~np.isclose(sums, 1.0, rtol=0.0, atol=atol) & np.atleast_1d(self.reachable)
        if bad.any():
            raise InvalidSpec(
                f"cpt {self.name}: a reachable row sums to {sums[bad].flat[0]!r}"
            )

    def log_table(self):
        with np.errstate(divide="ignore"):
            return np.log(self.table)

    def copy(self):
        dup = Cpt.__new__(Cpt)
        dup.name = self.name
        dup.parents = self.parents
        dup.shape = self.shape
        dup.allowed = self.allowed.copy()
        dup.reachable = self.reachable.copy()
        dup.table = self.table.copy()
        return dup


@dataclass(frozen=True)
class ObservableSpec:
    name: str
    cardinality: int


class BienModel:
    """CPT collection plus the spaces they are indexed by."""

    def __init__(self, fields, observables, memory=True):
        self.fields = tuple(fields)
        self.tags = TagSpace(self.fields)
        self.observables = tuple(observables)
        self.memory = bool(memory)
        self.lt_card = (len(self.fields) + 1) if self.memory else 1
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
        reachable = np.ones(shape[:-1], dtype=bool)
        if self.memory:
            for tp in range(n_tags):
                fi = self.tags.field_index(tp)
                if fi is not None:
                    for lt in range(self.lt_card):
                        reachable[tp, lt, :] = lt == fi + 1
        self.cpts["tag_trans"] = Cpt(
            "tag_trans",
            ("tag_prev", "last_target", "ds"),
            shape,
            allowed=allowed,
            reachable=reachable,
        )

        for obs in self.observables:
            self.cpts[f"emit:{obs.name}"] = Cpt(
                f"emit:{obs.name}", ("tag", "ds"), (n_tags, 2, obs.cardinality)
            )

    def lt_update(self, lt, tag):
        """Memory after emitting ``tag``: unchanged on background, else the field."""
        if not self.memory:
            return 0
        fi = self.tags.field_index(tag)
        return lt if fi is None else fi + 1

    def validate(self, atol=1e-9):
        for cpt in self.cpts.values():
            cpt.validate(atol)

    def copy(self):
        dup = BienModel.__new__(BienModel)
        dup.fields = self.fields
        dup.tags = self.tags
        dup.observables = self.observables
        dup.memory = self.memory
        dup.lt_card = self.lt_card
        dup.cpts = {k: v.copy() for k, v in self.cpts.items()}
        return dup


def build_model(fields, observables, memory=True):
    """A fresh model with uniform CPTs over the allowed structure.

    ``observables`` maps feature name to cardinality (dict or pairs),
    in feature-vector column order.
    """
    if isinstance(observables, dict):
        observables = tuple(ObservableSpec(n, c) for n, c in observables.items())
    else:
        observables = tuple(ObservableSpec(n, c) for n, c in observables)
    for obs in observables:
        if obs.cardinality < 1:
            raise InvalidSpec(f"observable {obs.name}: cardinality {obs.cardinality}")
    return BienModel(fields, observables, memory=memory)


# ---------------------------------------------------------------------------
# Compiled product chain
# ---------------------------------------------------------------------------

class CompiledChain:
    """First-order Markov chain over reachable (tag, last-target, segment) states."""

    def __init__(self, model):
        self.model = model
        tags = model.tags
        states = []
        for tag in range(tags.size):
            fi = tags.field_index(tag)
            if model.memory:
                lts = range(model.lt_card) if fi is None else (fi + 1,)
            else:
                lts = (0,)
            for lt in lts:
                for ds in (DS_HEADER, DS_BODY):
                    states.append((tag, lt, ds))
        states.sort()
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(states)}
        self.n_states = len(states)
        self.tag_of = np.array([s[0] for s in states])
        self.lt_of = np.array([s[1] for s in states])
        self.ds_of = np.array([s[2] for s in states])
        self._build_matrices()

    def _build_matrices(self):
        m = self.model
        S = self.n_states
        log_ds_init = m.cpts["ds_init"].log_table()
        log_ds_trans = m.cpts["ds_trans"].log_table()
        log_tag_init = m.cpts["tag_init"].log_table()
        log_tag_trans = m.cpts["tag_trans"].log_table()

        init = np.full(S, -np.inf)
        for s, (tag, lt, ds) in enumerate(self.states):
            if lt == m.lt_update(LT_NONE, tag):
                init[s] = log_ds_init[ds] + log_tag_init[ds, tag]
        self.log_init = init

        trans = np.full((S, S), -np.inf)
        for s, (tag, lt, ds) in enumerate(self.states):
            for s2, (tag2, lt2, ds2) in enumerate(self.states):
                if lt2 != m.lt_update(lt, tag2):
                    continue
                trans[s, s2] = (
                    log_ds_trans[ds, ds2] + log_tag_trans[tag, lt, ds2, tag2]
                )
        self.log_trans = trans

    def log_emission(self, obs_matrix):
        """Per-step state log-likelihoods, shape ``(T, S)``; -1 codes are skipped."""
        obs_matrix = np.asarray(obs_matrix)
        T = obs_matrix.shape[0]
        out = np.zeros((T, self.n_states))
        for k, obs in enumerate(self.model.observables):
            col = obs_matrix[:, k]
            seen = col >= 0
            if not seen.any():
                continue
            log_emit = self.model.cpts[f"emit:{obs.name}"].log_table()
            state_rows = log_emit[self.tag_of, self.ds_of, :]  # (S, card)
            out[seen] += state_rows[:, col[seen]].T
        return out


def compile_chain(model):
    model.validate()
    chain = CompiledChain(model)
    max_states = 10 * len(model.fields) + 2
    if model.memory and chain.n_states != max_states:
        raise InvalidSpec(
            f"compiled chain has {chain.n_states} states, expected {max_states}"
        )
    return chain


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FORMAT_LINE = "bien-model v2"


def _model_body(model):
    lines = []
    lines.append("fields " + " ".join(model.fields))
    lines.append(f"memory {int(model.memory)}")
    for obs in model.observables:
        lines.append(f"observable {obs.name} {obs.cardinality}")
    for name in sorted(model.cpts):
        cpt = model.cpts[name]
        lines.append(f"cpt {name}")
        lines.append("shape " + " ".join(str(n) for n in cpt.shape))
        parent_shape = cpt.shape[:-1]
        for row in np.ndindex(*parent_shape) if parent_shape else [()]:
            values = " ".join(repr(float(v)) for v in cpt.table[row])
            idx = " ".join(str(i) for i in row) if row else "-"
            lines.append(f"row {idx} {values}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_model(model, path):
    """Write the model as versioned, checksummed, human-readable text.

    Layout (v2): the format line, the SHA-256 of the body, then the body:
    ``fields``, ``memory`` and one ``observable`` line each, followed per
    CPT by ``cpt <name>``, ``shape``, one ``row <index> <values>`` line per
    parent row and ``end``.
    """
    body = _model_body(model)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_FORMAT_LINE}\n")
        fh.write(f"checksum {digest}\n")
        fh.write(body)


def load_model(path):
    """Read a model back, verifying version, checksum, support, and row sums."""
    with open(path, encoding="utf-8") as fh:
        version = fh.readline().rstrip("\n")
        if version != _FORMAT_LINE:
            raise VersionMismatch(f"unsupported model format {version!r}")
        checksum_line = fh.readline().split()
        if len(checksum_line) != 2 or checksum_line[0] != "checksum":
            raise ModelFormatError("missing checksum line")
        body = fh.read()
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != checksum_line[1]:
        raise ChecksumMismatch("model file checksum does not match its contents")

    lines = body.splitlines()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError("unexpected end of model file")
        line = lines[pos]
        pos += 1
        return line

    head = take().split()
    if head[0] != "fields":
        raise ModelFormatError("expected fields line")
    fields = tuple(head[1:])
    memory = bool(int(take().split()[1]))
    observables = []
    while pos < len(lines) and lines[pos].startswith("observable "):
        _, name, card = take().split()
        observables.append((name, int(card)))
    model = build_model(fields, observables, memory=memory)

    while pos < len(lines):
        head = take().split()
        if head[0] != "cpt":
            raise ModelFormatError(f"expected cpt block, got {head[0]!r}")
        name = head[1]
        if name not in model.cpts:
            raise ModelFormatError(f"unknown cpt {name!r}")
        cpt = model.cpts[name]
        shape = tuple(int(n) for n in take().split()[1:])
        if shape != cpt.shape:
            raise ModelFormatError(f"cpt {name}: shape {shape} != {cpt.shape}")
        parent_shape = cpt.shape[:-1]
        n_rows = int(np.prod(parent_shape)) if parent_shape else 1
        for _ in range(n_rows):
            parts = take().split()
            if parts[0] != "row":
                raise ModelFormatError(f"cpt {name}: expected row line")
            if parent_shape:
                rank = len(parent_shape)
                idx = tuple(int(i) for i in parts[1 : 1 + rank])
                values = parts[1 + rank :]
            else:
                idx = ()
                values = parts[2:]
            if len(values) != cpt.shape[-1]:
                raise ModelFormatError(f"cpt {name}: row {idx} has {len(values)} values")
            cpt.table[idx] = np.array([float(v) for v in values])
        if take() != "end":
            raise ModelFormatError(f"cpt {name}: expected end marker")

    try:
        model.validate(atol=1e-9)
    except InvalidSpec as exc:
        raise ModelFormatError(f"loaded model fails validation: {exc}") from exc
    return model
