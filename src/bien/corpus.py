"""Corpus ingestion: tokenization, inline-tag parsing and train/test splits.

Documents are single token streams. Gold annotations arrive as inline
``<field>...</field>`` pairs; parsing strips the markup and records which
tokens each pair covered. All offsets refer to the tag-stripped text.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlignmentError, InvalidPlan, MalformedTag

KIND_WORD = "word"
KIND_NUMBER = "number"
KIND_PUNCT = "punctuation"
KIND_SYMBOL = "symbol"
KIND_MIXED = "mixed"

NA_VALUE = "NA"

DEFAULT_FIELDS = ("speaker", "location", "stime", "etime")


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    kind: str

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty token span [{self.start}, {self.end})")


@dataclass(frozen=True)
class TagSpan:
    """One gold slot instance as an inclusive token range."""

    field: str
    start_token: int
    end_token: int

    def __post_init__(self):
        if not 0 <= self.start_token <= self.end_token:
            raise ValueError(f"bad span range {self.start_token}..{self.end_token}")


@dataclass(frozen=True)
class LintIssue:
    file: str
    token_index: int
    code: str
    message: str


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    tokens: tuple[Token, ...]
    gold_spans: tuple[TagSpan, ...] = ()
    columns: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, values in self.columns.items():
            if len(values) != len(self.tokens):
                raise AlignmentError(
                    f"column {name!r} has {len(values)} values for "
                    f"{len(self.tokens)} tokens"
                )

    def __len__(self):
        return len(self.tokens)

    @property
    def surfaces(self):
        return tuple(t.surface for t in self.tokens)

    def column(self, name):
        """Per-token values for a column, or all-NA when absent."""
        if name in self.columns:
            return self.columns[name]
        return (NA_VALUE,) * len(self.tokens)

    def with_columns(self, **cols):
        merged = dict(self.columns)
        merged.update({k: tuple(v) for k, v in cols.items()})
        return replace(self, columns=merged)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9\-]+(?:\.[A-Za-z0-9\-]+)+")
_URL_RE = re.compile(
    r"(?:https?|ftp)://\S*[A-Za-z0-9/]"
    r"|www\.[A-Za-z0-9\-]+(?:\.[A-Za-z0-9\-]+)+(?:/\S*[A-Za-z0-9/])?"
)
_DECIMAL_RE = re.compile(r"\d+\.\d+")


def token_kind(surface):
    """Classify a finished token surface."""
    if surface.isalpha():
        return KIND_WORD
    # abbreviation forms like "Dr." keep their period but behave as words
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


def _binds(left, ch, right):
    # Internal punctuation glues a token together only between the right
    # kinds of neighbors; "3:30-5:00" must split on the dash, "3:30" must not.
    if ch == "-":
        return left.isalpha() and right.isalpha()
    if ch == ":":
        return left.isdigit() and right.isdigit()
    return left.isalnum() and right.isalnum()


def _first_split_point(s):
    for i in range(1, len(s) - 1):
        if not s[i].isalnum() and not _binds(s[i - 1], s[i], s[i + 1]):
            return i
    return None


def _accept_whole(s, abbreviations):
    if s.lower() in abbreviations:
        return True
    return bool(
        _DECIMAL_RE.fullmatch(s)
        or _EMAIL_RE.fullmatch(s)
        or _URL_RE.fullmatch(s)
    )


def _split_chunk(chunk, abbreviations):
    """Split one whitespace-delimited chunk into (surface, offset, kind) pieces."""
    pieces = []
    tail = []
    s = chunk
    off = 0
    while s:
        if s.isalnum() or _accept_whole(s, abbreviations):
            pieces.append((s, off))
            break
        if not s[0].isalnum():
            j = 1
            while j < len(s) and s[j] == s[0]:
                j += 1
            pieces.append((s[:j], off))
            s, off = s[j:], off + j
            continue
        if not s[-1].isalnum():
            j = len(s) - 1
            while j > 0 and s[j - 1] == s[-1]:
                j -= 1
            tail.append((s[j:], off + j))
            s = s[:j]
            continue
        cut = _first_split_point(s)
        if cut is None:
            pieces.append((s, off))
            break
        pieces.append((s[:cut], off))
        s, off = s[cut:], off + cut
    pieces.extend(reversed(tail))
    return tuple((piece, at, token_kind(piece)) for piece, at in pieces)


# Bound on every per-type memo: a full memo starts over.
_MEMO_LIMIT = 1 << 16


class TypeMemo(dict):
    """``memo[key]`` is ``compute(key, *context)``, computed once per key, for
    the context of the last :meth:`bind`. The memo starts over when bound to
    a context that differs (item by item, by identity or ``==``) and when it
    holds ``_MEMO_LIMIT`` keys."""

    def __init__(self, compute):
        self.compute, self.context = compute, ()

    def bind(self, *context):
        if context != self.context:
            self.clear()
            self.context = context
        return self

    def __missing__(self, key):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        value = self[key] = self.compute(key, *self.context)
        return value


_chunk_memo = TypeMemo(_split_chunk)


def tokenize(text, abbreviations=frozenset()):
    """Split raw text into tokens, separating punctuation from words.

    Punctuation becomes its own token except for periods on known
    abbreviations, decimal points, and punctuation internal to emails,
    URLs, and glued alphanumeric forms. ``abbreviations`` entries carry
    their trailing period ("dr.") and are matched case-insensitively.

    Each distinct chunk is split once into (surface, offset, kind) pieces, kept in
    a :class:`TypeMemo` bound to ``frozenset(abbreviations)``, of at most ``_MEMO_LIMIT`` chunks.
    """
    pieces_of = _chunk_memo.bind(frozenset(abbreviations))
    tokens = []
    base = 0
    for chunk in text.split():
        # only whitespace lies between the last chunk and this one
        base = text.find(chunk, base)
        for surface, off, kind in pieces_of[chunk]:
            start = base + off
            tokens.append(Token(surface, start, start + len(surface), kind))
        base += len(chunk)
    return tuple(tokens)


# ---------------------------------------------------------------------------
# Inline-tagged documents
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<(/?)([A-Za-z][A-Za-z0-9_-]*)>")


def _malformed(message, raw, pos):
    return MalformedTag(message, line=raw.count("\n", 0, pos) + 1, offset=pos)


def parse_tagged_document(raw, doc_id="doc", fields=DEFAULT_FIELDS, abbreviations=None):
    """Parse text with inline ``<field>...</field>`` markup into a Document.

    Returns ``(document, lint_issues)``. Tags are stripped from the token
    stream; offsets refer to the stripped text. A pair covers the tokens
    that lie wholly inside it. A tag naming a field outside ``fields`` is
    dropped and reported as ``UNKNOWN_FIELD``. Misplaced tags in the source
    are ingested as-is and flagged, never corrected: a token cut by a tag
    is ``PARTIAL_BOUNDARY``, a pair covering no token is ``EMPTY_SPAN`` and
    one covering more than 15 is ``LONG_SPAN``. Unmatched or nested tags
    raise :class:`MalformedTag`.
    """
    if abbreviations is None:
        from .resources import load_abbreviations

        abbreviations = load_abbreviations()
    fields = tuple(fields)
    issues = []
    pieces = []
    stripped_len = 0
    open_tag = None  # (name, stripped_start, raw_pos)
    char_spans = []
    last = 0
    for m in _TAG_RE.finditer(raw):
        closing, name = m.group(1) == "/", m.group(2)
        pieces.append(raw[last : m.start()])
        stripped_len += m.start() - last
        last = m.end()
        if not closing:
            if open_tag is not None:
                raise _malformed(f"tag <{name}> opened inside <{open_tag[0]}>", raw, m.start())
            open_tag = (name, stripped_len, m.start())
        else:
            if open_tag is None or open_tag[0] != name:
                raise _malformed(f"unmatched closing tag </{name}>", raw, m.start())
            char_spans.append((name, open_tag[1], stripped_len))
            open_tag = None
    if open_tag is not None:
        raise _malformed(f"tag <{open_tag[0]}> never closed", raw, open_tag[2])
    pieces.append(raw[last:])
    text = "".join(pieces)

    tokens = tokenize(text, abbreviations)
    # tokens are ordered and disjoint, so both boundary lists are sorted
    starts = [t.start for t in tokens]
    ends = [t.end for t in tokens]

    spans = []
    for name, cs, ce in char_spans:
        inside = range(bisect_left(starts, cs), bisect_right(ends, ce))
        overlap = range(bisect_right(ends, cs), bisect_left(starts, ce))
        partial = [i for i in overlap if i not in inside]
        # a pair over no token anchors at the next token, clamped to the last
        anchor = (inside or partial or [min(inside.start, len(tokens) - 1)])[0]
        if name not in fields:
            issues.append(
                LintIssue(doc_id, anchor, "UNKNOWN_FIELD", f"tag <{name}> dropped")
            )
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
            issues.append(
                LintIssue(doc_id, anchor, "EMPTY_SPAN", f"<{name}> covers no token")
            )
            continue
        if len(inside) > 15:
            issues.append(
                LintIssue(
                    doc_id, inside[0], "LONG_SPAN", f"<{name}> covers {len(inside)} tokens"
                )
            )
        spans.append(TagSpan(name, inside[0], inside[-1]))

    spans.sort(key=lambda s: s.start_token)
    doc = Document(doc_id, text, tokens, tuple(spans))
    return doc, issues


# ---------------------------------------------------------------------------
# Train/test partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    train_fraction: float = 0.8
    runs: int = 5
    seed: int = 0


def _run_rng(seed, run):
    entropy = seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(run,)))


def split(corpus, plan):
    """Partition a corpus into one shuffled (train, test) holdout pair per run.

    Each run draws its permutation from its own seeded stream, so run ``r``
    does not depend on ``plan.runs``: it equals the last pair of the same
    plan with ``runs=r + 1``. Identical plans produce identical partitions.
    """
    corpus = list(corpus)
    n = len(corpus)
    if n < 2:
        raise InvalidPlan(f"a train/test split needs at least 2 documents, got {n}")
    if plan.runs < 1:
        raise InvalidPlan(f"runs must be >= 1, got {plan.runs}")
    if not 0.0 < plan.train_fraction < 1.0:
        raise InvalidPlan(f"train fraction {plan.train_fraction} outside (0, 1)")
    n_train = int(round(plan.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    partitions = []
    for r in range(plan.runs):
        perm = _run_rng(plan.seed, r).permutation(n)
        train_idx = sorted(perm[:n_train].tolist())
        test_idx = sorted(perm[n_train:].tolist())
        partitions.append(
            ([corpus[i] for i in train_idx], [corpus[i] for i in test_idx])
        )
    return partitions
