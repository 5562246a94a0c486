"""Corpus ingestion: tokenization, inline-tag parsing, annotation columns, splits.

Documents are single token streams. Gold annotations arrive as inline
``<field>...</field>`` pairs; parsing strips the markup and records which
tokens each pair covered. All offsets refer to the tag-stripped text.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AlignmentError,
    InvalidPlan,
    MalformedTag,
    MissingColumn,
    UnknownField,
)

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

    def format(self):
        return f"{self.file}:{self.token_index}:{self.code}:{self.message}"


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
                raise ValueError(
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

    def to_dict(self):
        return {
            "id": self.id,
            "text": self.text,
            "tokens": [[t.start, t.end, t.kind] for t in self.tokens],
            "spans": [[s.field, s.start_token, s.end_token] for s in self.gold_spans],
            "columns": {k: list(v) for k, v in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, d):
        text = d["text"]
        tokens = tuple(
            Token(text[s:e], s, e, kind) for s, e, kind in d["tokens"]
        )
        spans = tuple(TagSpan(f, a, b) for f, a, b in d["spans"])
        columns = {k: tuple(v) for k, v in d.get("columns", {}).items()}
        return cls(d["id"], text, tokens, spans, columns)


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


def _split_chunk(chunk, base, abbreviations):
    """Split one whitespace-delimited chunk into (surface, offset) pieces."""
    pieces = []
    tail = []
    s = chunk
    off = base
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
    return pieces


def tokenize(text, abbreviations=frozenset()):
    """Split raw text into tokens, separating punctuation from words.

    Punctuation becomes its own token except for periods on known
    abbreviations, decimal points, and punctuation internal to emails,
    URLs, and glued alphanumeric forms. ``abbreviations`` entries carry
    their trailing period ("dr.") and are matched case-insensitively.
    """
    tokens = []
    for m in re.finditer(r"\S+", text):
        for surface, off in _split_chunk(m.group(), m.start(), abbreviations):
            tokens.append(Token(surface, off, off + len(surface), token_kind(surface)))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# Inline-tagged documents
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<(/?)([A-Za-z][A-Za-z0-9_-]*)>")


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def parse_tagged_document(
    raw,
    doc_id="doc",
    fields=DEFAULT_FIELDS,
    abbreviations=None,
    strict=False,
):
    """Parse text with inline ``<field>...</field>`` markup into a Document.

    Returns ``(document, lint_issues)``. Tags are stripped from the token
    stream; offsets refer to the stripped text. Tags naming unknown fields
    are stripped and reported (or rejected under ``strict``). Misplaced
    tags in the source are ingested as-is and flagged, never corrected.
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
                raise MalformedTag(
                    f"tag <{name}> opened inside <{open_tag[0]}>",
                    line=_line_of(raw, m.start()),
                    offset=m.start(),
                )
            open_tag = (name, stripped_len, m.start())
        else:
            if open_tag is None or open_tag[0] != name:
                raise MalformedTag(
                    f"unmatched closing tag </{name}>",
                    line=_line_of(raw, m.start()),
                    offset=m.start(),
                )
            char_spans.append((name, open_tag[1], stripped_len))
            open_tag = None
    if open_tag is not None:
        raise MalformedTag(
            f"tag <{open_tag[0]}> never closed",
            line=_line_of(raw, open_tag[2]),
            offset=open_tag[2],
        )
    pieces.append(raw[last:])
    text = "".join(pieces)

    tokens = tokenize(text, abbreviations)
    starts = np.array([t.start for t in tokens], dtype=np.int64)
    ends = np.array([t.end for t in tokens], dtype=np.int64)

    spans = []
    for name, cs, ce in char_spans:
        inside = [
            i for i in range(len(tokens)) if starts[i] >= cs and ends[i] <= ce
        ]
        partial = [
            i
            for i in range(len(tokens))
            if starts[i] < ce and ends[i] > cs and i not in inside
        ]
        anchor = inside[0] if inside else (partial[0] if partial else -1)
        if name not in fields:
            if strict:
                raise UnknownField(f"unknown field tag <{name}> in {doc_id}")
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


def serialize_document(doc):
    """Re-insert gold tags into the document text at token boundaries."""
    inserts = []  # (char position, sort rank, text)
    for s in doc.gold_spans:
        inserts.append((doc.tokens[s.start_token].start, 0, f"<{s.field}>"))
        inserts.append((doc.tokens[s.end_token].end, 1, f"</{s.field}>"))
    out = []
    last = 0
    for pos, _, tag in sorted(inserts):
        out.append(doc.text[last:pos])
        out.append(tag)
        last = pos
    out.append(doc.text[last:])
    return "".join(out)


# ---------------------------------------------------------------------------
# Annotation columns
# ---------------------------------------------------------------------------

def read_column_file(path):
    """Read a tab-separated annotation file into per-document row blocks.

    One token per line (``surface<TAB>pos<TAB>chunk``), documents
    separated by blank lines.
    """
    blocks = []
    current = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                if current:
                    blocks.append(current)
                    current = []
                continue
            current.append(line.split("\t"))
    if current:
        blocks.append(current)
    return blocks


def _column_values(rows, col_index, name):
    values = []
    for row in rows:
        if len(row) <= col_index:
            raise MissingColumn(f"column {name!r} absent from annotation rows")
        values.append(row[col_index] or NA_VALUE)
    return values


def load_columns(doc, rows, columns=("pos", "chunk"), lenient=False):
    """Attach annotation columns to a document, aligned by surface form.

    ``rows`` is one block from :func:`read_column_file`. In strict mode any
    surface mismatch or length difference raises :class:`AlignmentError`
    at the first offending token index. With ``lenient`` the rows are
    re-aligned character-by-character, tolerating merged or split tokens
    on the annotator's side.
    """
    want = {name: i + 1 for i, name in enumerate(("pos", "chunk")) if name in columns}
    unknown = set(columns) - set(("pos", "chunk"))
    if unknown:
        raise MissingColumn(f"unsupported columns requested: {sorted(unknown)}")

    if not lenient:
        n = min(len(rows), len(doc.tokens))
        for i in range(n):
            if rows[i][0] != doc.tokens[i].surface:
                raise AlignmentError(
                    f"surface mismatch at token {i}: "
                    f"doc {doc.tokens[i].surface!r} vs file {rows[i][0]!r}",
                    index=i,
                    expected=doc.tokens[i].surface,
                    got=rows[i][0],
                )
        if len(rows) != len(doc.tokens):
            i = n
            raise AlignmentError(
                f"row count {len(rows)} != token count {len(doc.tokens)}",
                index=i,
            )
        cols = {
            name: _column_values(rows, idx, name) for name, idx in want.items()
        }
        return doc.with_columns(**cols)

    # Lenient: align on the concatenated non-space characters of both sides.
    file_chars = []  # (char, row index)
    for ri, row in enumerate(rows):
        for ch in row[0]:
            if not ch.isspace():
                file_chars.append((ch, ri))
    pos = 0
    row_of_token = []
    for i, tok in enumerate(doc.tokens):
        if pos >= len(file_chars):
            raise AlignmentError("annotation rows exhausted", index=i)
        if file_chars[pos][0] != tok.surface[0]:
            raise AlignmentError(
                f"character mismatch at token {i}",
                index=i,
                expected=tok.surface,
                got=file_chars[pos][0],
            )
        row_of_token.append(file_chars[pos][1])
        pos += sum(1 for ch in tok.surface if not ch.isspace())
    cols = {}
    for name, idx in want.items():
        values = _column_values(rows, idx, name)
        cols[name] = [values[r] for r in row_of_token]
    return doc.with_columns(**cols)


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
    if n == 0:
        raise InvalidPlan("cannot split an empty corpus")
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


# ---------------------------------------------------------------------------
# Corpus directories and caches
# ---------------------------------------------------------------------------

def load_corpus_dir(path, fields=DEFAULT_FIELDS, abbreviations=None, strict=False):
    """Parse every ``*.txt`` file under a directory, sorted by name. A
    document's id is its file name without the suffix, as
    :func:`bien.synth.write_corpus` writes it.

    Returns ``(documents, lint_issues)``.
    """
    from pathlib import Path

    docs = []
    issues = []
    for p in sorted(Path(path).glob("*.txt")):
        raw = p.read_text(encoding="utf-8")
        doc, doc_issues = parse_tagged_document(
            raw, doc_id=p.stem, fields=fields, abbreviations=abbreviations, strict=strict
        )
        docs.append(doc)
        issues.extend(doc_issues)
    return docs, issues


def write_corpus_cache(docs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_dict(), ensure_ascii=False) + "\n")


def read_corpus_cache(path):
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                docs.append(Document.from_dict(json.loads(line)))
    return docs
