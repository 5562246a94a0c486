"""Corpus ingestion: tokenization, inline-tag parsing and train/test splits.

Documents are single token streams. Gold annotations arrive as inline
``<field>...</field>`` pairs; parsing strips the markup and records which
tokens each pair covered. All offsets refer to the tag-stripped text.

Texts are ingested a block of documents at a time
(:func:`parse_tagged_documents`; :func:`parse_tagged_document` is a block
of one): one regex split strips the tags of the whole block, and then one
:func:`tokenize` call and one bisection of the token bounds serve it, so
the calls made per block, not per document, set the cost; only a pair
that may raise a lint issue, and a block with a malformed document, are
read one at a time. The documents of a block share one type table, and
each table memoizes the chunks it has split with its own ids, splitting a
call's new chunks together. A table and its memo start over together,
between calls and never inside one, once the table holds ``_MEMO_LIMIT``
types or chunks. There is one tokenizer: every entry point keeps the
periods of the bundled abbreviations.

A document holds its tokens as columns: a :class:`TypeTable` of
``(surface, kind)`` types, an int32 array of each token's type id and an
int32 array of each token's start offset. A token's end is its start plus
the length of its surface. The annotation and feature layers work once per
type, on arrays the table holds, and gather them through the ids;
``Document.tokens`` builds a :class:`Token` only for an element that is read.
An annotation column (POS, chunk) is held the same way, as a
:class:`ColumnView`: a tuple of its distinct values and an unsigned-int
array of each token's code in it, so that no string is kept per token.
"""

from __future__ import annotations

import numbers
import re
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, filterfalse
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, InvalidPlan, InvalidSpec, MalformedTag, check_int
from .errors import check_integers, check_sequence, check_type
from .resources import load_abbreviations

KIND_WORD = "word"
KIND_NUMBER = "number"
KIND_PUNCT = "punctuation"
KIND_SYMBOL = "symbol"
KIND_MIXED = "mixed"
_KINDS = (KIND_WORD, KIND_NUMBER, KIND_PUNCT, KIND_SYMBOL, KIND_MIXED)

NA_VALUE = "NA"
_NA_VALUES = (NA_VALUE,)  # the values of every absent column

DEFAULT_FIELDS = ("speaker", "location", "stime", "etime")


@dataclass(frozen=True, slots=True)
class Token:
    """An element of ``Document.tokens``, and what a document is built from
    by hand. A surface that is not a ``str``, or a kind that is not one of
    the five ``KIND_*`` values, raises :class:`InvalidSpec`: a document
    built from the token would add it to the type table that every later
    call reads. So do offsets that :func:`~bien.errors.check_int` refuses,
    a ``start`` below 0, and an empty surface or one whose length is not
    ``end - start``. The offsets are kept as Python ints."""

    surface: str
    start: int
    end: int
    kind: str

    def __post_init__(self):
        check_type("token surface", self.surface, str)
        if self.kind not in _KINDS:  # a tuple, so an unhashable kind is refused too
            raise InvalidSpec(f"token kind must be one of {', '.join(_KINDS)}, got {self.kind!r}")
        start = check_int("token start", self.start, 0)
        end = check_int("token end", self.end)
        if not self.surface or end - start != len(self.surface):
            raise InvalidSpec(f"token {self.surface!r} does not span [{start}, {end})")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True, slots=True, init=False)
class TagSpan:
    """One gold slot instance as an inclusive token range. A field that is
    not a ``str``, or bounds that :func:`~bien.errors.check_int` refuses or
    that are not ``0 <= start <= end``, raise :class:`InvalidSpec`. The
    bounds are kept as Python ints. Its own ``__init__`` sets each field
    once, as checked: a span is built per span of every parsed and every
    decoded document."""

    field: str
    start_token: int
    end_token: int

    def __init__(self, field, start_token, end_token):
        check_type("span field", field, str)
        start = check_int("span start", start_token, 0)
        end = check_int("span end", end_token, start)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "start_token", start)
        object.__setattr__(self, "end_token", end)


@dataclass(frozen=True)
class LintIssue:
    file: str
    token_index: int
    code: str
    message: str


class _View(Sequence):
    """A read-only sequence over columns: equal to any sequence of equal
    elements, and shown as the list of them."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


class TokenView(_View):
    """A document's tokens as a read-only sequence over its columns: the
    :class:`TypeTable` ``types``, and int32 arrays of each token's
    ``type_ids`` and ``starts``. A :class:`Token` is built only for an
    element that is read; a slice is a view too. Equal to any sequence of
    equal tokens, whatever table the types are in.

    The columns are checked once, when the view is built, and a slice is
    not checked again: ``types`` must be a :class:`TypeTable`, else
    :class:`InvalidSpec`, ``type_ids`` integers in ``0 .. len(types) - 1``
    and ``starts`` integers of at least 0, as
    :func:`~bien.errors.check_integers` reads them, and the arrays of one
    length, else :class:`AlignmentError`."""

    __slots__ = ("types", "type_ids", "starts")

    def __init__(self, types, type_ids, starts):
        check_type("token types", types, TypeTable)
        self.type_ids = check_integers("token type ids", type_ids, low=0, high=len(types))
        self.starts = check_integers("token starts", starts, low=0)
        if len(self.type_ids) != len(self.starts):
            raise AlignmentError(f"{len(self.type_ids)} type ids for {len(self.starts)} starts")
        self.types = types

    @classmethod
    def _of(cls, types, type_ids, starts):
        """A view over columns known to be valid, such as a slice of a
        checked view's: not checked again."""
        view = object.__new__(cls)
        view.types, view.type_ids, view.starts = types, type_ids, starts
        return view

    def __len__(self):
        return len(self.type_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TokenView._of(self.types, self.type_ids[i], self.starts[i])
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"token index {i} out of range for {n} tokens")
        return self._token(int(self.type_ids[i]), int(self.starts[i]))

    def __iter__(self):
        return map(self._token, self.type_ids.tolist(), self.starts.tolist())

    def _token(self, type_id, start):
        surface = self.types.surfaces[type_id]
        return Token(surface, start, start + len(surface), self.types.kinds[type_id])


class ColumnView(_View):
    """A per-token annotation column as a read-only sequence of strings:
    the tuple ``values`` of its distinct values, and an unsigned-int array
    of each token's ``codes``, an index into ``values``. A value is looked
    up only for an element that is read; a slice is a view too. Equal to
    any sequence of the same strings, whatever its codes. The columns are
    checked once, when the view is built, and a slice is not checked
    again: ``values`` that are not a ``tuple``, or codes that are not
    integers in ``0 .. len(values) - 1``
    (:func:`~bien.errors.check_integers`), raise :class:`InvalidSpec`."""

    __slots__ = ("values", "codes")

    def __init__(self, values, codes):
        check_type("column values", values, tuple)
        self.values = values
        self.codes = check_integers("column codes", codes, low=0, high=len(values))

    @classmethod
    def _of(cls, values, codes):
        """A view over columns known to be valid, such as a slice of a
        checked view's: not checked again."""
        view = object.__new__(cls)
        view.values, view.codes = values, codes
        return view

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ColumnView._of(self.values, self.codes[i])
        return self.values[self.codes[i]]


def check_spans(doc_id, role, spans, n_tokens):
    """The span list ``spans`` of document ``doc_id`` as a tuple
    (:func:`~bien.errors.check_sequence`), once it is known to hold only
    :class:`TagSpan` instances that end before the document's ``n_tokens``
    tokens. Anything else raises :class:`InvalidSpec` naming the document,
    the ``role`` of the spans (``"gold"`` or ``"predicted"``) and, for a
    span past the end, the span."""
    spans = check_sequence(f"{doc_id}: {role} spans", spans)
    for span in spans:
        check_type(f"{doc_id}: a {role} span", span, TagSpan)
        if span.end_token >= n_tokens:
            raise InvalidSpec(f"{doc_id}: {role} {span} ends past its {n_tokens} tokens")
    return spans


@dataclass(frozen=True)
class Document:
    """A token stream with its gold spans and annotation columns.

    ``tokens`` is a :class:`TokenView` over the token columns; ``types``
    and ``type_ids`` read two of them from it. Each of ``columns`` is a
    :class:`ColumnView` of per-token values. A document built by hand from
    a sequence of :class:`Token` is converted to the token columns once,
    here, with its types in the tokenizer's current table, and a column
    given as any other sequence to a :class:`ColumnView` of its distinct
    values, numbered in order of first use. Equality compares the id, the
    text, each token's surface, kind and start, the gold spans and each
    column's values token by token, never type ids or codes: documents
    made on either side of a table restart hold a type under different
    ids. A text that is not a ``str``, ``tokens`` that are neither a
    :class:`TokenView` nor a sequence (:func:`~bien.errors.check_sequence`),
    gold spans that :func:`check_spans` refuses, ``columns`` that are
    not a ``dict`` and a column that is neither a :class:`ColumnView` nor
    a sequence raise :class:`InvalidSpec`, and a column of the wrong
    length :class:`AlignmentError`, before any token's type enters the
    table. The gold spans are kept as a tuple.
    """

    id: str
    text: str
    tokens: TokenView
    gold_spans: tuple[TagSpan, ...] = ()
    columns: dict[str, ColumnView] = field(default_factory=dict)

    def __post_init__(self):
        check_type("document text", self.text, str)
        tokens = self.tokens
        if not isinstance(tokens, TokenView):
            tokens = check_sequence("document tokens", tokens)
        spans = check_spans(self.id, "gold", self.gold_spans, len(tokens))
        object.__setattr__(self, "gold_spans", spans)
        check_type("document columns", self.columns, dict)
        columns = {}
        for name, values in self.columns.items():
            if not isinstance(values, ColumnView):
                numbering = Numbering()
                codes = numbering.numbers_of(check_sequence(f"column {name!r}", values))
                dtype = np.min_scalar_type(max(len(numbering) - 1, 0))
                values = ColumnView._of(tuple(numbering.strings), codes.astype(dtype))
            if len(values) != len(tokens):
                raise AlignmentError(
                    f"column {name!r} has {len(values)} values for {len(tokens)} tokens"
                )
            columns[name] = values
        object.__setattr__(self, "columns", columns)
        if not isinstance(tokens, TokenView):
            table = _current_types()
            ids = table.ids_of([(t.surface, t.kind) for t in tokens])
            starts = np.array([t.start for t in tokens], np.int32)
            view = TokenView._of(table, ids, starts)
            object.__setattr__(self, "tokens", view)

    def __len__(self):
        return len(self.tokens)

    @property
    def types(self):
        return self.tokens.types

    @property
    def type_ids(self):
        return self.tokens.type_ids

    def column(self, name):
        """Per-token values for a column as a tuple, all-NA when absent."""
        view = self.column_view(name)
        return tuple(map(view.values.__getitem__, view.codes.tolist()))

    def column_view(self, name):
        """The :class:`ColumnView` of a column, all-NA when absent."""
        view = self.columns.get(name)
        if view is None:
            view = ColumnView._of(_NA_VALUES, np.zeros(len(self), dtype=np.uint8))
        return view


def side_spans(docs):
    """The gold spans of the sequence ``docs``, read once for the layers
    that work a side at a time: ``(lengths, counts, starts, ends,
    fields)``. ``lengths`` and ``counts`` are int64 arrays of each
    document's token count and span count; ``starts``, ``ends`` and the
    tuple ``fields`` give every span's first and last token, numbered in
    its own document, and its field, the documents' spans one after
    another in document order and each document's in its gold order."""
    spans = [span for doc in docs for span in doc.gold_spans]
    lengths = np.fromiter([len(doc.type_ids) for doc in docs], np.int64, len(docs))
    counts = np.fromiter([len(doc.gold_spans) for doc in docs], np.int64, len(docs))
    starts = np.fromiter([span.start_token for span in spans], np.int64, len(spans))
    ends = np.fromiter([span.end_token for span in spans], np.int64, len(spans))
    return lengths, counts, starts, ends, tuple(span.field for span in spans)


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
    major = None
    for c in surface:
        major = unicodedata.category(c)[0]
        if major not in "PS":
            return KIND_MIXED
    return KIND_PUNCT if len(surface) == 1 and major == "P" else KIND_SYMBOL


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
    """Split one whitespace-delimited chunk into (surface, offset) pieces."""
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
    return pieces


# A type table with this many types or memo chunks is replaced by a new one
# before the next call; one call's new entries may pass it.
_MEMO_LIMIT = 1 << 16


class Numbering(dict):
    """Strings (or any hashable keys, such as a :class:`TypeTable`'s
    types) numbered from 0 in order of first use: :meth:`numbers_of`
    numbers a list of strings, ``numbering[s]`` is then the number of
    ``s``, and ``numbering.strings[k]`` the string numbered ``k``."""

    def __init__(self):
        super().__init__()
        self.strings = []

    def numbers_of(self, strings):
        """The number of each of the list ``strings``, as an int32 array;
        the strings not yet numbered are numbered all at once, in order of
        first use, with no Python call per string."""
        new = list(dict.fromkeys(filterfalse(self.__contains__, strings)))
        self.update(zip(new, count(len(self.strings))))
        self.strings += new
        return np.fromiter(map(self.__getitem__, strings), np.int32, len(strings))


class TypeTable:
    """An append-only table of ``(surface, kind)`` token types; a type's id
    is its index, numbered in order of first use by the :class:`Numbering`
    ``_ids``.

    :meth:`column` keeps an array of per-type values derived from the
    table per compute function, computed once per context and then
    extended for new types only.
    ``derived`` numbers strings derived from the types (their lemmas, say)
    for columns that hold such numbers in place of strings.
    ``chunks`` is the table's own chunk memo (:meth:`pieces_of`). The two
    live and start over together: once a table holds ``_MEMO_LIMIT`` types
    or chunks, the next call gets a new table (:func:`_current_types`).
    """

    def __init__(self):
        self.surfaces = []
        self.kinds = []
        self._ids = Numbering()
        self._columns = {}
        self.derived = Numbering()
        self.chunks = {}

    def __len__(self):
        return len(self.surfaces)

    def __getstate__(self):
        # a pickled table rebuilds its columns, the numbers they hold and
        # its chunk memo where it is used
        return {**self.__dict__, "_columns": {}, "derived": Numbering(), "chunks": {}}

    def ids_of(self, types):
        """The id of each of the list ``types`` of ``(surface, kind)``
        pairs, as an int32 array; the types not yet in the table are added
        all at once, in order of first use (:meth:`Numbering.numbers_of`)."""
        ids = self._ids.numbers_of(types)
        new = self._ids.strings[len(self.surfaces):]
        self.surfaces += [surface for surface, _ in new]
        self.kinds += [kind for _, kind in new]
        return ids

    def pieces_of(self, chunks):
        """The pieces of each of the list ``chunks`` packed as native int32
        pairs, each piece's offset in its chunk and then its type id: bytes,
        which :func:`tokenize` joins for a whole text and reads as one
        array. A chunk the memo ``chunks`` holds costs no Python statement.
        The chunks it does not hold are split together, once each, with the
        bundled abbreviations (loaded then, never at import), and their new
        types get ids in order of first use, as if split one at a time. The
        memo keeps every chunk of the call, past ``_MEMO_LIMIT`` if need be:
        it is bounded where the table is, between calls
        (:func:`_current_types`)."""
        memo = self.chunks
        new = list(dict.fromkeys(filterfalse(memo.__contains__, chunks)))
        if new:
            abbreviations = load_abbreviations()
            split = [_split_chunk(chunk, abbreviations) for chunk in new]
            pieces = list(chain.from_iterable(split))
            surfaces = [surface for surface, _ in pieces]
            pairs = np.empty((len(pieces), 2), np.int32)
            pairs[:, 0] = [at for _, at in pieces]
            pairs[:, 1] = self.ids_of(list(zip(surfaces, map(token_kind, surfaces))))
            packed = pairs.tobytes()
            sizes = np.fromiter(map(len, split), np.intp, len(split)) * 8  # 8 bytes a piece
            ends = np.cumsum(sizes).tolist()
            memo.update(zip(new, map(packed.__getitem__, map(slice, [0, *ends], ends))))
        return list(map(memo.__getitem__, chunks))

    def column(self, compute, *context):
        """The array of ``compute`` over every type. ``compute(table, start,
        *context)`` returns the values of types ``start`` onwards. Per
        ``compute``, one column is kept, with the context it was computed
        for: it is computed afresh for a context that differs (item by
        item, by identity or ``==``), and otherwise extended for the types
        added since it was last read.

        One column per function loses nothing to the jobs this package
        runs. Counted over three repeats of each ``perfbench`` workload in
        one process, the reads of every column hit and miss alike whether
        one context or four are kept per function:

        ==========  =====  ======
        workload    hits   misses
        ==========  =====  ======
        experiment  2,582  19
        ablation    2,532  5
        extract     3,803  5
        ==========  =====  ======

        A column may hold numbers of strings in ``derived`` rather than the
        strings, so that whole-array passes can count or look them up, as
        the lemma column of :mod:`bien.features` does. A number lasts as
        long as the table, so a column recomputed or extended holds the
        same number for the same string."""
        n = len(self.surfaces)
        kept = self._columns.get(compute)
        if kept is not None and kept[0] == context:
            _, values, done = kept
        else:
            values, done = compute(self, 0, *context), n
        if done < n:
            new = compute(self, done, *context)
            if len(values) < n:
                # room for as many again, so that extending per document stays linear
                grown = np.empty((2 * n, *values.shape[1:]), dtype=values.dtype)
                grown[:done] = values[:done]
                values = grown
            values[done:n] = new
            done = n
        self._columns[compute] = (context, values, done)
        return values[:done]


def surface_lengths(table, start):
    """Per type from ``start``: the length of its surface, a column of the
    :class:`TypeTable` (:meth:`TypeTable.column`)."""
    return np.fromiter(map(len, table.surfaces[start:]), dtype=np.int32)


_types = TypeTable()


def _current_types():
    """The table that new tokens get their type ids from. A table that holds
    ``_MEMO_LIMIT`` types or memo chunks is left, with its memo, to the
    documents that use it, and a new one is started."""
    global _types
    if max(len(_types), len(_types.chunks)) >= _MEMO_LIMIT:
        _types = TypeTable()
    return _types


def code_point_classes(text, latin1, classify):
    """The class of each code point of ``text``, from one pass over its
    code points: a code point in Latin-1 is looked up in ``latin1``, an
    array of the 256 classes, and each distinct code point past Latin-1 is
    classified once, as ``classify`` of its character. The result is an
    array of ``latin1``'s dtype."""
    # surrogatepass keeps a lone surrogate as one code point
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    classes = latin1[np.minimum(codes, 255)]
    wide = codes > 255
    distinct, at = np.unique(codes[wide], return_inverse=True)
    classes[wide] = np.array([classify(chr(c)) for c in distinct.tolist()], latin1.dtype)[at]
    return classes


# per Latin-1 code point: 1 where str.isspace() holds, else 0
_LATIN1_SPACE = bytes(chr(c).isspace() for c in range(256))


def _chunk_starts(text):
    """The offset of each chunk of ``text.split()``, as int32, from one pass
    over its code points: a chunk starts at a non-whitespace character that
    opens the text or follows whitespace. Whitespace is what
    ``str.isspace()`` says, of each distinct code point past Latin-1
    (:func:`code_point_classes`); ASCII text takes one ``bytes.translate``."""
    text = " " + text  # so that a chunk that opens the text follows whitespace
    if text.isascii():
        space = np.frombuffer(text.encode("ascii").translate(_LATIN1_SPACE), dtype=np.bool_)
    else:
        space = code_point_classes(text, np.frombuffer(_LATIN1_SPACE, np.bool_), str.isspace)
    return np.flatnonzero(space[:-1] > space[1:]).astype(np.int32)


def tokenize(text):
    """Split raw text into tokens, separating punctuation from words, as
    the columns a :class:`Document` holds.

    Punctuation becomes its own token except for periods on the bundled
    abbreviations (``resources.load_abbreviations``: "Dr.", "p.m.",
    matched case-insensitively), decimal points, and punctuation internal
    to emails, URLs, and glued alphanumeric forms. The tokens are those of
    :func:`parse_tagged_documents` on the same text.

    Returns ``(types, type_ids, starts)``: the :class:`TypeTable` the
    tokens' types are in, and int32 arrays of each token's type id and
    start offset in ``text``; no :class:`Token` is built. Each distinct
    chunk is split once into its piece offsets and type ids, kept in the
    table's own chunk memo. A chunk the memo holds costs no Python
    statement: the memo's entries are joined and read as one array, and
    the chunks' offsets come from one pass over the text.

    The table is read once per call, so every token of a call gets its
    type from one table, and the call's chunks all enter its memo. A
    table that holds ``_MEMO_LIMIT`` types or chunks after a call is
    replaced, with its memo, before the next one.
    :func:`parse_tagged_documents` tokenizes a block of documents in one
    call, so the table starts over between blocks, never inside one.

    A ``text`` that is not a ``str`` raises :class:`InvalidSpec` before
    the table or its memo is touched, since every later call reads them.
    """
    check_type("text", text, str)
    table = _current_types()
    pieces = table.pieces_of(text.split())
    flat = np.frombuffer(b"".join(pieces), dtype=np.int32)
    sizes = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
    starts = np.repeat(_chunk_starts(text), sizes >> 3)  # 8 bytes a piece
    starts += flat[0::2]
    return table, flat[1::2].copy(), starts


# ---------------------------------------------------------------------------
# Inline-tagged documents
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<(/?)([A-Za-z][A-Za-z0-9_-]*)>")


def _malformed(message, raw, pos, doc_id):
    line = raw.count("\n", 0, pos) + 1
    return MalformedTag(
        f"{message} (document {doc_id!r}, line {line})",
        line=line,
        offset=pos,
        doc_id=doc_id,
    )


def _raise_first_error(raws, doc_ids):
    """Raise the error of the first of ``raws`` in input order whose text
    is not a ``str`` (:class:`InvalidSpec`) or whose tags are unmatched or
    nested (:class:`MalformedTag`), reading one document at a time."""
    for raw, doc_id in zip(raws, doc_ids):
        check_type(f"document {doc_id!r}: text", raw, str)
        open_tag = None  # (name, raw_pos)
        for m in _TAG_RE.finditer(raw):
            name = m.group(2)
            if not m.group(1):
                if open_tag is not None:
                    raise _malformed(
                        f"tag <{name}> opened inside <{open_tag[0]}>", raw, m.start(), doc_id
                    )
                open_tag = (name, m.start())
            elif open_tag is None or open_tag[0] != name:
                raise _malformed(f"unmatched closing tag </{name}>", raw, m.start(), doc_id)
            else:
                open_tag = None
        if open_tag is not None:
            raise _malformed(f"tag <{open_tag[0]}> never closed", raw, open_tag[1], doc_id)


def _strip_block(raws, doc_ids):
    """The block's texts stripped of their tags, from one pass of
    ``_TAG_RE.split`` over the raw texts joined by ``"\\n"``: ``(text,
    bases, names, docs, bounds)``. ``text`` is the stripped texts joined by
    ``"\\n"``, which is whitespace, so that no chunk of it crosses two
    documents; ``bases`` is an int64 array of each document's first
    character in it and, last, its length plus one. Each tag pair gives
    its field in the list ``names``, its document in the int64 array
    ``docs`` and its start and end in ``text`` as a row of the int64
    ``(pairs, 2)`` array ``bounds``, in text order.

    A tag cannot hold a ``"\\n"``, so each tag the pass finds lies in one
    document. When the tags do not alternate opening and closing the same
    field, or a pair opens in one document and closes in another, or a
    text is not a ``str``, the documents are read one at a time for the
    first error in input order (:func:`_raise_first_error`)."""
    try:
        parts = _TAG_RE.split("\n".join(raws))
    except TypeError:  # a text that is not a str
        _raise_first_error(raws, doc_ids)
    segments, closing, names = parts[0::3], parts[1::3], parts[2::3]
    n = len(names)
    # each tag's offset in the stripped text, and in the raw one
    at = np.cumsum(np.fromiter(map(len, segments), np.int64, n + 1)[:-1])
    tag_lengths = np.fromiter(map(len, names), np.int64, n) + 2
    tag_lengths[1::2] += 1  # the closing tags' "/", once they alternate
    removed = np.concatenate(([0], np.cumsum(tag_lengths)))
    raw_at = at + removed[:-1]
    raw_bases = np.zeros(len(raws) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, raws), np.int64, len(raws)) + 1, out=raw_bases[1:])
    docs = np.searchsorted(raw_bases, raw_at, "right") - 1
    if not (
        closing == ["", "/"] * (n // 2)
        and names[0::2] == names[1::2]
        and np.array_equal(docs[0::2], docs[1::2])
    ):
        _raise_first_error(raws, doc_ids)
    bases = raw_bases - removed[np.searchsorted(raw_at, raw_bases)]
    return "".join(segments), bases, names[0::2], docs[0::2], at.reshape(-1, 2)


class _Parsed(NamedTuple):
    """One document of a parsed block: its tokens are those from ``lo`` to
    ``hi`` of the block's."""

    doc_id: str
    text: str
    lo: int
    hi: int
    spans: tuple
    issues: list


def _parse_block(raws, doc_ids, fields):
    """The block's tokens, as one :class:`TokenView` with each token's start
    in its own document's text, and a :class:`_Parsed` per document, in
    input order."""
    raws = check_sequence("raws", raws)
    doc_ids = check_sequence("doc_ids", doc_ids)
    fields = check_sequence("fields", fields)
    if len(raws) != len(doc_ids):
        raise InvalidSpec(f"{len(raws)} documents for {len(doc_ids)} ids")
    # every document's tags are checked before any text is tokenized
    text, bases, names, docs, bounds = _strip_block(raws, doc_ids)
    table, ids, starts = tokenize(text)
    cuts = np.searchsorted(starts, bases)  # each document's first token
    ends = starts + table.column(surface_lengths)[ids]
    # Tokens are ordered and disjoint, so starts and ends are both sorted,
    # and no token of another document lies between a pair's bounds. In
    # the block's tokens, a pair holds those from in_lo to in_hi wholly
    # and overlaps those from over_lo to over_hi.
    in_lo, over_hi = np.searchsorted(starts, bounds, "left").T
    over_lo, in_hi = np.searchsorted(ends, bounds, "right").T
    starts -= np.repeat(bases[:-1], np.diff(cuts)).astype(np.int32)
    # A pair of a known field over at least one token is a gold span. Only
    # a pair that may raise an issue takes the lint branch: its field is
    # unknown, it holds no token or more than 15, or it cuts a token.
    known = np.fromiter(map(fields.__contains__, names), bool, len(names))
    held = in_hi - in_lo
    gold = known & (held > 0)
    lint = ~gold | (held > 15) | (over_lo < in_lo) | (over_hi > in_hi)
    first = cuts[docs]  # each pair's document's first token
    spans = list(map(TagSpan, compress(names, gold), (in_lo - first)[gold].tolist(),
                     (in_hi - 1 - first)[gold].tolist()))
    span_cuts = np.searchsorted(docs[gold], np.arange(len(raws) + 1)).tolist()
    texts = map(text.__getitem__, map(slice, bases[:-1].tolist(), (bases[1:] - 1).tolist()))

    cuts = cuts.tolist()
    found = [[] for _ in raws]
    for p in np.flatnonzero(lint).tolist():
        k, name = int(docs[p]), names[p]
        issues, doc_id, lo = found[k], doc_ids[k], cuts[k]
        # the token numbers of the document
        inside = range(in_lo[p] - lo, in_hi[p] - lo)
        partial = [i for i in range(over_lo[p] - lo, over_hi[p] - lo) if i not in inside]
        # a pair over no token anchors at the next token, clamped to the
        # document's last
        anchor = (inside or partial or [min(inside.start, cuts[k + 1] - lo - 1)])[0]
        if not known[p]:
            issues.append(LintIssue(doc_id, anchor, "UNKNOWN_FIELD", f"tag <{name}> dropped"))
            continue
        for i in partial:
            surface = table.surfaces[ids[lo + i]]
            issues.append(
                LintIssue(
                    doc_id,
                    i,
                    "PARTIAL_BOUNDARY",
                    f"<{name}> boundary falls inside token {surface!r}",
                )
            )
        if not inside:
            issues.append(LintIssue(doc_id, anchor, "EMPTY_SPAN", f"<{name}> covers no token"))
        elif len(inside) > 15:
            issues.append(
                LintIssue(doc_id, inside[0], "LONG_SPAN", f"<{name}> covers {len(inside)} tokens")
            )

    parsed = [
        _Parsed(doc_id, doc_text, lo, hi, tuple(spans[a:b]), issues)
        for doc_id, doc_text, lo, hi, a, b, issues in zip(
            doc_ids, texts, cuts, cuts[1:], span_cuts, span_cuts[1:], found
        )
    ]
    return TokenView(table, ids, starts), parsed


def parse_tagged_documents(raws, doc_ids, fields=DEFAULT_FIELDS):
    """Parse texts with inline ``<field>...</field>`` markup into Documents,
    ``raws[k]`` under the id ``doc_ids[k]``, as one block.

    Returns a ``(document, lint_issues)`` pair per text, in input order.
    The whole block is handled at once: one ``re.split`` of its texts,
    joined by ``"\\n"``, strips every tag and gives each pair's offsets;
    offsets refer to the stripped text. The stripped texts, joined by
    ``"\\n"``, are tokenized in one :func:`tokenize` call, so its documents
    share one type table, and every tag pair is mapped to tokens by
    bisecting the block's token starts and ends; an end is the start plus a
    per-type surface length. A pair covers the tokens that lie wholly
    inside it. A tag naming a field outside ``fields`` is dropped and
    reported as ``UNKNOWN_FIELD``. Misplaced tags in the source are
    ingested as-is and flagged, never corrected: a token cut by a tag is
    ``PARTIAL_BOUNDARY``, a pair covering no token is ``EMPTY_SPAN``
    (anchored at the next token of its document, else its last) and one
    covering more than 15 is ``LONG_SPAN``. Which pairs may raise an issue
    is decided on their bounds in whole-array passes, and only those pairs
    take a Python loop.

    Unmatched or nested tags raise :class:`MalformedTag`, and a text that
    is not a ``str`` :class:`InvalidSpec`, naming the document, for the
    first such document in input order, before any text is tokenized; a
    pair that opens in one text and closes in the next is never closed in
    the first. Such a block is read again one document at a time to find
    that document.
    ``raws`` and ``doc_ids`` of different lengths, or anything but a
    sequence (:func:`~bien.errors.check_sequence`) for ``raws``,
    ``doc_ids`` or ``fields``, raise :class:`InvalidSpec`.
    """
    tokens, parsed = _parse_block(raws, doc_ids, fields)
    return [
        (Document(p.doc_id, p.text, tokens[p.lo : p.hi], p.spans), p.issues) for p in parsed
    ]


def parse_tagged_document(raw, doc_id="doc", fields=DEFAULT_FIELDS):
    """:func:`parse_tagged_documents` on one text: its ``(document,
    lint_issues)`` pair."""
    return parse_tagged_documents([raw], [doc_id], fields)[0]


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
    A plan whose ``runs`` is not an int of at least 1, whose ``seed`` is
    not an int (a bool is neither) or whose ``train_fraction`` is not a
    real in (0, 1) raises :class:`InvalidPlan`, as do fewer than 2
    documents; anything but a sequence for ``corpus``, or a ``plan`` that
    is not a :class:`SplitPlan`, raises :class:`InvalidSpec`.
    """
    corpus = check_sequence("corpus", corpus)
    n = len(corpus)
    if n < 2:
        raise InvalidPlan(f"a train/test split needs at least 2 documents, got {n}")
    check_type("plan", plan, SplitPlan)
    check_int("runs", plan.runs, 1, InvalidPlan)
    check_int("seed", plan.seed, error=InvalidPlan)
    if not (isinstance(plan.train_fraction, numbers.Real) and 0.0 < plan.train_fraction < 1.0):
        raise InvalidPlan(f"train_fraction must be a real in (0, 1), got {plan.train_fraction!r}")
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
