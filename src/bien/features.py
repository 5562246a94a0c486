"""Per-token observable features: lemma, POS cluster, chunk, semantic, case, length.

Every feature maps a token to a small categorical code. Feature vectors use
0-based codes; a feature that :func:`featurize`'s ``mask`` names is all
``MASKED`` (-1), a code that adds nothing to a score and trains as missing.
The experiment protocol featurizes unmasked and masks the model instead
(:meth:`~bien.model.BienModel.masked`), so an ablation changes the
observation model rather than the code space.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import get_type_hints

import numpy as np

from .corpus import KIND_PUNCT, KIND_SYMBOL, KIND_WORD, NA_VALUE, Document, surface_lengths
from .errors import EmptyCorpus, EmptyVocabulary, InvalidSpec, MissingResource, check_int
from .errors import check_sequence, check_type
from . import resources

MASKED = -1

FEATURE_NAMES = ("lemma", "pos", "chunk", "semantic", "case", "length")

POS_CLUSTERS = ("CD", "NN", "NNP", "VB", "PUNCT", "IN", "SYM")
CHUNKS = ("NP", "VP", "PP", "NA")
SEMANTIC = ("Title", "FirstName", "LastName", "Location", "Time", "None")
CASES = ("UpperInitial", "Lower", "AllCaps", "Mixed", "NA")
LENGTH_BUCKETS = ("1", "2", "3", "4-5", "6-8", "9+")

_CLUSTER_OF = {
    "CD": "CD",
    "NN": "NN",
    "NNS": "NN",
    "NNP": "NNP",
    "NNPS": "NNP",
    "VB": "VB",
    "VBD": "VB",
    "VBG": "VB",
    "VBN": "VB",
    "VBP": "VB",
    "VBZ": "VB",
    "MD": "VB",
    "IN": "IN",
    "CC": "IN",
    "TO": "IN",
}
for _t in (",", ".", ":", "``", "''", "(", ")", "-LRB-", "-RRB-"):
    _CLUSTER_OF[_t] = "PUNCT"


def pos_cluster(tag):
    """Collapse a Penn Treebank tag into one of the seven coarse clusters.

    Every tag without a cluster of its own, and an absent value (NA), is SYM.
    """
    return _CLUSTER_OF.get(tag, "SYM")


def chunk_flatten(value):
    """Reduce a BIO chunk label to its phrase type (NP/VP/PP), else NA."""
    if value in (None, "", NA_VALUE, "O"):
        return "NA"
    if len(value) > 2 and value[1] == "-":
        value = value[2:]
    return value if value in ("NP", "VP", "PP") else "NA"


@dataclass(frozen=True)
class LexiconSet:
    """The word lists consulted by the semantic feature, plus the lemma table.

    :func:`featurize_docs` codes each token type against a set once, in a
    column of the type's :class:`~bien.corpus.TypeTable`, and again only for
    a set that differs from the last one. A field that is not of its
    declared type raises :class:`InvalidSpec`: a ``str`` word list would
    match substrings with no error.
    """

    titles: frozenset
    firstnames: dict
    lastnames: dict
    locations: frozenset
    timewords: frozenset
    lemma_table: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, kind in get_type_hints(LexiconSet).items():
            check_type(f"LexiconSet.{name}", getattr(self, name), kind)


def default_lexicons():
    return LexiconSet(
        titles=resources.load_wordlist("titles.txt"),
        firstnames=resources.load_ranked("firstnames.tsv"),
        lastnames=resources.load_ranked("lastnames.tsv"),
        locations=resources.load_wordlist("locations.txt"),
        timewords=resources.load_wordlist("timewords.txt"),
        lemma_table=resources.load_lemma_table(),
    )


# bare hour written as two digits | 3:30 | 3.30 | 7pm, 7:30pm
_TIME_RE = re.compile(r"\d\d|\d{1,2}:\d{2}|\d{1,2}\.\d{2}|\d{1,2}(?::\d{2})?(?:am|pm)")


def semantic_feature(surface, kind, lexicons):
    """Classify a token type against the lexicons, most specific class first.

    Priority runs Title > first/last name > Location > Time. Name class is
    decided by frequency rank (lower rank wins, ties go to LastName). Word
    lists only apply to word tokens; time patterns apply to any token.
    """
    low = surface.lower()
    if kind == KIND_WORD:
        if low in lexicons.titles:
            return "Title"
        first = lexicons.firstnames.get(low)
        last = lexicons.lastnames.get(low)
        if first is not None or last is not None:
            if last is None or (first is not None and first < last):
                return "FirstName"
            return "LastName"
        if low in lexicons.locations:
            return "Location"
    if low in lexicons.timewords or _TIME_RE.fullmatch(low):
        return "Time"
    return "None"


# ---------------------------------------------------------------------------
# Gazetteer
# ---------------------------------------------------------------------------

class Gazetteer:
    """Ranked lemma vocabulary mapping tokens to ids.

    Ids 1..V cover the vocabulary in descending corpus frequency; V+1 is
    out-of-vocabulary and V+2 is not-a-word (punctuation and symbols). Any
    other token type's id is that of its lemma (its lowercased surface
    looked up in the lemma table, else that surface itself), else that of
    its lowercased surface, else V+1. :func:`featurize_docs`
    gives each token type its id once per gazetteer, in a column of the
    type's :class:`~bien.corpus.TypeTable`; an equal gazetteer shares that
    column. A lemma table whose lemmas are not all ``str`` raises
    :class:`InvalidSpec`.
    """

    def __init__(self, ids, lemma_table):
        if not ids:
            raise EmptyVocabulary("gazetteer has no entries")
        self.ids = dict(ids)
        self.lemma_table = dict(lemma_table)
        _check_lemmas(self.lemma_table)
        v = len(self.ids)
        if sorted(self.ids.values()) != list(range(1, v + 1)):
            raise InvalidSpec("gazetteer ids must be exactly 1..V")
        self.oov_id = v + 1
        self.naw_id = v + 2

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return (
            isinstance(other, Gazetteer)
            and self.ids == other.ids
            and self.lemma_table == other.lemma_table
        )

    @property
    def cardinality(self):
        """Number of distinct ids a token can map to."""
        return len(self.ids) + 2


_NOT_A_WORD = frozenset((KIND_PUNCT, KIND_SYMBOL))


def _check_lemmas(lemma_table):
    """Raise :class:`InvalidSpec` naming the first word of ``lemma_table``
    whose lemma is not a ``str``. Lemmas are numbered in a type table's
    shared ``derived`` numbering, which every later call reads, and are
    ranked as strings."""
    for word, lemma in lemma_table.items():
        check_type(f"the lemma of {word!r}", lemma, str)


def _lemma_numbers(table, start, lemma_table):
    """Per type from ``start``: the numbers in ``table.derived`` of its lemma
    (its lowercased surface looked up in ``lemma_table``, else that surface)
    and of its lowercased surface, as an int32 ``(n, 2)`` array; -1 for
    both for punctuation and symbols. The strings are lowercased, looked
    up and numbered (:meth:`~bien.corpus.Numbering.numbers_of`) by ``map``
    over the new types, with no Python call per type."""
    kinds = table.kinds[start:]
    n = len(kinds)
    word = ~np.fromiter(map(_NOT_A_WORD.__contains__, kinds), bool, n)
    surfaces = list(itertools.compress(table.surfaces[start:], word))
    # A lowercase form equal to a new surface is numbered as that surface,
    # so that the numbering keeps no copy of it.
    own = dict(zip(surfaces, surfaces))
    lows = list(map(str.lower, surfaces))
    lows = list(map(own.get, lows, lows))
    out = np.full((n, 2), -1, dtype=np.int32)
    out[word, 1] = table.derived.numbers_of(lows)
    out[word, 0] = table.derived.numbers_of(list(map(lemma_table.get, lows, lows)))
    return out


def check_gazetteer_settings(window, min_freq, max_size):
    """Raise :class:`InvalidSpec` naming ``window`` unless it is an int of
    at least 0, or ``min_freq`` or ``max_size`` unless it is an int of at
    least 1; a bool is not an int. A ``min_freq`` below 1 would keep every
    candidate, as 1 does."""
    check_int("gazetteer window", window, 0)
    check_int("gazetteer min_freq", min_freq, 1)
    check_int("gazetteer max_size", max_size, 1)


def _near_gold(group, window):
    """Per token of the ``group``'s documents, concatenated: whether it lies
    within ``window`` tokens of a gold span of its document (span tokens
    included). A difference array marks every span's neighbourhood, clipped
    to its document, in one pass; every span lies inside its document
    (:class:`~bien.corpus.Document` checks it), so no neighbourhood is
    empty."""
    lengths = np.fromiter((len(doc.type_ids) for doc in group), dtype=np.int64, count=len(group))
    ends = np.cumsum(lengths)
    per_doc = [len(doc.gold_spans) for doc in group]
    spans = list(itertools.chain.from_iterable(doc.gold_spans for doc in group))
    first = np.repeat(ends - lengths, per_doc)
    starts = np.fromiter([s.start_token for s in spans], np.int64, len(spans))
    stops = np.fromiter([s.end_token for s in spans], np.int64, len(spans))
    lo = first + np.maximum(starts - window, 0)
    hi = np.minimum(first + stops + window, np.repeat(ends - 1, per_doc))
    depth = np.bincount(lo, minlength=ends[-1] + 1)
    depth -= np.bincount(hi + 1, minlength=len(depth))
    return np.cumsum(depth, out=depth)[:-1] > 0


def build_gazetteer(docs, lemma_table, window=3, min_freq=3, max_size=1200):
    """Build the lemma vocabulary from gold-tagged training documents.

    Candidates are lemmas seen within ``window`` tokens of any gold span
    (span tokens included). A candidate enters the vocabulary when its
    whole-corpus lemma frequency reaches ``min_freq``; the vocabulary is
    cut to the ``max_size`` most frequent (ties broken alphabetically).
    A ``window`` below 0, a ``min_freq`` or ``max_size`` below 1, anything
    but a sequence for ``docs``, or a ``lemma_table`` that is not a dict
    of ``str`` lemmas, raises :class:`InvalidSpec` before any work, and a
    ``lemma_table`` of ``None`` raises :class:`MissingResource`.

    The work is whole-array passes over each type table's documents, with
    their type ids concatenated: every token's lemma is its type's number in
    the table's lemma column (lemmatised once per type and lemma table), the
    frequencies are one ``np.bincount`` of those numbers, and the
    neighbourhoods of all gold spans are marked at once (see
    :func:`_near_gold`). The lemmas of documents in a later table are
    renumbered in the first table's numbering.
    """
    check_gazetteer_settings(window, min_freq, max_size)
    if lemma_table is None:
        raise MissingResource("build_gazetteer needs a lemma table")
    docs = check_sequence("docs", docs)
    check_type("lemma_table", lemma_table, dict)
    _check_lemmas(lemma_table)
    by_table = {}
    for doc in docs:
        by_table.setdefault(doc.types, []).append(doc)
    numbering = None  # the first table's, in which every lemma is counted
    lemmas, near = [], []
    for table, group in by_table.items():
        lemma = table.column(_lemma_numbers, lemma_table)[:, 0]
        if numbering is None:
            numbering = table.derived
        else:
            # the number of each string of this table, then -1, which stays -1
            renumbered = numbering.numbers_of(table.derived.strings)
            lemma = np.append(renumbered, np.int32(-1))[lemma]
        lemmas.append(lemma[np.concatenate([doc.type_ids for doc in group])])
        near.append(_near_gold(group, window))
    if not by_table:
        raise EmptyCorpus("a gazetteer needs at least one training document")
    lemmas, near = np.concatenate(lemmas), np.concatenate(near)
    word = lemmas >= 0
    freq = np.bincount(lemmas[word], minlength=len(numbering.strings))
    candidate = np.zeros(len(freq), dtype=bool)
    candidate[lemmas[word & near]] = True
    kept = np.flatnonzero(candidate & (freq >= min_freq))
    # most frequent first, ties alphabetically
    ranked = sorted(zip((-freq[kept]).tolist(), map(numbering.strings.__getitem__, kept.tolist())))
    if not ranked:
        raise EmptyVocabulary(
            f"no lemma near a gold span reaches frequency {min_freq}"
        )
    return Gazetteer({lem: i + 1 for i, (_, lem) in enumerate(ranked[:max_size])}, lemma_table)


# ---------------------------------------------------------------------------
# Feature vectors
# ---------------------------------------------------------------------------

def feature_cardinalities(gazetteer):
    """The number of codes of each feature, keyed in :data:`FEATURE_NAMES` order."""
    values = (POS_CLUSTERS, CHUNKS, SEMANTIC, CASES, LENGTH_BUCKETS)
    return dict(zip(FEATURE_NAMES, (gazetteer.cardinality, *map(len, values)), strict=True))


def _code_of(names):
    """Each of ``names`` mapped to its 0-based code."""
    return {name: k for k, name in enumerate(names)}


_SEMANTIC_CODE, _CASE_CODE = _code_of(SEMANTIC), _code_of(CASES)
_POS_CODE, _CHUNK_CODE = _code_of(POS_CLUSTERS), _code_of(CHUNKS)


def _coded(code_of, names, n):
    """The codes of ``n`` names by the dict ``code_of``, as an int16 array."""
    return np.fromiter(map(code_of.__getitem__, names), dtype=np.int16, count=n)


# the upper bound of each length bucket but the last: 1, 2, 3, 5 and 8
_LENGTH_BOUNDS = np.array([int(bucket.split("-")[-1]) for bucket in LENGTH_BUCKETS[:-1]])
_CASE_OF_COUNTS = [_CASE_CODE[c] for c in ("NA", "UpperInitial", "AllCaps", "Lower")]


def _letter_case(c):
    """A character's case class: 0 if it is not a letter (``str.isalpha``),
    else 2 for a capital, 1 for a lowercase letter and 3 for neither."""
    if not c.isalpha():
        return 0
    return 2 if c.isupper() else 1 if c.islower() else 3


# per Latin-1 code point: its case class
_LATIN1_CASE = np.array([_letter_case(chr(c)) for c in range(256)], dtype=np.uint8)


def _case_classes(text):
    """The case class (:func:`_letter_case`) of each code point of
    ``text``, as uint8, from one pass over its code points: a code point in
    Latin-1 is looked up in a table, and each distinct code point past
    Latin-1 is classified once."""
    # surrogatepass keeps a lone surrogate as one code point
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    classes = _LATIN1_CASE[np.minimum(codes, 255)]
    wide = codes > 255
    distinct, at = np.unique(codes[wide], return_inverse=True)
    classes[wide] = np.array([_letter_case(chr(c)) for c in distinct.tolist()], np.uint8)[at]
    return classes


def _case_codes(surfaces, lengths):
    """The case code of each of ``surfaces``, whose lengths are
    ``lengths``, from the case classes of their join: a surface with no
    letter is NA; one whose first letter is a capital and whose other
    letters are all lowercase is UpperInitial (a single capital too); then
    AllCaps, Lower, else Mixed. Each surface's letters, capitals and
    lowercase letters are counted by ``np.add.reduceat``."""
    classes = _case_classes("".join(surfaces))
    starts = np.cumsum(lengths) - lengths
    letters, lower, upper = (
        np.add.reduceat(hit, starts, dtype=np.int32)
        for hit in (classes > 0, classes == 1, classes == 2)
    )
    # each surface's first letter, past the last letter for a surface with none
    at = np.flatnonzero(classes)
    first = np.append(classes[at], 0)[np.searchsorted(at, starts)]
    return np.select(
        [letters == 0, (first == 2) & (lower == letters - 1), upper == letters, lower == letters],
        _CASE_OF_COUNTS,
        _CASE_CODE["Mixed"],
    )


def _lexicon_codes(table, start, lexicons):
    """Per type from ``start``: its semantic, case and length codes, as an
    int16 ``(n, 3)`` array.

    The length codes are one ``np.searchsorted`` of the table's surface
    lengths (:func:`~bien.corpus.surface_lengths`) among the buckets'
    bounds. The case codes are whole-array passes over the new surfaces
    joined (:func:`_case_codes`), with one call per distinct code point
    past Latin-1. The semantic codes are one :func:`semantic_feature` call
    per type."""
    surfaces, kinds = table.surfaces[start:], table.kinds[start:]
    n = len(surfaces)
    lengths = table.column(surface_lengths)[start:]
    out = np.empty((n, 3), dtype=np.int16)
    semantic = map(semantic_feature, surfaces, kinds, itertools.repeat(lexicons))
    out[:, 0] = _coded(_SEMANTIC_CODE, semantic, n)
    out[:, 1] = _case_codes(surfaces, lengths)
    out[:, 2] = np.searchsorted(_LENGTH_BOUNDS, lengths)
    return out


def _gazetteer_ids(table, start, gazetteer):
    """Per type from ``start``: its id in ``gazetteer`` (see
    :class:`Gazetteer`), from the numbers of its lemma and lowercased
    surface in the table's lemma column. Each distinct string among them is
    looked up once."""
    numbers = table.column(_lemma_numbers, gazetteer.lemma_table)[start:]
    strings = table.derived.strings
    # the id of each string numbered here, 0 when unlisted; the last cell,
    # which -1 reads, is not-a-word
    ids = np.zeros(len(strings) + 1, dtype=np.int32)
    used = np.zeros(len(ids), dtype=bool)
    used[numbers] = True
    used[-1] = False
    used = np.flatnonzero(used)
    listed = map(gazetteer.ids.get, map(strings.__getitem__, used.tolist()), itertools.repeat(0))
    ids[used] = np.fromiter(listed, np.int32, len(used))
    ids[-1] = gazetteer.naw_id
    got = ids[numbers]
    # a surface whose lemma is unlisted may still match directly
    got = np.where(got[:, 0] > 0, got[:, 0], got[:, 1])
    got[got == 0] = gazetteer.oov_id
    return got


def _type_codes(table, start, gazetteer, lexicons):
    """Per type from ``start``: its row of feature codes, with 0 in the pos
    and chunk cells, which come from the document's columns."""
    rows = np.zeros((len(table) - start, len(FEATURE_NAMES)), dtype=np.int16)
    rows[:, 0] = _gazetteer_ids(table, start, gazetteer) - 1
    rows[:, 3:] = table.column(_lexicon_codes, lexicons)[start:]
    return rows


def _pos_code(value):
    return _POS_CODE[pos_cluster(value)]


def _chunk_code(value):
    return _CHUNK_CODE[chunk_flatten(value)]


@lru_cache(maxsize=64)
def _value_codes(code_of, values):
    """``code_of`` of each of ``values``, a column's tuple of distinct
    values, as a read-only int16 array. Generated documents share one
    tuple, so it is coded once per process."""
    out = np.fromiter(map(code_of, values), dtype=np.int16, count=len(values))
    out.flags.writeable = False
    return out


def _gather(parts, rows_of):
    """``rows_of(key)[ids]`` for each ``(key, ids)`` of ``parts``, stacked in
    order, by one take. ``rows_of`` is called once per distinct key, by
    identity, and the ids of a later key are shifted past the rows of the
    keys before it."""
    ids = np.concatenate([ids for _, ids in parts])
    keys = list({id(key): key for key, _ in parts}.values())
    rows = [rows_of(key) for key in keys]
    if len(keys) > 1:
        first = dict(zip(map(id, keys), np.cumsum([0] + [len(r) for r in rows[:-1]]).tolist()))
        shift = [first[id(key)] for key, _ in parts]
        ids = ids + np.repeat(shift, [len(part_ids) for _, part_ids in parts])
        rows = [np.concatenate(rows)]
    return np.take(rows[0], ids, axis=0)


def featurize(doc, gazetteer, lexicons, mask=()):
    """:func:`featurize_docs` of the one document ``doc``: its ``(T, 6)``
    int16 matrix of 0-based codes. A ``doc`` that is not a
    :class:`~bien.corpus.Document` raises :class:`InvalidSpec`."""
    check_type("doc", doc, Document)
    return featurize_docs([doc], gazetteer, lexicons, mask)


def featurize_docs(docs, gazetteer, lexicons, mask=()):
    """Encode ``docs`` as one ``(N, 6)`` int16 matrix of 0-based codes, a
    row per token, the documents' rows stacked in order.

    Column order follows :data:`FEATURE_NAMES`. Both resources are required
    whatever the mask: ``None`` for either raises :class:`MissingResource`,
    and anything but a :class:`Gazetteer` and a :class:`LexiconSet`
    :class:`InvalidSpec`, as does anything but a sequence for ``docs``.
    Masked features are -1 throughout; a bad ``mask`` raises
    :class:`InvalidSpec` (:func:`mask_columns`). POS and chunk columns
    come from the documents' annotation columns and degrade to their NA
    codes when absent.

    The other codes are one gather of per-type rows, through the documents'
    type ids concatenated. The rows are kept as a column of each document's
    :class:`~bien.corpus.TypeTable` and computed once per gazetteer and
    lexicon set: the gazetteer ids from the table's lemma column, kept per
    lemma table, and the semantic, case and length codes from a column kept
    per lexicon set. A column is coded a table at a time, for the types
    added since it was last read: lemmas, lowercase forms and gazetteer ids
    are looked up by ``map`` over the new types (:func:`_lemma_numbers`,
    :func:`_gazetteer_ids`), and the case and length codes are whole-array
    passes over their surfaces joined and their lengths
    (:func:`_lexicon_codes`), with one call per distinct code point past
    Latin-1. Only the semantic code is one Python call per type. Documents
    that share one table gather from its column as it is kept; those of a
    second table, which starts over at ``_MEMO_LIMIT`` types, read its rows
    after the first table's. POS and chunk codes are gathered the same
    way, through each
    :class:`~bien.corpus.ColumnView`'s codes, from its tuple of values
    coded once; nothing is kept on a document. The type-code gather is the
    only matrix allocated, so the result is fresh and writable; a mask
    blanks its columns in place.
    """
    if gazetteer is None or lexicons is None:
        raise MissingResource("featurize needs both a gazetteer and lexicons")
    docs = check_sequence("docs", docs)
    check_type("gazetteer", gazetteer, Gazetteer)
    check_type("lexicons", lexicons, LexiconSet)
    columns = mask_columns(mask)  # checked on an empty side too
    if not docs:
        return np.empty((0, len(FEATURE_NAMES)), dtype=np.int16)
    out = _gather(
        [(doc.types, doc.type_ids) for doc in docs],
        lambda table: table.column(_type_codes, gazetteer, lexicons),
    )
    for k, name, code_of in ((1, "pos", _pos_code), (2, "chunk", _chunk_code)):
        views = [doc.column_view(name) for doc in docs]
        out[:, k] = _gather([(v.values, v.codes) for v in views], partial(_value_codes, code_of))
    if columns:
        out[:, columns] = MASKED
    return out


def mask_columns(mask):
    """The columns of :data:`FEATURE_NAMES` that ``mask`` names, in order.
    Anything but a sequence (:func:`~bien.errors.check_sequence`), or an
    unknown name, raises :class:`InvalidSpec`."""
    mask = check_sequence("mask", mask)
    unknown = set(mask) - set(FEATURE_NAMES)
    if unknown:
        raise InvalidSpec(f"unknown feature names in mask: {sorted(unknown)}")
    return [k for k, name in enumerate(FEATURE_NAMES) if name in mask]
