"""Per-token observable features: lemma, POS cluster, chunk, semantic, case, length.

Every feature maps a token to a small categorical code. Feature vectors use
0-based codes; a masked feature is all ``MASKED`` (-1) so ablations change
the observation model rather than the code space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .corpus import KIND_PUNCT, KIND_SYMBOL, KIND_WORD, NA_VALUE, Token, TypeMemo
from .errors import EmptyVocabulary, InvalidSpec, MissingResource
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


def case_feature(surface):
    letters = [c for c in surface if c.isalpha()]
    if not letters:
        return "NA"
    if letters[0].isupper() and all(c.islower() for c in letters[1:]):
        return "UpperInitial"
    if all(c.isupper() for c in letters):
        return "AllCaps"
    if all(c.islower() for c in letters):
        return "Lower"
    return "Mixed"


def length_feature(surface):
    n = len(surface)
    if n <= 3:
        return LENGTH_BUCKETS[n - 1]
    if n <= 5:
        return "4-5"
    if n <= 8:
        return "6-8"
    return "9+"


def lemmatise(surface, table):
    low = surface.lower()
    return table.get(low, low)


@dataclass(frozen=True)
class LexiconSet:
    """The word lists consulted by the semantic feature, plus the lemma table.

    Semantic codes are not memoized on the set: :func:`featurize` caches each
    type's code with its other codes, in a memo bounded by ``_MEMO_LIMIT`` types.
    """

    titles: frozenset
    firstnames: dict
    lastnames: dict
    locations: frozenset
    timewords: frozenset
    lemma_table: dict = field(default_factory=dict)


def default_lexicons():
    return LexiconSet(
        titles=resources.load_wordlist("titles.txt"),
        firstnames=resources.load_ranked("firstnames.tsv"),
        lastnames=resources.load_ranked("lastnames.tsv"),
        locations=resources.load_wordlist("locations.txt"),
        timewords=resources.load_wordlist("timewords.txt"),
        lemma_table=resources.load_lemma_table(),
    )


_TIME_PATTERNS = (
    re.compile(r"\d\d"),                      # bare hour written as two digits
    re.compile(r"\d{1,2}:\d{2}"),             # 3:30
    re.compile(r"\d{1,2}\.\d{2}"),            # 3.30
    re.compile(r"\d{1,2}(?::\d{2})?(?:am|pm)"),  # 7pm, 7:30pm
)


def _matches_time(low):
    return any(p.fullmatch(low) for p in _TIME_PATTERNS)


def semantic_feature(token, lexicons):
    """Classify a token against the lexicons, most specific class first.

    Priority runs Title > first/last name > Location > Time. Name class is
    decided by frequency rank (lower rank wins, ties go to LastName). Word
    lists only apply to word tokens; time patterns apply to any token.
    """
    low = token.surface.lower()
    if token.kind == KIND_WORD:
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
    if low in lexicons.timewords or _matches_time(low):
        return "Time"
    return "None"


# ---------------------------------------------------------------------------
# Gazetteer
# ---------------------------------------------------------------------------

class Gazetteer:
    """Ranked lemma vocabulary mapping tokens to ids.

    Ids 1..V cover the vocabulary in descending corpus frequency; V+1 is
    out-of-vocabulary and V+2 is not-a-word (punctuation and symbols).
    :meth:`lookup` is not memoized: :func:`featurize` caches each type's id
    with its other codes, in a memo bounded by ``_MEMO_LIMIT`` types.
    """

    def __init__(self, ids, lemma_table):
        if not ids:
            raise EmptyVocabulary("gazetteer has no entries")
        self.ids = dict(ids)
        self.lemma_table = dict(lemma_table)
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

    def lookup(self, token):
        if token.kind in (KIND_PUNCT, KIND_SYMBOL):
            return self.naw_id
        lemma = lemmatise(token.surface, self.lemma_table)
        got = self.ids.get(lemma)
        if got is None:
            # surfaces whose lemma is unlisted may still match directly
            got = self.ids.get(token.surface.lower())
        return got if got is not None else self.oov_id


def build_gazetteer(docs, lemma_table, window=3, min_freq=3, max_size=1200):
    """Build the lemma vocabulary from gold-tagged training documents.

    Candidates are lemmas seen within ``window`` tokens of any gold span
    (span tokens included). A candidate enters the vocabulary when its
    whole-corpus lemma frequency reaches ``min_freq``; the vocabulary is
    cut to the ``max_size`` most frequent (ties broken alphabetically).
    """
    freq = {}
    candidates = set()
    for doc in docs:
        lemmas = [
            None
            if t.kind in (KIND_PUNCT, KIND_SYMBOL)
            else lemmatise(t.surface, lemma_table)
            for t in doc.tokens
        ]
        for lem in lemmas:
            if lem is not None:
                freq[lem] = freq.get(lem, 0) + 1
        for span in doc.gold_spans:
            lo = max(0, span.start_token - window)
            hi = min(len(doc.tokens) - 1, span.end_token + window)
            for i in range(lo, hi + 1):
                if lemmas[i] is not None:
                    candidates.add(lemmas[i])
    kept = [lem for lem in candidates if freq[lem] >= min_freq]
    kept.sort(key=lambda lem: (-freq[lem], lem))
    kept = kept[:max_size]
    if not kept:
        raise EmptyVocabulary(
            f"no lemma near a gold span reaches frequency {min_freq}"
        )
    return Gazetteer({lem: i + 1 for i, lem in enumerate(kept)}, lemma_table)


# ---------------------------------------------------------------------------
# Feature vectors
# ---------------------------------------------------------------------------

def feature_cardinalities(gazetteer):
    return {
        "lemma": gazetteer.cardinality,
        "pos": len(POS_CLUSTERS),
        "chunk": len(CHUNKS),
        "semantic": len(SEMANTIC),
        "case": len(CASES),
        "length": len(LENGTH_BUCKETS),
    }


def _type_codes(key, gazetteer, lexicons):
    """The codes of one (surface, kind) type as the bytes of an int16 feature
    row; the pos and chunk cells are 0, as they come from the document's columns."""
    surface, kind = key
    token = Token(surface, 0, len(surface), kind)
    row = (gazetteer.lookup(token) - 1, 0, 0, SEMANTIC.index(semantic_feature(token, lexicons)),
           CASES.index(case_feature(surface)), LENGTH_BUCKETS.index(length_feature(surface)))
    return np.array(row, dtype=np.int16).tobytes()


_type_memo = TypeMemo(_type_codes)


def _column_codes(values, code_of):
    """Code each distinct value of a column once."""
    codes = {v: code_of(v) for v in set(values)}
    return [codes[v] for v in values]


def featurize(doc, gazetteer, lexicons, mask=()):
    """Encode a document as a ``(T, 6)`` int16 matrix of 0-based codes.

    Column order follows :data:`FEATURE_NAMES`. Both resources are required
    whatever the mask: ``None`` for either raises :class:`MissingResource`.
    Masked features are -1 throughout. POS and chunk columns come from the
    document's annotation columns and degrade to their NA codes when absent.

    Each distinct (surface, kind) is coded once, in a :class:`~bien.corpus.TypeMemo`
    bound to ``(gazetteer, lexicons)`` that holds at most ``_MEMO_LIMIT`` types;
    pos and chunk codes once per distinct value in the document's columns.
    """
    mask = set(mask)
    unknown = mask - set(FEATURE_NAMES)
    if unknown:
        raise InvalidSpec(f"unknown feature names in mask: {sorted(unknown)}")
    if gazetteer is None or lexicons is None:
        raise MissingResource("featurize needs both a gazetteer and lexicons")

    codes = _type_memo.bind(gazetteer, lexicons)
    rows = bytearray().join([codes[t.surface, t.kind] for t in doc.tokens])  # writable
    out = np.frombuffer(rows, dtype=np.int16).reshape(len(doc.tokens), len(FEATURE_NAMES))
    out[:, 1] = _column_codes(doc.column("pos"), lambda v: POS_CLUSTERS.index(pos_cluster(v)))
    out[:, 2] = _column_codes(doc.column("chunk"), lambda v: CHUNKS.index(chunk_flatten(v)))
    for k, name in enumerate(FEATURE_NAMES):
        if name in mask:
            out[:, k] = MASKED
    return out
