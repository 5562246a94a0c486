"""Per-token observable features: lemma, POS cluster, chunk, semantic, case, length.

Every feature maps a token to a small categorical code. Feature vectors use
0-based codes; a masked feature is all ``MASKED`` (-1) so ablations change
the observation model rather than the code space.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .corpus import KIND_PUNCT, KIND_SYMBOL, KIND_WORD, NA_VALUE
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
    if n == 0:
        raise InvalidSpec("an empty surface has no length bucket")
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

    :func:`featurize` codes each token type against a set once, in a column
    of the type's :class:`~bien.corpus.TypeTable`, and again only for a set
    that differs.
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
    :func:`featurize` looks each token type up once per gazetteer, in a
    column of the type's :class:`~bien.corpus.TypeTable`; an equal
    gazetteer shares that column.
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

    def lookup(self, surface, kind):
        """The id of a token type."""
        if kind in (KIND_PUNCT, KIND_SYMBOL):
            return self.naw_id
        got = self.ids.get(lemmatise(surface, self.lemma_table))
        if got is None:
            # surfaces whose lemma is unlisted may still match directly
            got = self.ids.get(surface.lower())
        return got if got is not None else self.oov_id


def _lemma_keys(table, start, lemma_table):
    """Per type from ``start``: its lemma, or None for punctuation and symbols."""
    return np.array(
        [
            None if kind in (KIND_PUNCT, KIND_SYMBOL) else lemmatise(surface, lemma_table)
            for surface, kind in zip(table.surfaces[start:], table.kinds[start:])
        ],
        dtype=object,
    )


def check_gazetteer_settings(window, max_size):
    """Raise :class:`InvalidSpec` naming ``window`` unless it is an int of
    at least 0, or ``max_size`` unless it is an int of at least 1."""
    for name, value, least in (("window", window, 0), ("max_size", max_size, 1)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise InvalidSpec(f"gazetteer {name} must be an int >= {least}, got {value!r}")


def build_gazetteer(docs, lemma_table, window=3, min_freq=3, max_size=1200):
    """Build the lemma vocabulary from gold-tagged training documents.

    Candidates are lemmas seen within ``window`` tokens of any gold span
    (span tokens included). A candidate enters the vocabulary when its
    whole-corpus lemma frequency reaches ``min_freq``; the vocabulary is
    cut to the ``max_size`` most frequent (ties broken alphabetically).
    Tokens are counted per type and summed per lemma; each type's lemma is
    computed once per lemma table. A negative ``window`` or a ``max_size``
    below 1 raises :class:`InvalidSpec` before any work.
    """
    check_gazetteer_settings(window, max_size)
    by_table = {}
    for doc in docs:
        by_table.setdefault(doc.types, []).append(doc)
    freq = {}
    candidates = set()
    for table, group in by_table.items():
        lemmas = table.column(_lemma_keys, lemma_table)
        counts = np.bincount(
            np.concatenate([doc.type_ids for doc in group]), minlength=len(table)
        )
        near = np.zeros(len(table), dtype=bool)
        for doc in group:
            last = len(doc.tokens) - 1
            for span in doc.gold_spans:
                lo = max(0, span.start_token - window)
                near[doc.type_ids[lo : min(last, span.end_token + window) + 1]] = True
        seen = np.flatnonzero(counts)
        for t, n, is_near in zip(seen.tolist(), counts[seen].tolist(), near[seen].tolist()):
            lem = lemmas[t]
            if lem is not None:
                freq[lem] = freq.get(lem, 0) + n
                if is_near:
                    candidates.add(lem)
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


def _lexicon_codes(table, start, lexicons):
    """Per type from ``start``: its semantic, case and length codes."""
    return np.array(
        [
            (
                SEMANTIC.index(semantic_feature(surface, kind, lexicons)),
                CASES.index(case_feature(surface)),
                LENGTH_BUCKETS.index(length_feature(surface)),
            )
            for surface, kind in zip(table.surfaces[start:], table.kinds[start:])
        ],
        dtype=np.int16,
    ).reshape(-1, 3)


def _type_codes(table, start, gazetteer, lexicons):
    """Per type from ``start``: its row of feature codes, with 0 in the pos
    and chunk cells, which come from the document's columns."""
    rows = np.zeros((len(table) - start, len(FEATURE_NAMES)), dtype=np.int16)
    rows[:, 0] = [
        gazetteer.lookup(*t) - 1 for t in zip(table.surfaces[start:], table.kinds[start:])
    ]
    rows[:, 3:] = table.column(_lexicon_codes, lexicons)[start:]
    return rows


def _pos_code(value):
    return POS_CLUSTERS.index(pos_cluster(value))


def _chunk_code(value):
    return CHUNKS.index(chunk_flatten(value))


def featurize(doc, gazetteer, lexicons, mask=()):
    """Encode a document as a ``(T, 6)`` int16 matrix of 0-based codes.

    Column order follows :data:`FEATURE_NAMES`. Both resources are required
    whatever the mask: ``None`` for either raises :class:`MissingResource`.
    Masked features are -1 throughout. POS and chunk columns come from the
    document's annotation columns and degrade to their NA codes when absent.

    The other codes are one gather of per-type rows, kept as a column of the
    document's :class:`~bien.corpus.TypeTable` and computed once per
    gazetteer and lexicon set; the semantic, case and length codes in them
    once per lexicon set. POS and chunk codes are computed once per document.
    """
    if gazetteer is None or lexicons is None:
        raise MissingResource("featurize needs both a gazetteer and lexicons")

    out = doc.types.column(_type_codes, gazetteer, lexicons)[doc.type_ids]
    out[:, 1] = doc.column_codes("pos", _pos_code)
    out[:, 2] = doc.column_codes("chunk", _chunk_code)
    return apply_mask(out, mask)


def mask_columns(mask):
    """The columns of :data:`FEATURE_NAMES` that ``mask`` names, in order.
    An unknown name raises :class:`InvalidSpec`."""
    unknown = set(mask) - set(FEATURE_NAMES)
    if unknown:
        raise InvalidSpec(f"unknown feature names in mask: {sorted(unknown)}")
    return [k for k, name in enumerate(FEATURE_NAMES) if name in mask]


def apply_mask(obs, mask):
    """``obs`` as :func:`featurize` returns it with ``mask``: ``obs`` itself
    when the mask is empty, else a copy with the masked columns all
    ``MASKED``. An unknown name raises :class:`InvalidSpec`."""
    if not mask:
        return obs
    out = obs.copy()
    out[:, mask_columns(mask)] = MASKED
    return out
