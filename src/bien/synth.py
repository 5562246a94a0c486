"""Deterministic generator for a surrogate announcement corpus.

The announcement archives the experiment protocol was designed around are
not redistributable, so the package ships this generator instead. It
produces seminar announcements with the traits the extractor actually
exploits, and with the failure modes that make extraction non-trivial:

* keyword-led header lines (``Type:``/``Topic:``/``Time:``/``Who:``/
  ``Place:``) followed by a prose abstract, giving a two-segment layout;
* start times everywhere, end times only sometimes and always right after
  the start time; occasional missing speaker or venue lines;
* venues and speakers split between a recurring cast (frequent enough to
  be learned as vocabulary) and one-off names that only the lexicon
  features can identify;
* untagged look-alikes - posting timestamps, refreshment times, host and
  collaborator names, capitalized topic words - that punish tagging on
  surface shape alone.

Everything is drawn from one seeded PCG64 bit generator, by
:class:`_Draws`, which turns its raw 64-bit words into the draws that
``np.random.default_rng(seed)`` makes on numpy 2.x. NEP 19 keeps that raw
stream the same across numpy releases, so a given ``(n_docs, seed)`` pair
always yields byte-identical documents, whatever numpy's ``Generator``
methods do in a later release.
"""

from __future__ import annotations

import numpy as np

from .corpus import DEFAULT_FIELDS, KIND_NUMBER, KIND_PUNCT, KIND_SYMBOL, ColumnView, Document
from .corpus import _parse_block
from .errors import check_int
from .resources import load_ranked, load_wordlist

DEFAULT_DOCS = 485
DEFAULT_SEED = 1993

# words in the venue lexicon that head a reference rather than name a
# building; everything else in the file is treated as a proper name
_GENERIC_VENUE_WORDS = frozenset(
    """hall auditorium room rm. center centre building bldg. library tower
    lab laboratory theater theatre lounge conference campus plaza institute
    pavilion wing annex atrium gallery floor suite office classroom
    amphitheater courtyard""".split()
)

_HEADS = ("Hall", "Auditorium", "Room", "Lounge", "Center")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_AFFILIATIONS = ("CMU", "MIT", "Stanford", "Berkeley", "Cornell", "Toronto")

_TOPIC_MODS = ("Adaptive", "Statistical", "Distributed", "Neural", "Symbolic",
               "Parallel", "Robust", "Hybrid", "Online", "Approximate",
               "Formal", "Interactive")
_TOPIC_HEADS = ("Learning", "Planning", "Vision", "Control", "Inference",
                "Networks", "Systems", "Reasoning", "Optimization", "Search",
                "Robotics", "Verification")

_VERBS = ("describe", "present", "discuss", "survey", "review", "propose",
          "analyze", "extend", "compare", "evaluate")
_NOUNS = ("algorithm", "framework", "approach", "model", "system", "method",
          "technique", "theory", "result", "experiment", "domain", "task",
          "agent", "planner", "network", "dataset", "bound", "policy",
          "proof", "architecture")
_ADJS = ("novel", "adaptive", "robust", "efficient", "scalable", "formal",
         "practical", "general", "incremental", "compact")


_SYLLABLES = ("ta", "ke", "mu", "ra", "hi", "no", "sa", "to", "ko", "ya",
              "shi", "ba", "tsu", "ka", "mo", "ri", "na", "gu", "chi", "wa",
              "da", "se", "ki", "ha", "o", "zu", "ma", "ni")


class _Pools:
    """Name pools split into a recurring cast and a long tail."""

    def __init__(self, rng):
        firsts = sorted(load_ranked("firstnames.tsv"))
        lasts = sorted(load_ranked("lastnames.tsv"))
        self.firsts = [w.capitalize() for w in firsts]
        self.lasts = [w.capitalize() for w in lasts]
        locations = load_wordlist("locations.txt")
        self.venues = [w.capitalize() for w in sorted(locations - _GENERIC_VENUE_WORDS)]

        # names no lexicon covers: the extractor must carry these on
        # title anchors, casing, and vocabulary alone
        known = set(firsts) | set(lasts) | locations
        def coin_names(n, parts):
            out = []
            while len(out) < n:
                word = "".join(rng.choice(_SYLLABLES) for _ in range(parts))
                if 4 <= len(word) <= 10 and word not in known:
                    known.add(word)
                    out.append(word.capitalize())
            return out
        self.foreign_firsts = coin_names(60, 2)
        self.foreign_lasts = coin_names(120, 3)
        # project code names: capitalized header words no lexicon covers,
        # and too far from any tagged span to enter the learned vocabulary
        self.code_names = coin_names(30, 3)

        def pick_pairs(n, used, firsts=None, lasts=None):
            firsts = firsts or self.firsts
            lasts = lasts or self.lasts
            pairs = []
            while len(pairs) < n:
                pair = (rng.choice(firsts), rng.choice(lasts))
                if pair[1] not in used:
                    used.add(pair[1])
                    pairs.append(pair)
            return pairs

        used_lasts = set()
        self.cast = pick_pairs(24, used_lasts)
        # collaborators named in the prose never share a name with the
        # cast, so familiarity alone cannot promote them to speakers
        cast_firsts = {f for f, _ in self.cast}
        cast_lasts = {l for _, l in self.cast}
        self.visitor_firsts = [f for f in self.firsts if f not in cast_firsts]
        self.visitor_lasts = [l for l in self.lasts if l not in cast_lasts]
        self.posters = pick_pairs(8, used_lasts) + pick_pairs(
            7, used_lasts, self.foreign_firsts, self.foreign_lasts)
        # hosts pair a familiar first name with a surname nobody has seen
        # before or will see again
        self.host_lasts = coin_names(800, 3)
        self._cast_deck = []
        # campus buildings recur often enough to be learned as vocabulary
        # but appear in no word list; the long tail of one-off venues is
        # exactly the other way around
        self.frequent_venues = coin_names(18, 3)
        self.rare_venues = list(self.venues)

    def speaker(self, rng):
        """Returns (first, last, recurring?)."""
        if rng.random() < 0.72:
            # deal the cast out in shuffled rounds so everyone genuinely
            # recurs instead of leaving a long tail of near-strangers
            if not self._cast_deck:
                self._cast_deck = rng.permutation(len(self.cast))
            first, last = self.cast[self._cast_deck.pop()]
            return first, last, True
        return (rng.choice(self.firsts), rng.choice(self.lasts), False)

    def host(self, rng):
        """A faculty host: first name from the familiar crowd, surname not."""
        return (rng.choice(self.cast)[0], rng.choice(self.host_lasts))

    def visitor(self, rng):
        """A collaborator named in the prose: an ordinary name, never seen
        twice and never a tagged speaker."""
        return (rng.choice(self.visitor_firsts), rng.choice(self.visitor_lasts))

    def poster(self, rng):
        draw = rng.random()
        if draw < 0.80:
            return rng.choice(self.posters)
        if draw < 0.85:
            return (rng.choice(self.firsts), rng.choice(self.lasts))
        return (rng.choice(self.foreign_firsts), rng.choice(self.foreign_lasts))

    def venue(self, rng):
        """Returns (name, recurring?)."""
        if rng.random() < 0.45:
            return rng.choice(self.frequent_venues), True
        return rng.choice(self.rare_venues), False


# Raw 64-bit words fetched from the bit generator at a time. The draws do
# not depend on it: it only spreads the cost of one numpy call over many
# draws.
_RAW_BLOCK = 512

_MASK32 = (1 << 32) - 1


class _Draws:
    """The draws of ``np.random.default_rng(seed)`` that the generator
    makes, computed in Python from PCG64's raw words.

    NEP 19 keeps a bit generator's raw stream the same across numpy
    releases, but not the algorithms of ``Generator``'s methods. These
    are the algorithms of numpy 2.x, which the tests check draw for draw:

    * ``random()`` is the top 53 bits of one word;
    * a 32-bit draw is the low half of a fresh word, and the high half is
      kept for the next 32-bit draw (a ``random()`` call leaves it kept);
    * ``choice(seq)``, for ``1 <= len(seq) <= 2**32``, is
      ``seq[integers(0, len(seq))]``: nothing drawn at length 1, else
      Lemire's multiply-and-reject method on 32-bit draws (which, in
      Python's unbounded ints, is one bare 32-bit draw at length
      ``2**32``, as numpy makes), and ``integers(lo, hi)`` is
      ``choice(range(lo, hi))``. The generator draws mostly through
      ``choice`` and ``random``, so they read a word inline, and only a
      draw that Lemire's method rejects, or a block of words used up,
      costs a call;
    * ``permutation(n)`` is a Fisher-Yates shuffle of ``range(n)`` whose
      index draws are masked 32-bit draws, redrawn while too large.
    """

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._words = []  # unread words of the current block, last first
        self._half = None  # the kept high half of the last 32-bit draw's word

    def _word(self):
        if not self._words:
            self._words = self._bits.random_raw(_RAW_BLOCK).tolist()
            self._words.reverse()
        return self._words.pop()

    def _uint32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def random(self):
        word = self._words.pop() if self._words else self._word()
        return (word >> 11) * 2.0**-53

    def choice(self, seq):
        n = len(seq)
        if n == 1:
            return seq[0]
        half = self._half
        if half is None:
            word = self._words.pop() if self._words else self._word()
            self._half = word >> 32
            m = (word & _MASK32) * n
        else:
            self._half = None
            m = half * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return seq[m >> 32]

    def integers(self, lo, hi):
        return self.choice(range(lo, hi))

    def permutation(self, n):
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def _clock(rng, start=None, offset=0):
    # seminar slots start on the hour or half hour; ends sit 75 or 105
    # minutes later, so the two vocabularies of clock strings recur and
    # stay disjoint
    if start is None:
        hour = rng.choice((10, 11, 12, 1, 2, 3))
        minute = rng.choice((0, 30))
    else:
        hour, minute = start
        minute += offset
        hour, minute = (hour + minute // 60 - 1) % 12 + 1, minute % 60
    return hour, minute


def _time_string(hour, minute, suffix, with_minutes=True):
    if not with_minutes and minute == 0:
        base = f"{hour}"
    else:
        base = f"{hour}:{minute:02d}"
    return f"{base} {suffix}" if suffix else base


def _topic(rng, n=None, code_names=()):
    n = n or rng.integers(2, 4)
    words = []
    for _ in range(n - 1):
        if code_names and rng.random() < 0.12:
            words.append(rng.choice(code_names))
        else:
            words.append(rng.choice(_TOPIC_MODS))
    words.append(rng.choice(_TOPIC_HEADS))
    return " ".join(words)


def _core_sentence(rng):
    kind = rng.random()
    if kind < 0.35:
        return (f"We {rng.choice(_VERBS)} a {rng.choice(_ADJS)} "
                f"{rng.choice(_NOUNS)} for {rng.choice(_ADJS)} "
                f"{rng.choice(_NOUNS)} construction .")
    if kind < 0.6:
        return (f"The {rng.choice(_NOUNS)} extends recent work on "
                f"{rng.choice(_TOPIC_MODS)} {rng.choice(_TOPIC_HEADS)} "
                f"to the {rng.choice(_NOUNS)} setting .")
    if kind < 0.8:
        return (f"Experiments over a {rng.choice(_ADJS)} "
                f"{rng.choice(_NOUNS)} show that the {rng.choice(_NOUNS)} "
                f"is {rng.choice(_ADJS)} in practice .")
    return (f"This talk will {rng.choice(_VERBS)} the "
            f"{rng.choice(_ADJS)} {rng.choice(_NOUNS)} behind a "
            f"{rng.choice(_ADJS)} {rng.choice(_NOUNS)} .")


def _announcement(rng, pools, seq):
    """One tagged announcement text: a keyword header, a blank line, a prose body."""
    has_etime = rng.random() >= 0.48
    has_speaker = rng.random() >= 0.38
    has_location = rng.random() >= 0.05

    # start/end times share one suffix style per document
    suffix = rng.choice(("p.m.", "pm", "p.m.", "pm", ""))
    with_minutes = rng.random() >= 0.08
    start = _clock(rng)
    stime = _time_string(*start, suffix, with_minutes)
    time_line = f"Time:     <stime>{stime}</stime>"
    if has_etime:
        end = _clock(rng, start=start, offset=rng.choice((75, 105)))
        etime = _time_string(*end, suffix)
        bare = rng.random() < 0.12 and suffix
        if bare:  # suffix once, on the end time only
            time_line = (f"Time:     <stime>{_time_string(*start, '', with_minutes)}"
                         f"</stime> - <etime>{etime}</etime>")
        else:
            time_line = f"Time:     <stime>{stime}</stime> - <etime>{etime}</etime>"

    title, first, last = None, None, None
    who_line = None
    recurring = False
    speaker_in_body = False
    if has_speaker:
        first, last, recurring = pools.speaker(rng)
        # one-off guests get introduced with an honorific; only the
        # recurring faculty cast is familiar enough to appear bare
        if recurring:
            title = rng.choice(("Dr.", "Dr.", "Professor", "", ""))
        else:
            title = rng.choice(("Dr.", "Dr.", "Professor"))
        name = f"{title} {first} {last}".strip()
        # a cast member sometimes skips the Who line and is only introduced
        # in the abstract; visiting guests always get a proper header entry
        speaker_in_body = recurring and rng.random() < 0.40
        if not speaker_in_body:
            key = rng.choice(("Who:     ", "Speaker: "))
            who_line = f"{key} <speaker>{name}</speaker>"
            if rng.random() < 0.3:
                who_line += f" , {rng.choice(_AFFILIATIONS)}"

    place_filler = None
    place_line = None
    # some announcements only name the venue in passing, in the prose
    body_only_location = has_location and rng.random() < 0.09
    if has_location and body_only_location:
        place_filler = rng.choice(pools.rare_venues)
    elif has_location:
        style = rng.random()
        number = f"{rng.integers(1, 80)}{rng.integers(10, 100)}"
        venue, recurring = pools.venue(rng)
        if recurring:
            # the campus buildings are familiar enough to name bare
            if style < 0.25:
                place_filler = venue
            elif style < 0.60:
                place_filler = f"{venue} {rng.choice(_HEADS)} {number}"
            elif style < 0.85:
                place_filler = f"{rng.choice(_HEADS)} {number}"
            else:
                place_filler = f"{venue} {number}"
        else:
            # one-off venues mostly come without the head-noun or room
            # number anchors, so identifying them leans on the lexicon
            if style < 0.62:
                place_filler = venue
            elif style < 0.77:
                place_filler = f"{venue} {number}"
            elif style < 0.82:
                place_filler = f"{venue} {rng.choice(_HEADS)}"
            else:
                place_filler = f"{venue} {rng.choice(_HEADS)} {number}"
        place_line = f"Place:    <location>{place_filler}</location>"

    # who/where/when line order drives which field tends to come first
    order_draw = rng.random()
    if order_draw < 0.02:
        block = [place_line, time_line, who_line]
    elif order_draw < 0.67:
        if rng.random() < 0.5:
            block = [time_line, who_line, place_line]
        else:
            block = [time_line, place_line, who_line]
    else:
        block = [who_line, time_line, place_line]
    block = [line for line in block if line]

    if rng.random() < 0.50:
        host_first, host_last = pools.host(rng)
        block.insert(rng.integers(0, len(block) + 1),
                     f"Host:     {host_first} {host_last}")
    if rng.random() < 0.30:
        block.insert(rng.integers(0, len(block) + 1),
                     f"Sponsor:  the {rng.choice(pools.code_names)} fund")

    day = rng.integers(1, 29)
    date = f"{day}-{rng.choice(_MONTHS)}-1993"
    poster_first, poster_last = pools.poster(rng)
    # posting timestamps use off-grid minutes, so they look like times
    # (and pattern-match as such) without colliding with the recurring
    # seminar-slot vocabulary
    posted_at = f"{rng.integers(8, 18)}:{rng.choice((3, 7, 11, 23, 37, 41, 53, 58)):02d}"
    header_lines = [
        f"<{seq}.{rng.integers(0, 10 ** 8)}.announce@cs.cmu.edu>",
        "Type:     cmu.cs.proj.seminar",
        f"Topic:    {_topic(rng, code_names=pools.code_names)}",
        f"Dates:    {date}",
        *block,
        f"PostedBy: {poster_first.lower()}.{poster_last.lower()}"
        f"@cs.cmu.edu on {date} at {posted_at}",
        "Abstract:",
    ]
    header = "\n".join(header_lines)

    sentences = [_core_sentence(rng) for _ in range(rng.integers(3, 7))]
    if speaker_in_body:
        # some announcements never get a Who line; the guest is only
        # introduced in the abstract itself
        sentences.insert(
            rng.integers(0, len(sentences) + 1),
            f"<speaker>{name}</speaker> of {rng.choice(_AFFILIATIONS)} "
            f"will {rng.choice(_VERBS)} recent results .",
        )
    if has_speaker and recurring and rng.random() < 0.35:
        mention = f"{title} {last}".strip() if title else f"{first} {last}"
        sentences.insert(
            rng.integers(0, len(sentences) + 1),
            f"<speaker>{mention}</speaker> will also {rng.choice(_VERBS)} "
            f"open problems .",
        )
    if rng.random() < 0.70:
        f2, l2 = pools.visitor(rng)
        sentences.insert(
            rng.integers(0, len(sentences) + 1),
            f"This is joint work with {f2} {l2} of "
            f"{rng.choice(_AFFILIATIONS)} .",
        )
    if rng.random() < 0.25:
        sentences.append(f"The talk begins at <stime>{stime}</stime> .")
    if has_location and (body_only_location or rng.random() < 0.12):
        sentences.append(f"The talk is in <location>{place_filler}</location> .")
    if rng.random() < 0.10:
        sentences.append(f"Refreshments will be served at "
                         f"{rng.integers(1, 6)}:{rng.choice((10, 20, 50)):02d} .")

    body = f" {_topic(rng, 3)} Seminar\n " + "\n ".join(sentences)
    return header + "\n\n" + body + "\n"


# ---------------------------------------------------------------------------
# Heuristic annotation columns
# ---------------------------------------------------------------------------

_DETS = {"the", "a", "an", "this", "its", "several"}
_PREPS = {"in", "on", "at", "of", "for", "from", "by", "with", "about",
          "over", "into", "behind"}
_MODALS = {"will", "can", "may", "should"}
_PRONOUNS = {"we", "it", "he", "she", "they"}
_ADVERBS = {"also", "jointly"}
_VERB_WORDS = set(_VERBS) | {v + "s" for v in _VERBS} | {
    "is", "are", "show", "shows", "extends", "begins", "served", "be",
}
_ADJ_WORDS = set(_ADJS) | {"recent", "open", "joint", "main"}

_CHUNK_OF_POS = {
    "DT": "NP", "JJ": "NP", "NN": "NP", "NNP": "NP", "CD": "NP", "PRP": "NP",
    "VB": "VP", "VBZ": "VP", "VBN": "VP", "MD": "VP", "RB": "VP",
    "IN": "PP", "TO": "PP",
}


def _pos_of(surface, kind):
    if kind == KIND_NUMBER:
        return "CD"
    if kind in (KIND_PUNCT, KIND_SYMBOL):
        return surface if surface in (".", ",", ":") else "SYM"
    low = surface.lower()
    if any(ch.isdigit() for ch in low):
        return "CD"
    if low in _DETS:
        return "DT"
    if low == "to":
        return "TO"
    if low in _PREPS:
        return "IN"
    if low in _MODALS:
        return "MD"
    if low in _PRONOUNS:
        return "PRP"
    if low in _ADVERBS:
        return "RB"
    if low in _VERB_WORDS:
        if low in ("served",):
            return "VBN"
        return "VBZ" if low.endswith("s") and low not in ("is",) else "VB"
    if low in _ADJ_WORDS:
        return "JJ"
    return "NNP" if surface[:1].isupper() else "NN"


# Every POS and chunk tag of the rules above. The pos and chunk columns of
# every generated document hold their codes in this one tuple.
_TAGS = (*_CHUNK_OF_POS, ".", ",", ":", "SYM", "NP", "VP", "PP", "NA")
_TAG_CODE = {tag: k for k, tag in enumerate(_TAGS)}


def _pos_chunk_codes(table, start):
    """Per type from ``start``: the codes in ``_TAGS`` of its POS and chunk
    tags, as a uint8 ``(n, 2)`` array."""
    pos = [_pos_of(*t) for t in zip(table.surfaces[start:], table.kinds[start:])]
    codes = [(_TAG_CODE[p], _TAG_CODE[_CHUNK_OF_POS.get(p, "NA")]) for p in pos]
    return np.array(codes, dtype=np.uint8).reshape(-1, 2)


# Documents drawn, parsed and given pos/chunk columns at a time. Parsing a
# block costs a fixed number of numpy calls, which outweigh the work on a
# document's ~116 tokens, so a block should hold many documents; but all
# of a block's temporaries are alive at once. Generating the 485 + 800
# documents of the protocol (seeds 1993 and 1994) in one process peaked at
# 52.1 MB RSS as one block each, and at 40.8 MB both in blocks of 64 and
# one document at a time (Python 3.11, numpy 2.4).
_BLOCK_DOCS = 64


def generate_corpus(n_docs=DEFAULT_DOCS, seed=DEFAULT_SEED):
    """Generate ``n_docs`` announcements; same arguments, same documents.

    ``n_docs`` and ``seed`` must be ints of at least 0, and not bools;
    anything else raises :class:`~bien.errors.InvalidSpec` before any
    draw. The documents depend only on PCG64's raw stream from ``seed``,
    which NEP 19 keeps stable across numpy releases; :class:`_Draws`
    makes from it the draws ``np.random.default_rng(seed)`` makes on numpy
    2.x.

    Every document has heuristic ``pos`` and ``chunk`` columns, both
    functions of the token type. The texts are drawn and parsed
    ``_BLOCK_DOCS`` documents at a time: each block is parsed by one
    :func:`~bien.corpus.parse_tagged_documents` pass, so its documents
    share one type table (the table starts over between blocks, never
    inside one). Each type is tagged once, as its codes in the module's
    one tuple of tags, in a column of that table; one gather through the
    block's type ids gives every token's codes, and each document's
    :class:`~bien.corpus.ColumnView` is a slice of them, so no Python
    statement runs per token. The draws do not depend on the block
    size."""
    for name, value in (("n_docs", n_docs), ("seed", seed)):
        check_int(f"generate_corpus {name}", value, 0)
    rng = _Draws(seed)
    pools = _Pools(rng)
    docs = []
    for first in range(0, n_docs, _BLOCK_DOCS):
        seqs = range(first, min(first + _BLOCK_DOCS, n_docs))
        texts = [_announcement(rng, pools, seq=i) for i in seqs]
        tokens, parsed = _parse_block(texts, [f"ann{i:04d}" for i in seqs], DEFAULT_FIELDS)
        issues = [issue for p in parsed for issue in p.issues]
        if issues:
            raise AssertionError(f"generator produced lint issues: {issues}")
        codes = tokens.types.column(_pos_chunk_codes)[tokens.type_ids]
        pos, chunk = ColumnView(_TAGS, codes[:, 0]), ColumnView(_TAGS, codes[:, 1])
        docs += [
            Document(
                p.doc_id,
                p.text,
                tokens[p.lo : p.hi],
                p.spans,
                {"pos": pos[p.lo : p.hi], "chunk": chunk[p.lo : p.hi]},
            )
            for p in parsed
        ]
    return docs
