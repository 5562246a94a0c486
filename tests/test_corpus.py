import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    strip_tags_reference,
    tag_spans_reference,
    token_kind_reference,
    tokenize_reference,
)

from bien import corpus as corpus_module, synth
from bien.corpus import (
    DEFAULT_FIELDS,
    ColumnView,
    Document,
    Numbering,
    SplitPlan,
    TagSpan,
    Token,
    TokenView,
    TypeTable,
    parse_tagged_document,
    parse_tagged_documents,
    split,
    token_kind,
    tokenize,
)
from bien.errors import AlignmentError, DataError, InvalidPlan, InvalidSpec, MalformedTag
from bien.resources import load_abbreviations
from bien.synth import generate_corpus

ABBREV = load_abbreviations()

# every code point that str.isspace() and str.split() take for whitespace
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def tokens_of(text):
    return TokenView(*tokenize(text))


def surfaces(text):
    return [t.surface for t in tokens_of(text)]


def doc_surfaces(doc):
    return tuple(t.surface for t in doc.tokens)


def tokenize_checking_restarts(monkeypatch, texts, limit):
    """Tokenize each of ``texts`` in turn, from a new type table, with
    ``_MEMO_LIMIT`` patched to ``limit``, checking the one restart rule of
    a table and its chunk memo; return, per restart, which of ``"types"``
    and ``"chunks"`` had reached the limit."""
    monkeypatch.setattr(corpus_module, "_MEMO_LIMIT", limit)
    previous = TypeTable()
    monkeypatch.setattr(corpus_module, "_types", previous)
    restarts = []
    for text in texts:
        full = tuple(what for what, n in (("types", len(previous)),
                                          ("chunks", len(previous.chunks))) if n >= limit)
        table, ids, starts = tokenize(text)
        # a call gets a new table, with an empty memo, once the last is full
        assert (table is not previous) == bool(full)
        if full:
            assert table.chunks.keys() == set(text.split())
            restarts.append(full)
        # the table a call used holds every chunk of the call
        assert set(text.split()) <= table.chunks.keys()
        assert TokenView(table, ids, starts) == tokenize_reference(text, ABBREV)
        previous = table
    return restarts


class TestTokenize:
    def test_abbreviation_and_decimal(self):
        assert surfaces("Dr. Steals, worth $10.5 mil.") == [
            "Dr.", "Steals", ",", "worth", "$", "10.5", "mil.",
        ]

    def test_sentence_final_period_splits(self):
        assert surfaces("at 1 am.") == ["at", "1", "am", "."]

    def test_kinds(self):
        kinds = [t.kind for t in tokens_of("Dr. Steals, worth $10.5 mil.")]
        assert kinds == [
            "word", "word", "punctuation", "word", "symbol", "number", "word",
        ]

    def test_time_range_splits_on_dash(self):
        assert surfaces("3:30-5:00") == ["3:30", "-", "5:00"]
        assert surfaces("3:30") == ["3:30"]

    def test_hyphenated_word_stays_whole(self):
        assert surfaces("state-of-the-art e-mail") == ["state-of-the-art", "e-mail"]

    def test_email_and_url_keep_internal_punctuation(self):
        assert surfaces("mail bovik@cs.cmu.edu.") == ["mail", "bovik@cs.cmu.edu", "."]
        assert surfaces("see http://www.cs.cmu.edu/talk.") == [
            "see", "http://www.cs.cmu.edu/talk", ".",
        ]

    def test_punctuation_runs(self):
        assert surfaces("wait... (really?!)") == [
            "wait", "...", "(", "really", "?", "!", ")",
        ]

    def test_offsets_index_source_text(self):
        text = "  Dr. Steals,\n worth $10.5 mil."
        for tok in tokens_of(text):
            assert text[tok.start : tok.end] == tok.surface

    def test_reconstruction_preserves_non_whitespace(self):
        text = "Who: Dr. A. Smith (CMU) 3:30-5:00, Wean 5409"
        joined = "".join(surfaces(text))
        assert joined == "".join(text.split())

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    def test_offsets_sound_on_arbitrary_text(self, text):
        toks = tokens_of(text)
        prev_end = -1
        for tok in toks:
            assert text[tok.start : tok.end] == tok.surface
            assert not any(c.isspace() for c in tok.surface)
            assert tok.start >= prev_end
            prev_end = tok.end
        assert "".join(t.surface for t in toks) == "".join(text.split())

    @pytest.mark.parametrize("text", [b"abc", None, 3, ["a b"]], ids=["bytes", "none", "int", "list"])
    def test_non_str_text_is_a_typed_error(self, text):
        with pytest.raises(InvalidSpec, match="text must be a str"):
            tokenize(text)

    def test_a_refused_text_leaves_no_trace(self):
        """The process-wide type table and chunk memo are read by every
        later call: after a refused ``tokenize(b"abc")``, or a refused
        hand-built token with a ``bytes`` surface, a generated corpus's
        texts, columns and digest equal a fresh interpreter's. Each call
        runs in its own interpreter."""
        src = str(Path(corpus_module.__file__).resolve().parent.parent)
        out = {}
        for refused in (
            "pass", "tokenize(b'abc')", "Document('x', 'abc', [Token(b'abc', 0, 3, 'word')])",
        ):
            script = (
                "import hashlib, json\n"
                "from bien.corpus import Document, Token, tokenize\n"
                "from bien.synth import generate_corpus\n"
                "try:\n"
                f"    {refused}\n"
                "except Exception:\n"
                "    pass\n"
                "docs = generate_corpus(20, 5)\n"
                "rows = [[d.text, [[t.surface, t.kind, t.start] for t in d.tokens],\n"
                "         sorted((k, list(v)) for k, v in d.columns.items())] for d in docs]\n"
                "print(json.dumps(rows))\n"
                "print(hashlib.sha256(json.dumps(rows).encode()).hexdigest())\n"
            )
            out[refused] = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src}, check=True,
            ).stdout
        fresh = out.pop("pass")
        assert len(json.loads(fresh.splitlines()[0])) == 20
        for refused, got in out.items():
            assert got == fresh, refused


# whole chunks and pieces that exercise every branch of the chunk splitter
CHUNK_PIECES = (
    "Dr.", "dr.", "DR.", "Prof.", "mil.", "e.g.", "Wean", "3:30", "3:30-5:00", "10.5",
    "1.", "7pm", "p.m.", "bovik@cs.cmu.edu", "www.cs.cmu.edu", "http://cs.cmu.edu/a.b",
    "state-of-the-art", "...", "?!", "((", "--", "$", ",", "-", ":", ".", "\u00e9t\u00e9", "\u2014",
)


class TestTokenizeMatchesReference:
    """The chunk memo must not change a token: every text tokenizes as the
    memo-free per-chunk loop does, whatever the memo already holds."""

    @pytest.mark.parametrize("n_docs,seed", [(485, 1993), (800, 1994)])
    def test_generated_corpora(self, n_docs, seed):
        for doc in generate_corpus(n_docs, seed):
            want = tokenize_reference(doc.text, ABBREV)
            assert doc.tokens == want
            assert tokens_of(doc.text) == want
            assert_ids_name_types(doc)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(CHUNK_PIECES) | st.text(max_size=4), max_size=3),
                st.sampled_from((" ", "  ", "\n", "\t", "\u00a0")),
            ),
            max_size=12,
        )
    )
    def test_mixed_texts(self, parts):
        text = "".join("".join(chunk) + gap for chunk, gap in parts)
        doc = Document("d", text, tokens_of(text))
        assert doc.tokens == tokenize_reference(text, ABBREV)
        assert_ids_name_types(doc)

    def test_memo_that_starts_over_mid_corpus(self, monkeypatch):
        texts = [doc.text for doc in generate_corpus(60, 5)]
        assert len(tokenize_checking_restarts(monkeypatch, texts, 100)) > 20
        # over more text, chunks outnumber types: the memo fills first
        assert tokenize_checking_restarts(monkeypatch, texts, 500) == [("chunks",)]

    @pytest.mark.parametrize("limit", [None, 5])
    def test_annotate_follows_the_per_token_pos_rule(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(corpus_module, "_MEMO_LIMIT", limit)
            # the table starts over between blocks: make each block one document
            monkeypatch.setattr(synth, "_BLOCK_DOCS", 1)
        docs = generate_corpus(60, 5)
        if limit is not None:  # the type table started over between documents
            assert len({id(doc.types) for doc in docs}) > 2
        for doc in docs:
            assert_ids_name_types(doc)
            pos = tuple(synth._pos_of(t.surface, t.kind) for t in doc.tokens)
            assert doc.column("pos") == pos
            assert doc.column("chunk") == tuple(synth._CHUNK_OF_POS.get(p, "NA") for p in pos)


    def test_every_whitespace_code_point_and_a_lone_surrogate(self):
        assert len(WHITESPACE) > 20 and "\u3000" in WHITESPACE
        texts = (
            "x".join(WHITESPACE),
            WHITESPACE + "Dr." + WHITESPACE + "3:30-5:00" + WHITESPACE,
            "a\ud800b \udfff. (\ud800)\u2029Dr.\ud800",
            "\ud800",
            "\u2003\u0391\u0398\u0397\u039d\u0391\u3000\u041c\u041e\u0421\u041a\u0412\u0410"
            "\u2003\u0416\ud800 \u0436\u3000\u03a3\u03b1\u03c2",
        )
        for text in texts:
            assert tokens_of(text) == tokenize_reference(text, ABBREV)
            assert len(tokens_of(text)) == len(tokenize_reference(text, ABBREV))

    def test_a_table_that_starts_over_starts_with_an_empty_memo(self, monkeypatch):
        texts = [
            "a a, ,a ,a, a,, ,,a",  # 6 chunks of 3 types: the memo is full
            "a",
            "(a) [b]",  # 3 chunks, with 6 types: the table is full
            "Talk by Dr. Li at 3:30 p.m. in Rm. 5409 .",  # past the limit in one call
            "Dr. Li",
        ]
        assert tokenize_checking_restarts(monkeypatch, texts, 5) == [
            ("chunks",), ("types",), ("types", "chunks")]

    def test_a_pickled_table_holds_no_memo_entries(self):
        table = TypeTable()
        pieces = table.pieces_of(["(Dr."])
        assert table.surfaces == ["(", "Dr."] and list(table.chunks) == ["(Dr."]
        cold = pickle.loads(pickle.dumps(table))
        assert cold.chunks == {}
        assert cold.pieces_of(["(Dr."]) == pieces  # the same ids, read from the copy
        assert np.frombuffer(cold.pieces_of(["Li"])[0], np.int32).tolist() == [0, 2]
        assert cold.surfaces == ["(", "Dr.", "Li"] and len(table) == 2

    @pytest.mark.parametrize(
        "text, kept",
        [
            ("Talk by Dr. Li at 3:30 p.m. in Rm. 5409.", {"Dr.", "p.m.", "Rm."}),
            ("DR. X, rm. 7 (p.m.)", {"DR.", "rm.", "p.m."}),
        ],
    )
    def test_tokenize_gives_the_tokens_of_the_parser(self, text, kept):
        doc, _ = parse_tagged_document(f"<speaker>{text}</speaker>")
        assert tokens_of(text) == doc.tokens
        assert kept <= {t.surface for t in doc.tokens}


class TestGoldenDocuments:
    """The generated corpora of the protocol, token by token, with their gold
    spans and annotation columns, pinned by a digest taken before tokens
    became columns. Any change to the token path must keep it."""

    @pytest.mark.parametrize(
        "n_docs,seed,digest",
        [
            (485, 1993, "73a909ac2e9e2d01"),
            (800, 1994, "96880977e3e65030"),
            (485, 7, "286345820b26b4b0"),
            (800, 8, "38eae000f9dec2dd"),
            (1188, 1994, "095b2d0bfe945b32"),
        ],
    )
    def test_generated_documents(self, n_docs, seed, digest):
        h = hashlib.sha256()
        for doc in generate_corpus(n_docs, seed):
            row = (
                tuple((t.surface, t.start, t.end, t.kind) for t in doc.tokens),
                tuple((s.field, s.start_token, s.end_token) for s in doc.gold_spans),
                doc.column("pos"),
                doc.column("chunk"),
            )
            h.update(repr(row).encode())
        assert h.hexdigest()[:16] == digest


class TestGeneratedBlocks:
    @pytest.mark.parametrize("n_docs", [1, 63, 64, 65, 129])
    def test_a_corpus_is_a_prefix_of_a_longer_one(self, n_docs):
        longer = generate_corpus(200, 5)
        assert generate_corpus(n_docs, 5) == longer[:n_docs]

    def test_a_block_shares_one_type_table(self):
        docs = generate_corpus(2 * synth._BLOCK_DOCS, 5)
        first, second = docs[: synth._BLOCK_DOCS], docs[synth._BLOCK_DOCS :]
        assert len({id(doc.types) for doc in first}) == len({id(doc.types) for doc in second}) == 1

    def test_memory_kept_per_token(self, monkeypatch):
        """The bytes ``tracemalloc`` sees retained by a generated corpus, per
        token, once the type table and the chunk memo hold its types. With
        its pos and chunk columns held as tuples of ``str``, a pointer per
        token each, the corpus kept 40.8 B a token; as a uint8 code each it
        keeps 27.7 B (Python 3.11, numpy 2.4)."""
        monkeypatch.setattr(corpus_module, "_types", TypeTable())
        generate_corpus(128, 5)  # fills the table, its memo and the loaders' caches
        tracemalloc.start()
        try:
            docs = generate_corpus(128, 5)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / sum(map(len, docs)) < 34.0

    def test_a_lint_issue_in_a_generated_text_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "_announcement", lambda rng, pools, seq: "<room>hall</room>")
        with pytest.raises(AssertionError, match="lint issues.*UNKNOWN_FIELD"):
            generate_corpus(2, 1)


# ranges that take each branch of the bounded draw: none at 1, the
# rejection loop about half the time at 2**31 + 1, one bare 32-bit draw at
# 2**32
RANGES = st.one_of(st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32]), st.integers(1, 2**32))
DRAW_CALLS = st.lists(
    st.one_of(
        st.just(("random",)),
        st.tuples(st.just("integers"), st.integers(-(2**31), 2**31), RANGES),
        st.tuples(st.just("permutation"), st.sampled_from([0, 1, 2, 24]) | st.integers(0, 64)),
        st.tuples(st.just("choice"), st.integers(-(2**31), 2**31), RANGES),
    ),
    max_size=40,
)


def replay(rng, calls):
    """The draws of ``calls`` from ``rng``. A choice is from ``seq =
    range(lo, lo + n)``: ``_Draws.choice(seq)``, and for numpy's generator
    ``seq[rng.integers(0, len(seq))]``."""
    out = []
    for name, *args in calls:
        if name == "random":
            out.append(rng.random())
        elif name == "integers":
            lo, n = args
            out.append(int(rng.integers(lo, lo + n)))
        elif name == "choice":
            lo, n = args
            seq = range(lo, lo + n)
            if isinstance(rng, synth._Draws):
                out.append(rng.choice(seq))
            else:
                out.append(seq[int(rng.integers(0, len(seq)))])
        else:
            out.append([int(i) for i in rng.permutation(*args)])
    return out


class TestDraws:
    """``synth._Draws`` makes the draws ``np.random.default_rng`` makes."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**128), DRAW_CALLS)
    # a random() between two 32-bit draws must leave the kept half-word
    @example(0, [("integers", 0, 10), ("random",), ("integers", 0, 10), ("permutation", 24)])
    @example(
        1993,
        [("integers", 5, 2**31 + 1)] * 8
        + [("random",), ("integers", 0, 1), ("integers", 0, 2**32)],
    )
    # a choice from one item draws nothing; the others take each branch of
    # the bounded draw, between kept half-words and fresh words
    @example(
        7,
        [("choice", 3, 1), ("choice", 0, 5), ("choice", 0, 1), ("random",), ("choice", 9, 1)]
        + [("choice", -4, 2**31 + 1)] * 8
        + [("choice", 0, 2**32), ("integers", 0, 10), ("choice", 0, 2**32 - 1)],
    )
    def test_same_draws_as_the_numpy_generator(self, seed, calls):
        assert replay(synth._Draws(seed), calls) == replay(np.random.default_rng(seed), calls)

    @pytest.mark.parametrize("block", [1, 7])
    def test_the_raw_block_size_changes_no_document(self, monkeypatch, block):
        want = generate_corpus(130, 5)
        monkeypatch.setattr(synth, "_RAW_BLOCK", block)
        assert generate_corpus(130, 5) == want


class TestGenerateCorpusArguments:
    @pytest.mark.parametrize(
        "n_docs,seed,bad",
        [
            (3, None, "seed"),
            (3, -1, "seed"),
            (3, 1.5, "seed"),
            (3, "7", "seed"),
            (3, False, "seed"),
            (2.5, 3, "n_docs"),
            (-1, 3, "n_docs"),
            (True, 3, "n_docs"),
        ],
    )
    def test_a_bad_argument_raises_before_any_draw(self, monkeypatch, n_docs, seed, bad):
        def no_draws(seed):
            pytest.fail("drew from a bad argument")

        monkeypatch.setattr(synth, "_Draws", no_draws)
        with pytest.raises(InvalidSpec, match=bad):
            generate_corpus(n_docs, seed)

    def test_numpy_ints_and_no_documents_are_accepted(self):
        assert generate_corpus(np.int64(3), np.uint32(9)) == generate_corpus(3, 9)
        assert generate_corpus(0, 9) == []


class TestTokenKind:
    """``token_kind`` classifies as the set-per-surface reference does."""

    def test_every_code_point_and_the_empty_string(self):
        surfaces = ["", *map(chr, range(sys.maxunicode + 1))]
        assert list(map(token_kind, surfaces)) == list(map(token_kind_reference, surfaces))

    def test_every_generated_surface(self):
        surfaces = {t.surface for doc in generate_corpus(485, 1993) for t in doc.tokens}
        surfaces.update(CHUNK_PIECES)
        assert [token_kind(s) for s in surfaces] == [token_kind_reference(s) for s in surfaces]

    @given(st.text())
    def test_any_text(self, text):
        assert token_kind(text) == token_kind_reference(text)


def assert_ids_name_types(doc):
    table, ids = doc.types, doc.type_ids
    assert ids.dtype == doc.tokens.starts.dtype == np.int32 and len(ids) == len(doc.tokens)
    assert [(table.surfaces[i], table.kinds[i]) for i in ids.tolist()] == [
        (t.surface, t.kind) for t in doc.tokens
    ]


class TestTypeIds:
    def test_one_id_per_type(self):
        text = "Dr. Who , dr. who , Dr. Who"
        table, ids, starts = tokenize(text)
        assert ids[0] == ids[6] and ids[1] == ids[7] and ids[2] == ids[5]
        assert ids[0] != ids[3]  # case makes another type
        assert_ids_name_types(Document("d", text, TokenView(table, ids, starts)))

    def test_hand_built_document_gets_ids_from_its_tokens(self):
        kinds = ("word", "mixed", "word")
        tokens = tuple(Token("hall", 5 * i, 5 * i + 4, kind) for i, kind in enumerate(kinds))
        doc = Document("d", "hall hall hall", tokens)
        assert isinstance(doc.tokens, TokenView) and doc.types is corpus_module._current_types()
        ids = doc.type_ids
        assert ids[0] == ids[2] != ids[1]
        assert doc.tokens.starts.tolist() == [0, 5, 10]
        assert doc.tokens == tokens
        assert_ids_name_types(doc)

    def test_ids_are_not_compared_and_must_fit_the_tokens(self):
        doc, _ = parse_tagged_document("a b a", doc_id="d")
        other = TypeTable()
        ids = other.ids_of([(t.surface, t.kind) for t in doc.tokens])
        again = Document("d", "a b a", TokenView(other, ids, doc.tokens.starts))
        assert again == doc and again.types is not doc.types
        shifted = TokenView(doc.types, doc.type_ids, doc.tokens.starts + 1)
        assert doc != Document("d", "a b a", shifted)
        with pytest.raises(AlignmentError):
            TokenView(doc.types, doc.type_ids, doc.tokens.starts[:2])

    def test_a_pickled_document_carries_its_table(self):
        doc = generate_corpus(3, 9)[2]
        again = pickle.loads(pickle.dumps(doc))
        assert again == doc and again.types is not doc.types
        np.testing.assert_array_equal(again.type_ids, doc.type_ids)
        np.testing.assert_array_equal(again.tokens.starts, doc.tokens.starts)
        assert_ids_name_types(again)


class TestTypeTable:
    def test_column_extends_for_new_types_and_restarts_for_a_new_context(self):
        table = TypeTable()
        starts = []

        def lengths(table, start, offset):
            starts.append(start)
            return np.array([len(s) + offset for s in table.surfaces[start:]])

        for n in range(1, 41):
            assert table.ids_of([("x" * n, "word")] * 2).tolist() == [n - 1] * 2
            assert table.column(lengths, 0).tolist() == list(range(1, n + 1))
        assert starts == list(range(40))  # each read computed only the new type
        assert table.column(lengths, 0).tolist() == list(range(1, 41))
        assert table.column(lengths, 1).tolist() == list(range(2, 42))
        assert starts[40:] == [0]
        assert len(table) == 40 and table.ids_of([("x", "mixed")]).tolist() == [40]

    def test_numbering_numbers_new_strings_in_order_of_first_use(self):
        numbering = Numbering()
        assert numbering.numbers_of(["b", "a", "b"]).tolist() == [0, 1, 0]
        got = numbering.numbers_of(["c", "a", "d", "c"])
        assert got.dtype == np.int32 and got.tolist() == [2, 1, 3, 2]
        assert numbering.strings == ["b", "a", "c", "d"]
        assert numbering == {"b": 0, "a": 1, "c": 2, "d": 3}
        assert numbering.numbers_of([]).tolist() == []

    def test_derived_numbers_outlast_their_columns(self):
        table = TypeTable()

        def numbers(table, start, suffix):
            return table.derived.numbers_of([s.lower() + suffix for s in table.surfaces[start:]])

        table.ids_of([("Talk", "word"), ("talk", "word"), ("Hall", "word")])
        first = table.column(numbers, "").tolist()
        assert first == [0, 0, 1]
        assert table.derived.strings == ["talk", "hall"]
        table.column(numbers, "s")  # drops the first context's column
        table.ids_of([("HALL", "word")])
        assert table.column(numbers, "").tolist() == first + [1]
        assert table.derived.strings == ["talk", "hall", "talks", "halls"]
        cold = pickle.loads(pickle.dumps(table))
        assert cold.derived == {} and cold.derived.strings == []
        assert cold.column(numbers, "s").tolist() == [0, 0, 1, 1]

    def test_alternating_contexts_are_each_computed_once_then_extended(self):
        table = TypeTable()
        calls = []

        def lengths(table, start, offset):
            calls.append((start, offset))
            return np.array([len(s) + offset for s in table.surfaces[start:]])

        for n in range(1, 21):
            table.ids_of([("x" * n, "word")])
            for _ in range(2):  # a second read of one context computes nothing
                assert table.column(lengths, 0).tolist() == list(range(1, n + 1))
        assert calls == [(n, 0) for n in range(20)]
        del calls[:]
        # one column per function: a context that differs from the last one
        # read recomputes from type 0, and gives the same values each time
        for offset in (1, 0, 1, 1):
            assert table.column(lengths, offset).tolist() == list(
                range(1 + offset, 21 + offset)
            )
        assert calls == [(0, 1), (0, 0), (0, 1)]
        table.ids_of([("x" * 21, "word")])
        assert table.column(lengths, 1).tolist() == list(range(2, 23))
        assert calls[3:] == [(20, 1)]


class TestTokenView:
    @pytest.mark.parametrize(
        "text", ["", " \n\t ", "Dr. Steals, worth $10.5 mil.", "  wait... (really?!)  at 1 am."]
    )
    def test_sequence_contract(self, text):
        doc = Document("d", text, tokens_of(text))
        view, want = doc.tokens, tokenize_reference(text, ABBREV)
        assert len(view) == len(doc) == len(want)
        assert list(view) == list(want) and view == want and want == view
        for i in range(-len(want), len(want)):
            assert view[i] == want[i]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                view[i]
        for cut in (slice(None), slice(1, None), slice(-3, -1), slice(None, None, -2), slice(5, 2)):
            assert isinstance(view[cut], TokenView) and view[cut] == want[cut]
        assert view != want + (Token("x", 99, 100, "word"),)

    def test_a_view_does_not_compare_with_a_non_sequence(self):
        view = Document("d", "Dr. Li", tokens_of("Dr. Li")).tokens
        assert view.__eq__(5) is NotImplemented
        assert view != 5

    def test_repr_lists_the_tokens(self):
        assert repr(tokens_of("Dr. Li")) == (
            "TokenView([Token(surface='Dr.', start=0, end=3, kind='word'), "
            "Token(surface='Li', start=4, end=6, kind='word')])"
        )

    def test_hand_built_document_equals_the_parsed_one(self):
        for doc in generate_corpus(20, 9) + [parse_tagged_document("", doc_id="e")[0]]:
            tokens = tokenize_reference(doc.text, ABBREV)
            hand = Document(doc.id, doc.text, tokens, doc.gold_spans, doc.columns)
            assert hand == doc and doc == hand
            np.testing.assert_array_equal(hand.tokens.starts, doc.tokens.starts)
            assert_ids_name_types(hand)


def _token_view(type_ids):
    """A view of the two tokens of "a b" with the given type ids."""
    table, _, starts = tokenize("a b")
    return TokenView(table, type_ids, starts)


# Views of two tokens built by hand, on which featurize read past a table:
# numpy's IndexError, TypeError or ValueError, or, for -1, the last type or
# value.
BAD_VIEWS = {
    "last-type-id-past-the-table": lambda: _token_view(np.array([0, 10**6], np.int32)),
    "pos-code-past-one-value": lambda: ColumnView(("NN",), np.array([0, 5], np.uint8)),
    "float-type-ids": lambda: _token_view(np.array([0.0, 1.0])),
    "float-codes": lambda: ColumnView(("NN",), np.array([0.0, 0.0])),
    "2-D-type-ids": lambda: _token_view(np.zeros((2, 1), np.int32)),
    "2-D-codes": lambda: ColumnView(("NN",), np.zeros((2, 1), np.uint8)),
    "type-id-minus-one": lambda: _token_view(np.array([-1, 0], np.int32)),
    "code-minus-one": lambda: ColumnView(("NN",), np.array([-1, 0], np.int16)),
}


class TestHandBuiltViews:
    @pytest.mark.parametrize("case", BAD_VIEWS)
    def test_a_view_of_bad_ids_or_codes_is_refused_when_built(self, case):
        rule = r"^(token type ids|column codes) must be 1-D integers in 0 \.\. \d+, got "
        with pytest.raises(InvalidSpec, match=rule):
            BAD_VIEWS[case]()

    @pytest.mark.parametrize("types", [None, ["a", "b"]], ids=["none", "list"])
    def test_a_token_view_needs_a_type_table(self, types):
        _, ids, starts = tokenize("a b")
        named = re.escape(f"token types must be a TypeTable, got {type(types).__name__}")
        with pytest.raises(InvalidSpec, match=named):
            TokenView(types, ids, starts)

    @pytest.mark.parametrize("values", [None, ["NN"], "NN"], ids=["none", "list", "str"])
    def test_a_column_view_needs_a_tuple_of_values(self, values):
        named = re.escape(f"column values must be a tuple, got {type(values).__name__}")
        with pytest.raises(InvalidSpec, match=named):
            ColumnView(values, np.zeros(2, np.uint8))

    def test_a_slice_of_a_checked_view_is_not_checked_again(self, monkeypatch):
        tokens, pos = tokens_of("a b"), ColumnView(("NN",), np.zeros(2, np.uint8))
        monkeypatch.setattr(corpus_module, "check_integers", None)  # any check would fail
        assert tokens[1:] == [Token("b", 2, 3, "word")] and pos[1:] == ("NN",)
        assert isinstance(tokens[1:], TokenView) and isinstance(pos[:1], ColumnView)

    def test_a_block_of_documents_is_checked_once(self, monkeypatch):
        checked, check = [], corpus_module.check_integers
        monkeypatch.setattr(
            corpus_module, "check_integers", lambda *a, **k: checked.append(a[0]) or check(*a, **k)
        )
        parse_tagged_documents(["a b", "<speaker>c</speaker> d", ""], ["x", "y", "z"])
        assert checked == ["token type ids", "token starts"]
        checked.clear()
        generate_corpus(synth._BLOCK_DOCS + 1, 3)  # two blocks
        assert checked == ["token type ids", "token starts", "column codes", "column codes"] * 2


class TestEmptyTokensAndSpans:
    def test_empty_or_inverted_token_raises_invalid_spec(self):
        for args in (("", 0, 1), ("a", 1, 1), ("ab", 2, 0), ("ab", 0, 3), ("abc", 4, 6)):
            with pytest.raises(InvalidSpec):
                Token(*args, "word")

    @pytest.mark.parametrize("kind", [None, "Word", ["word"]], ids=["none", "capitalised", "list"])
    def test_a_kind_outside_the_five_raises_invalid_spec(self, kind):
        # such a kind entered the type table, and the semantic code skipped
        # its word lists; a list kind raised a TypeError from ids_of
        rule = f"token kind must be one of word, number, punctuation, symbol, mixed, got {kind!r}"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(rule)}$"):
            Token("a", 0, 1, kind)

    def test_inverted_span_raises_invalid_spec(self):
        for start, end in ((2, 1), (-1, 0)):
            with pytest.raises(InvalidSpec):
                TagSpan("speaker", start, end)
        assert TagSpan("speaker", 1, 1).end_token == 1

    @pytest.mark.parametrize("start, end, named", [
        ("0", 2, "span start must be an int >= 0, got '0'"),
        (0.5, 1, "span start must be an int >= 0, got 0.5"),
        (0, 2.0, "span end must be an int >= 0, got 2.0"),
        (None, 1, "span start must be an int >= 0, got None"),
        (0, None, "span end must be an int >= 0, got None"),
    ])
    def test_bounds_that_are_not_integers_raise_invalid_spec(self, start, end, named):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(named)}$"):
            TagSpan("speaker", start, end)

    def test_numpy_integer_bounds_are_accepted(self):
        assert TagSpan("speaker", np.int64(0), np.int32(2)).end_token == 2

    def test_a_span_has_slots_and_survives_pickling(self):
        span = TagSpan("speaker", 1, 3)
        assert not hasattr(span, "__dict__")
        with pytest.raises(FrozenInstanceError):
            span.start_token = 2
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(span, protocol)) == span


class TestParseTagged:
    def test_simple_span(self):
        doc, issues = parse_tagged_document(
            "<speaker>Dr. Steals</speaker> presents", doc_id="d1"
        )
        assert doc_surfaces(doc) == ("Dr.", "Steals", "presents")
        assert doc.gold_spans == (TagSpan("speaker", 0, 1),)
        assert issues == []
        assert doc.text == "Dr. Steals presents"

    def test_multiple_spans_and_offsets(self):
        raw = "Time: <stime>3:30</stime> - <etime>5:00</etime>\nPlace: <location>Wean 5409</location>"
        doc, issues = parse_tagged_document(raw, doc_id="d2")
        assert [s.field for s in doc.gold_spans] == ["stime", "etime", "location"]
        by_field = {s.field: s for s in doc.gold_spans}
        st_, et = by_field["stime"], by_field["etime"]
        words = doc_surfaces(doc)
        assert words[st_.start_token : st_.end_token + 1] == ("3:30",)
        assert words[et.start_token : et.end_token + 1] == ("5:00",)
        loc = by_field["location"]
        assert words[loc.start_token : loc.end_token + 1] == ("Wean", "5409")

    def test_unknown_field_dropped_with_lint(self):
        doc, issues = parse_tagged_document("<sentence>hi there</sentence>", doc_id="d")
        assert doc.gold_spans == ()
        assert doc_surfaces(doc) == ("hi", "there")
        assert [i.code for i in issues] == ["UNKNOWN_FIELD"]

    def test_unclosed_tag(self):
        with pytest.raises(MalformedTag) as exc:
            parse_tagged_document("a\nb <speaker>Dr. Who")
        assert exc.value.line == 2

    def test_unmatched_close(self):
        with pytest.raises(MalformedTag):
            parse_tagged_document("hello </speaker>")

    def test_nested_tags_rejected(self):
        with pytest.raises(MalformedTag):
            parse_tagged_document("<speaker><location>x</location></speaker>")

    def test_partial_boundary_flagged_not_corrected(self):
        doc, issues = parse_tagged_document("<stime>4</stime>:30 pm", doc_id="d")
        codes = {i.code for i in issues}
        assert "PARTIAL_BOUNDARY" in codes
        assert "EMPTY_SPAN" in codes
        assert doc.gold_spans == ()

    def test_pair_over_no_token_anchors_at_the_next_token(self):
        raw = "Time: 3:30 <stime>  </stime> pm\nPlace: <location></location>Wean"
        doc, issues = parse_tagged_document(raw, doc_id="d")
        assert [(i.code, i.token_index) for i in issues] == [
            ("EMPTY_SPAN", 3), ("EMPTY_SPAN", 6),
        ]
        words = doc_surfaces(doc)
        assert (words[3], words[6]) == ("pm", "Wean")
        # past the last token the anchor is clamped to it; -1 only without tokens
        _, issues = parse_tagged_document("Wean <location> </location>", doc_id="d")
        assert [i.token_index for i in issues] == [0]
        _, issues = parse_tagged_document(" <location></location> ", doc_id="d")
        assert [i.token_index for i in issues] == [-1]

    def test_angle_text_that_is_not_a_tag(self):
        doc, issues = parse_tagged_document("<0.12.4.93.1> x < y", doc_id="d")
        assert "<0.12.4.93.1>" in doc.text
        assert issues == []

    def test_adjacent_same_field_spans_stay_separate(self):
        raw = "<stime>3:30</stime> <stime>4:30</stime>"
        doc, _ = parse_tagged_document(raw, doc_id="d")
        assert doc.gold_spans == (TagSpan("stime", 0, 0), TagSpan("stime", 1, 1))


def token_rows(tokens):
    return [(t.surface, t.start, t.end, t.kind) for t in tokens]


# tag-free text: pieces of the chunk splitter, or any characters but "<"
WORDS = st.sampled_from(CHUNK_PIECES) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="<"), max_size=4
)


@st.composite
def tagged_texts(draw):
    """``(raw, text, char_spans)``: a text whose chunks are separated by
    runs of any whitespace code points, and tag pairs at offsets drawn
    anywhere in it, the text's end included, or one pair around all of it."""
    parts = draw(
        st.lists(
            st.tuples(
                st.lists(WORDS, max_size=3).map("".join),
                st.text(alphabet=st.sampled_from(WHITESPACE), min_size=1, max_size=3),
            ),
            max_size=10,
        )
    )
    text = "".join(chunk + gap for chunk, gap in parts)
    if draw(st.booleans()):
        offsets = sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)))
        bounds = list(zip(offsets[0::2], offsets[1::2]))
    else:
        bounds = [(0, len(text))]
    names = DEFAULT_FIELDS + ("bogus",)
    char_spans = [(draw(st.sampled_from(names)), cs, ce) for cs, ce in bounds]
    pieces, last = [], 0
    for name, cs, ce in char_spans:
        pieces += [text[last:cs], f"<{name}>", text[cs:ce], f"</{name}>"]
        last = ce
    return "".join(pieces) + text[last:], text, char_spans


class TestParseTaggedDocuments:
    """A block parses each document as it parses alone, and as the
    longhand span oracle maps its pairs."""

    def check(self, docs):
        raws = [raw for raw, _, _ in docs]
        ids = [f"d{k}" for k in range(len(docs))]
        block = parse_tagged_documents(raws, ids)
        assert len(block) == len(docs)
        for (doc, issues), (raw, text, char_spans), doc_id in zip(block, docs, ids):
            alone, alone_issues = parse_tagged_document(raw, doc_id)
            want = tokenize_reference(text, ABBREV)
            assert doc.id == doc_id and doc.text == alone.text == text
            assert token_rows(doc.tokens) == token_rows(alone.tokens) == token_rows(want)
            want_spans, want_issues = tag_spans_reference(doc_id, want, char_spans, DEFAULT_FIELDS)
            assert doc.gold_spans == alone.gold_spans == want_spans
            assert issues == alone_issues == want_issues
            assert_ids_name_types(doc)
        return block

    @settings(max_examples=150, deadline=None)
    @given(st.lists(tagged_texts(), max_size=6))
    @example([("", "", []), (" \n ", " \n ", []), ("a <stime></stime>", "a ", [("stime", 2, 2)])])
    def test_block_equals_each_document_alone(self, docs):
        self.check(docs)

    def test_every_lint_issue_in_one_block(self):
        long_text = " ".join(["w"] * 17)
        raws = [
            "a b <location> </location>",  # over no token, at the document's end
            " <location></location> ",  # in a document with no token
            "",
            "<stime>4</stime>:30 pm",  # partial boundary
            "<sentence>hi there</sentence> x",  # unknown field
            f"<speaker>{long_text}</speaker>",  # long span
            "c <etime>\u3000</etime>\u2028d",  # over a gap of wide whitespace
        ]
        docs = [(raw, *strip_tags_reference(raw)) for raw in raws]
        block = self.check(docs)
        codes = [[(i.code, i.token_index) for i in issues] for _, issues in block]
        assert codes == [
            [("EMPTY_SPAN", 1)],
            [("EMPTY_SPAN", -1)],
            [],
            [("PARTIAL_BOUNDARY", 0), ("EMPTY_SPAN", 0)],
            [("UNKNOWN_FIELD", 0)],
            [("LONG_SPAN", 0)],
            [("EMPTY_SPAN", 1)],
        ]

    def test_first_malformed_document_raises_before_tokenizing(self, monkeypatch):
        raws = ["ok <stime>3</stime>", "a\nb <speaker>Dr. Who", "x </location>"]
        with pytest.raises(MalformedTag) as alone:
            parse_tagged_document(raws[1], "d1")

        def tokenize(*args):
            raise AssertionError("tokenized a block with a malformed document")

        monkeypatch.setattr(corpus_module, "tokenize", tokenize)
        with pytest.raises(MalformedTag, match=r"<speaker> never closed \(document 'd1', line 2\)") as exc:
            parse_tagged_documents(raws, ["d0", "d1", "d2"])
        got, want = exc.value, alone.value
        assert (got.doc_id, got.line, got.offset) == ("d1", want.line, want.offset) == ("d1", 2, 4)
        with pytest.raises(MalformedTag, match=r"unmatched closing tag </location> \(document 'd2'"):
            parse_tagged_documents(raws[2:], ["d2"])

    def first_error_alone(self, raws, ids):
        """The error of the first text in input order that fails to parse
        alone, with what it says, or None."""
        for raw, doc_id in zip(raws, ids):
            try:
                parse_tagged_document(raw, doc_id)
            except (MalformedTag, InvalidSpec) as alone:
                return alone
        return None

    def assert_same_error_as_alone(self, raws):
        ids = [f"d{k}" for k in range(len(raws))]
        want = self.first_error_alone(raws, ids)
        assert want is not None
        with pytest.raises(type(want)) as got:
            parse_tagged_documents(raws, ids)
        assert str(got.value) == str(want)
        if isinstance(want, MalformedTag):
            assert (got.value.doc_id, got.value.line, got.value.offset) == (
                want.doc_id, want.line, want.offset
            )
        return got.value

    def test_a_pair_that_crosses_two_documents_is_never_closed_in_the_first(self):
        got = self.assert_same_error_as_alone(["a <speaker>Dr. Who", "x</speaker> b", "c"])
        assert str(got) == "tag <speaker> never closed (document 'd0', line 1)"
        got = self.assert_same_error_as_alone(["ok", "a\n<stime>3", "</stime>", "<stime>4</stime>"])
        assert (got.doc_id, got.line) == ("d1", 2)

    @pytest.mark.parametrize(
        "raws, kind, doc_id",
        [
            (["a <speaker>b", 7], MalformedTag, "d0"),
            ([7, "a <speaker>b"], InvalidSpec, "d0"),
            (["fine", "</stime> x", None], MalformedTag, "d1"),
            (["fine", None, "</stime> x"], InvalidSpec, "d1"),
        ],
        ids=["malformed-then-int", "int-then-malformed", "unmatched-then-none", "none-then-unmatched"],
    )
    def test_the_first_bad_document_in_input_order_raises(self, raws, kind, doc_id):
        got = self.assert_same_error_as_alone(raws)
        assert isinstance(got, kind) and f"document {doc_id!r}" in str(got)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(("<stime>", "</stime>", "<speaker>", "</speaker>", "<x>", "</x>"))
                | WORDS
                | st.sampled_from((" ", "\n", "\u2028")),
                max_size=8,
            ).map("".join)
            | st.sampled_from((None, 7)),
            max_size=5,
        )
    )
    @example(["a <stime>b", "c</stime>"])
    @example(["<stime>", "</stime>", "<stime></stime>"])
    def test_a_block_fails_or_parses_as_its_documents_alone(self, raws):
        ids = [f"d{k}" for k in range(len(raws))]
        if self.first_error_alone(raws, ids) is not None:
            self.assert_same_error_as_alone(raws)
            return
        block = parse_tagged_documents(raws, ids)
        for (doc, issues), raw, doc_id in zip(block, raws, ids):
            alone, alone_issues = parse_tagged_document(raw, doc_id)
            assert doc == alone and issues == alone_issues

    @pytest.mark.parametrize("raw", [7, b"<stime>3</stime>", None], ids=["int", "bytes", "none"])
    def test_text_that_is_not_a_str_raises_before_tokenizing(self, monkeypatch, raw):
        def tokenize(*args):
            raise AssertionError("tokenized a block with a text that is not a str")

        monkeypatch.setattr(corpus_module, "tokenize", tokenize)
        named = re.escape(f"document 'd1': text must be a str, got {type(raw).__name__}")
        with pytest.raises(InvalidSpec, match=named):
            parse_tagged_documents(["ok <stime>3</stime>", raw, "fine"], ["d0", "d1", "d2"])
        with pytest.raises(InvalidSpec, match=named):
            parse_tagged_document(raw, "d1")

    @pytest.mark.parametrize(
        "raws, ids", [(["a", "b"], ["d0"]), (["a"], []), ([], ["d0"])], ids=["short", "none", "extra"]
    )
    def test_ids_that_do_not_match_the_texts_raise(self, raws, ids):
        with pytest.raises(InvalidSpec, match=f"{len(raws)} documents for {len(ids)} ids"):
            parse_tagged_documents(raws, ids)

    def test_no_documents(self):
        assert parse_tagged_documents([], []) == []


class TestSpanMappingMatchesReference:
    TEXTS = (
        "Who:  Dr. A. Smith (CMU)\n\n  3:30-5:00, Wean 5409 ... e-mail bovik@cs.cmu.edu.",
        "  wait... (really?!)  at 1 am.\t\tstate-of-the-art   $10.5 mil.  ",
    )

    def placements(self, rng, text):
        """Up to three tag pairs near one spot: a whitespace gap between two
        tokens, or two offsets that are each either random or snapped to a
        token boundary, some of them made zero-width."""
        tokens = tokens_of(text)
        bounds = [b for t in tokens for b in (t.start, t.end)]
        gaps = [(a.end, b.start) for a, b in zip(tokens, tokens[1:])]
        center = int(rng.integers(0, len(text) + 1))

        def offset():
            if rng.random() < 0.5:
                return int(rng.choice(bounds))
            return int(np.clip(center + rng.integers(-12, 13), 0, len(text)))

        pairs = []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.random()
            if kind < 0.2:
                pairs.append(gaps[rng.integers(0, len(gaps))])
            else:
                cs, ce = sorted((offset(), offset()))
                pairs.append((cs, cs) if kind < 0.35 else (cs, ce))
        pairs.sort()
        kept = pairs[:1]
        for cs, ce in pairs[1:]:
            if cs >= kept[-1][1]:  # tags cannot nest
                kept.append((cs, ce))
        names = DEFAULT_FIELDS + ("bogus",)
        return [(names[rng.integers(0, len(names))], cs, ce) for cs, ce in kept]

    def test_random_tag_placements(self):
        rng = np.random.default_rng(20)
        texts = self.TEXTS + tuple(d.text for d in generate_corpus(6, 9))
        seen = {"zero-width": 0, "inside one token": 0, "whitespace": 0, "unknown field": 0}
        for trial in range(600):
            text = texts[trial % len(texts)]
            char_spans = self.placements(rng, text)
            pieces, last = [], 0
            for name, cs, ce in char_spans:
                pieces += [text[last:cs], f"<{name}>", text[cs:ce], f"</{name}>"]
                last = ce
            doc, issues = parse_tagged_document("".join(pieces) + text[last:], doc_id="r")
            assert doc.text == text
            want = tag_spans_reference("r", doc.tokens, char_spans, DEFAULT_FIELDS)
            assert (doc.gold_spans, issues) == want
            for name, cs, ce in char_spans:
                seen["zero-width"] += cs == ce
                seen["inside one token"] += any(t.start < cs <= ce < t.end for t in doc.tokens)
                seen["whitespace"] += cs < ce and text[cs:ce].isspace()
                seen["unknown field"] += name not in DEFAULT_FIELDS
        assert min(seen.values()) >= 20, seen


class TestColumns:
    def _doc(self, text):
        doc, _ = parse_tagged_document(text, doc_id="d")
        return doc

    def test_unrequested_column_defaults_to_na(self):
        doc = self._doc("a b")
        assert doc.column("pos") == ("NA", "NA")

    def test_a_hand_built_column_becomes_a_view_of_its_distinct_values(self):
        doc = replace(self._doc("a b c d"), columns={"pos": ["NN", "VB", "NN", "IN"]})
        view = doc.columns["pos"]
        assert isinstance(view, ColumnView) and view.values == ("NN", "VB", "IN")
        assert view.codes.dtype == np.uint8 and view.codes.tolist() == [0, 1, 0, 2]
        assert doc.column("pos") == ("NN", "VB", "NN", "IN")
        assert replace(doc).columns["pos"] is view  # a view is kept as it is

    def test_a_column_of_many_values_takes_wider_codes(self):
        values = [f"t{k}" for k in range(300)]
        doc = replace(self._doc(" ".join(values)), columns={"pos": values})
        assert doc.columns["pos"].codes.dtype == np.uint16
        assert doc.column("pos") == tuple(values)

    def test_an_empty_column(self):
        doc = replace(self._doc(""), columns={"pos": ()})
        assert doc.columns["pos"].values == () and doc.column("pos") == ()
        assert doc.column_view("chunk").codes.shape == (0,)

    def test_a_generated_document_shares_one_tuple_of_values(self):
        docs = generate_corpus(3, 5)
        views = [doc.columns[name] for doc in docs for name in ("pos", "chunk")]
        assert {id(view.values) for view in views} == {id(synth._TAGS)}
        assert all(view.codes.dtype == np.uint8 for view in views)

    def test_view_sequence_contract(self):
        want = ("NN", "VB", "NN", "IN", ".")
        view = ColumnView(("IN", "NN", ".", "VB"), np.array([1, 3, 1, 0, 2], dtype=np.uint8))
        assert len(view) == 5 and tuple(view) == want
        assert view == want and want == view and view == list(want)
        for i in range(-5, 5):
            assert view[i] == want[i]
        for i in (5, -6):
            with pytest.raises(IndexError):
                view[i]
        for cut in (slice(None), slice(1, None), slice(-3, -1), slice(None, None, -2), slice(4, 2)):
            assert isinstance(view[cut], ColumnView) and view[cut] == want[cut]
        assert view != want[:-1] and view != want[:-1] + ("NN",)
        assert view.__eq__(5) is NotImplemented and view != 5
        assert repr(view) == "ColumnView(['NN', 'VB', 'NN', 'IN', '.'])"

    def test_documents_equal_whatever_their_columns_codes(self):
        doc = generate_corpus(1, 5)[0]
        hand = replace(doc, columns={name: tuple(view) for name, view in doc.columns.items()})
        assert hand.columns["pos"].values != doc.columns["pos"].values  # numbered afresh
        assert hand == doc and doc == hand
        assert replace(doc, columns={**doc.columns, "pos": ("NN",) * len(doc)}) != doc

    def test_a_document_survives_pickling(self):
        hand = replace(self._doc("a b"), columns={"pos": ("NN", "VB")})
        for doc in generate_corpus(2, 5) + [hand]:
            cold = pickle.loads(pickle.dumps(doc))
            assert cold == doc and cold.column("pos") == doc.column("pos")
            assert cold.columns["pos"].values == doc.columns["pos"].values

    @pytest.mark.parametrize("column, got", [
        ("NN", "str 'NN'"), (b"NN", "bytes b'NN'"), ({"NN": 1, "VB": 2}, "dict {'NN': 1, 'VB': 2}"),
        (7, "int 7"),
    ], ids=["str", "bytes", "dict", "int"])
    def test_a_hand_built_column_that_is_not_a_sequence_raises_invalid_spec(self, column, got):
        # a str or bytes column was read as its characters or their codes,
        # a dict as its keys, and an int raised a TypeError from len
        rule = f"column 'pos' must be a sequence, not the {got}"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(rule)}$"):
            replace(self._doc("a b"), columns={"pos": column})

    def test_a_hand_built_column_may_be_a_generator(self):
        doc = replace(self._doc("a b"), columns={"pos": (tag for tag in ("NN", "VB"))})
        assert doc.column("pos") == ("NN", "VB")

    def test_column_of_wrong_length_raises_alignment_error(self):
        doc = self._doc("a b")
        with pytest.raises(AlignmentError) as exc:
            replace(doc, columns={"pos": ("NN",)})
        assert isinstance(exc.value, DataError)
        with pytest.raises(AlignmentError):
            Document("d", "a", doc.tokens[:1], columns={"chunk": ("NP", "NP")})


def make_corpus(n):
    docs = []
    for i in range(n):
        doc, _ = parse_tagged_document(
            f"doc {i} <stime>3:30</stime> end", doc_id=f"doc{i:03d}"
        )
        docs.append(doc)
    return docs


class TestSplit:
    def test_holdout_sizes(self):
        corpus = make_corpus(485)
        parts = split(corpus, SplitPlan(train_fraction=0.8, runs=5, seed=7))
        assert len(parts) == 5
        for train, test in parts:
            assert (len(train), len(test)) == (388, 97)
            train_ids = {d.id for d in train}
            test_ids = {d.id for d in test}
            assert not train_ids & test_ids
            assert len(train_ids | test_ids) == 485

    def test_runs_differ_but_plan_is_deterministic(self):
        corpus = make_corpus(50)
        plan = SplitPlan(runs=3, seed=11)
        a = split(corpus, plan)
        b = split(corpus, plan)
        ids = lambda part: [[d.id for d in side] for side in part]
        assert [ids(p) for p in a] == [ids(p) for p in b]
        assert {d.id for d in a[0][1]} != {d.id for d in a[1][1]}

    def test_run_does_not_depend_on_run_count(self):
        corpus = make_corpus(50)
        ids = lambda pair: [[d.id for d in side] for side in pair]
        parts = split(corpus, SplitPlan(runs=5, seed=11))
        for r, pair in enumerate(parts):
            alone = split(corpus, SplitPlan(runs=r + 1, seed=11))[-1]
            assert ids(pair) == ids(alone)

    @pytest.mark.parametrize("n_docs, fields, match", [
        (0, {}, "at least 2 documents"),
        (1, {}, "at least 2 documents"),  # one document leaves a side empty
        (10, {"train_fraction": 0.0}, "train_fraction"),
        (10, {"train_fraction": 1.0}, "train_fraction"),
        (10, {"runs": 0}, "runs"),
        # a mistyped field raises InvalidPlan naming the field
        (10, {"runs": 1.5}, "runs"),
        (10, {"runs": "3"}, "runs"),
        (10, {"seed": 1.5}, "seed"),
        (10, {"seed": None}, "seed"),
        # a bool is not an int
        (10, {"runs": True}, re.escape("runs must be an int >= 1, got True")),
        (10, {"seed": False}, re.escape("seed must be an int, got False")),
        (10, {"train_fraction": "0.5"}, "train_fraction"),
        (10, {"train_fraction": None}, "train_fraction"),
    ])
    def test_invalid_plans(self, n_docs, fields, match):
        corpus = make_corpus(10)[:n_docs]
        with pytest.raises(InvalidPlan, match=match):
            split(corpus, SplitPlan(**fields))
