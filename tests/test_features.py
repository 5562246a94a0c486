import itertools
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_mask,
    build_gazetteer_reference,
    case_feature,
    featurize_reference,
    gazetteer_id_reference,
    lemmatise,
    length_feature,
    matches_time_reference,
)

from bien import corpus as corpus_module
from bien import features, synth
from bien.corpus import (
    KIND_MIXED,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_SYMBOL,
    KIND_WORD,
    Document,
    TagSpan,
    Token,
    TypeTable,
    parse_tagged_document,
)
from bien.errors import EmptyCorpus, EmptyVocabulary, InvalidSpec, MissingResource
from bien.evaluation import ABLATIONS
from bien.features import (
    CASES,
    CHUNKS,
    FEATURE_NAMES,
    LENGTH_BUCKETS,
    MASKED,
    POS_CLUSTERS,
    SEMANTIC,
    Gazetteer,
    LexiconSet,
    build_gazetteer,
    chunk_flatten,
    default_lexicons,
    feature_cardinalities,
    featurize,
    featurize_docs,
    pos_cluster,
    semantic_feature,
)
from bien.resources import load_wordlist
from bien.synth import generate_corpus

LEX = default_lexicons()


def word(surface):
    """A word type: the ``(surface, kind)`` that semantic_feature takes."""
    return surface, "word"


def lemma_ids(gazetteer, *types):
    """The gazetteer id that featurize gives each ``(surface, kind)`` type."""
    tokens, at = [], 0
    for surface, kind in types:
        tokens.append(Token(surface, at, at + len(surface), kind))
        at += len(surface) + 1
    doc = Document("ids", " ".join(surface for surface, _ in types), tuple(tokens))
    return (featurize(doc, gazetteer, LEX)[:, 0] + 1).tolist()


class TestAtomicFeatures:
    def test_pos_cluster_mapping(self):
        assert pos_cluster("CD") == "CD"
        assert pos_cluster("NN") == "NN"
        assert pos_cluster("NNS") == "NN"
        assert pos_cluster("NNP") == "NNP"
        assert pos_cluster("NNPS") == "NNP"
        for tag in ("VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "MD"):
            assert pos_cluster(tag) == "VB"
        for tag in (",", ".", ":", "``", "''", "(", ")", "-LRB-", "-RRB-"):
            assert pos_cluster(tag) == "PUNCT"
        for tag in ("IN", "CC", "TO"):
            assert pos_cluster(tag) == "IN"
        for tag in ("DT", "JJ", "RB", "PRP", "$", "#", "SYM", "NA", "XYZ"):
            assert pos_cluster(tag) == "SYM"

    def test_chunk_flatten(self):
        assert chunk_flatten("B-NP") == "NP"
        assert chunk_flatten("I-VP") == "VP"
        assert chunk_flatten("PP") == "PP"
        assert chunk_flatten("O") == "NA"
        assert chunk_flatten("NA") == "NA"
        assert chunk_flatten("B-ADJP") == "NA"
        assert chunk_flatten("") == "NA"

    def test_case(self):
        assert case_feature("Doctor") == "UpperInitial"
        assert case_feature("A") == "UpperInitial"
        assert case_feature("hall") == "Lower"
        assert case_feature("CMU") == "AllCaps"
        assert case_feature("McBride") == "Mixed"
        assert case_feature("Dr.") == "UpperInitial"
        assert case_feature("3:30") == "NA"
        assert case_feature("...") == "NA"

    def test_length_buckets(self):
        got = [length_feature("x" * n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 30)]
        assert got == ["1", "2", "3", "4-5", "4-5", "6-8", "6-8", "9+", "9+"]

    def test_empty_surface_has_no_length_bucket(self):
        with pytest.raises(InvalidSpec):
            length_feature("")

    def test_lemmatise(self):
        assert lemmatise("Doctor", LEX.lemma_table) == "dr."
        assert lemmatise("Steals", LEX.lemma_table) == "steal"
        assert lemmatise("Presents", LEX.lemma_table) == "present"
        assert lemmatise("Unlisted", LEX.lemma_table) == "unlisted"


class TestSemantic:
    def test_priority_title_beats_name(self):
        # "doctor" could begin a name, but the title list wins
        assert semantic_feature(*word("Doctor"), LEX) == "Title"

    def test_rank_decides_name_class(self):
        # listed in both name files; more common as a given name
        assert semantic_feature(*word("Alexander"), LEX) == "FirstName"
        assert semantic_feature(*word("Dean"), LEX) == "LastName"
        assert semantic_feature(*word("Steals"), LEX) == "LastName"

    def test_rank_tie_goes_to_lastname(self):
        lex = LexiconSet(
            titles=frozenset(),
            firstnames={"jordan": 5},
            lastnames={"jordan": 5},
            locations=frozenset(),
            timewords=frozenset(),
        )
        assert semantic_feature(*word("Jordan"), lex) == "LastName"

    def test_name_beats_location(self):
        # a surname that also names a building resolves as a name
        assert "porter" in LEX.lastnames
        assert semantic_feature(*word("Porter"), LEX) == "LastName"
        assert semantic_feature(*word("Hall"), LEX) == "Location"

    def test_location_lexicon_holds_venue_heads(self):
        # synth draws venue names as this lexicon minus its generic heads,
        # so every head it subtracts must be listed here
        from bien.resources import load_wordlist
        from bien.synth import _GENERIC_VENUE_WORDS

        assert _GENERIC_VENUE_WORDS <= load_wordlist("locations.txt")

    def test_time_words_and_patterns(self):
        assert semantic_feature(*word("am"), LEX) == "Time"
        assert semantic_feature(*word("noon"), LEX) == "Time"
        assert semantic_feature("3:30", "number", LEX) == "Time"
        assert semantic_feature("3.30", "number", LEX) == "Time"
        assert semantic_feature("12", "number", LEX) == "Time"
        assert semantic_feature("7pm", "mixed", LEX) == "Time"
        assert semantic_feature("7:30pm", "mixed", LEX) == "Time"

    def test_single_digit_is_not_a_time(self):
        assert semantic_feature("1", "number", LEX) == "None"
        assert semantic_feature("123", "number", LEX) == "None"

    def test_word_lists_only_apply_to_words(self):
        assert semantic_feature("hall", "mixed", LEX) == "None"
        assert semantic_feature(*word("presents"), LEX) == "None"


class TestResources:
    def test_a_missing_data_file_raises(self):
        with pytest.raises(MissingResource, match="no-such-file.txt"):
            load_wordlist("no-such-file.txt")


def tiny_corpus():
    texts = [
        "Who: <speaker>Dr. Green</speaker> will talk in <location>Wean Hall</location>",
        "Who: <speaker>Dr. Adams</speaker> talks in <location>Baker Hall</location>",
        "Who: <speaker>Dr. Young</speaker> talk in <location>Wean Hall</location>",
        "there is no talk today at all , none whatsoever here",
    ]
    return [parse_tagged_document(t, doc_id=f"d{i}")[0] for i, t in enumerate(texts)]


class TestGazetteer:
    def test_no_entries_raise(self):
        with pytest.raises(EmptyVocabulary):
            Gazetteer({}, {})

    def test_ids_that_are_not_one_to_v_raise(self):
        with pytest.raises(InvalidSpec, match="exactly 1..V"):
            Gazetteer({"a": 2}, {})

    def test_build_filters_and_ranks(self):
        gaz = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=2, min_freq=3)
        # "talk"/"talks" share a lemma and reach the threshold; "wean" does not
        assert "dr." in gaz.ids
        assert "talk" in gaz.ids
        assert "in" in gaz.ids
        assert "wean" not in gaz.ids
        ranked = sorted(gaz.ids.items(), key=lambda kv: kv[1])
        freqs = {"dr.": 3, "talk": 4, "in": 3, "hall": 3, "who": 3, "will": 1}
        assert all(freqs.get(lem, 99) >= 3 for lem, _ in ranked)
        assert ranked[0][0] == "talk"  # highest frequency gets id 1

    def test_window_zero_keeps_only_span_tokens(self):
        gaz = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=0, min_freq=3)
        assert set(gaz.ids) == {"dr.", "hall"}

    def test_window_growth_is_monotone(self):
        prev = set()
        for w in range(0, 6):
            gaz = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=w, min_freq=1)
            assert prev <= set(gaz.ids)
            prev = set(gaz.ids)

    def test_max_size_truncates_by_frequency(self):
        gaz = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=2, min_freq=3, max_size=2)
        assert len(gaz) == 2
        assert gaz.ids["talk"] == 1

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabulary):
            build_gazetteer(tiny_corpus(), LEX.lemma_table, window=0, min_freq=50)

    def test_no_documents(self):
        for docs in ([], iter([])):
            with pytest.raises(EmptyCorpus, match="at least one"):
                build_gazetteer(docs, LEX.lemma_table)
        with pytest.raises(InvalidSpec, match="window"):  # a bad setting is reported first
            build_gazetteer([], LEX.lemma_table, window=-1)

    def test_missing_lemma_table(self):
        for docs in (tiny_corpus(), []):
            with pytest.raises(MissingResource, match="lemma table"):
                build_gazetteer(docs, None)

    @pytest.mark.parametrize("kwargs, named", [
        ({"window": -5}, "window"),
        ({"window": 1.5}, "window"),
        ({"max_size": 0}, "max_size"),
        ({"max_size": -3}, "max_size"),
        ({"min_freq": 0}, "min_freq"),
        ({"min_freq": "3"}, "min_freq"),
        ({"min_freq": None}, "min_freq"),
        ({"window": True}, "window must be an int >= 0, got True"),
        ({"min_freq": True}, "min_freq must be an int >= 1, got True"),
        ({"max_size": True}, "max_size must be an int >= 1, got True"),
    ])
    def test_bad_settings_raise_naming_the_argument(self, kwargs, named):
        with pytest.raises(InvalidSpec, match=named):
            build_gazetteer(tiny_corpus(), LEX.lemma_table, **kwargs)

    @pytest.mark.parametrize("call", [
        lambda docs, table: build_gazetteer(docs, table, min_freq=1),
        lambda docs, table: featurize_docs(docs, Gazetteer({"talk": 1}, table), LEX),
    ], ids=["build_gazetteer", "Gazetteer"])
    def test_a_lemma_that_is_not_a_str_is_refused_before_any_write(self, call):
        """A lemma would be numbered in the type table's shared ``derived``
        strings, which every later call reads, and ranked as a string."""
        docs = generate_corpus(12, 3)
        types = docs[0].types
        strings, columns = list(types.derived.strings), dict(types._columns)
        with pytest.raises(InvalidSpec, match="^the lemma of 'seminar' must be a str, got int$"):
            call(docs, {**LEX.lemma_table, "seminar": 5})
        assert types.derived.strings == strings
        assert types._columns.keys() == columns.keys()
        assert all(types._columns[k] is kept for k, kept in columns.items())

    def test_lookup_ids(self):
        gaz = Gazetteer({"talk": 1, "dr.": 2}, LEX.lemma_table)
        words = word("talks"), word("Doctor"), word("zyzzyva")
        assert lemma_ids(gaz, *words, (".", "punctuation"), ("$", "symbol")) == [1, 2, 3, 4, 4]
        assert gaz.oov_id == 3 and gaz.naw_id == 4 and gaz.cardinality == 4
        # a surface whose lemma is unlisted still matches directly
        direct = Gazetteer({"talks": 1, "doctor": 2}, LEX.lemma_table)
        assert lemma_ids(direct, word("Talks"), word("Doctor"), word("talk")) == [1, 2, 3]

    def test_equality_follows_ids_and_lemma_table(self):
        gaz = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=2, min_freq=1)
        same = build_gazetteer(tiny_corpus(), LEX.lemma_table, window=2, min_freq=1)
        assert gaz is not same and gaz == same
        first, second = sorted(gaz.ids, key=gaz.ids.get)[:2]
        swapped = {**gaz.ids, first: gaz.ids[second], second: gaz.ids[first]}
        assert Gazetteer(swapped, gaz.lemma_table) != gaz
        surface = next(iter(gaz.lemma_table))
        relemmatised = {**gaz.lemma_table, surface: gaz.lemma_table[surface] + "x"}
        assert Gazetteer(gaz.ids, relemmatised) != gaz
        assert gaz != gaz.ids

    def test_lookup_memo_is_per_instance(self):
        small = Gazetteer({"talk": 1}, LEX.lemma_table)
        large = Gazetteer({"dr.": 1, "talk": 2}, LEX.lemma_table)
        types = word("talks"), word("Doctor")
        assert lemma_ids(small, *types) == lemma_ids(small, *types) == [1, small.oov_id]
        assert lemma_ids(large, *types) == [2, 1]
        assert lemma_ids(small, *types) == [1, small.oov_id]


class TestFeaturize:
    def trace_doc(self):
        doc, _ = parse_tagged_document(
            "Doctor Steals Presents in Dean Hall at 1 am.", doc_id="trace"
        )
        assert [t.surface for t in doc.tokens] == [
            "Doctor", "Steals", "Presents", "in", "Dean", "Hall", "at", "1", "am", ".",
        ]
        return replace(doc, columns={
            "pos": ("NNP", "VBZ", "NNS", "IN", "NNP", "NNP", "IN", "CD", "NN", "."),
            "chunk": ("B-NP", "B-VP", "B-NP", "B-PP", "B-NP", "I-NP", "B-PP", "B-NP", "I-NP", "O"),
        })

    def trace_gazetteer(self):
        ids = {"dr.": 1, "steal": 2, "present": 3, "hall": 4, "at": 5, "am": 6}
        return Gazetteer(ids, LEX.lemma_table)

    def test_trace_document(self):
        vec = featurize(self.trace_doc(), self.trace_gazetteer(), LEX)
        assert vec.shape == (10, 6)
        assert vec.dtype == np.int16

        gaz = self.trace_gazetteer()
        oov, naw = gaz.oov_id - 1, gaz.naw_id - 1
        np.testing.assert_array_equal(
            vec[:, 0], [0, 1, 2, oov, oov, 3, 4, oov, 5, naw]
        )
        assert [POS_CLUSTERS[i] for i in vec[:, 1]] == [
            "NNP", "VB", "NN", "IN", "NNP", "NNP", "IN", "CD", "NN", "PUNCT",
        ]
        assert [CHUNKS[i] for i in vec[:, 2]] == [
            "NP", "VP", "NP", "PP", "NP", "NP", "PP", "NP", "NP", "NA",
        ]
        assert [SEMANTIC[i] for i in vec[:, 3]] == [
            "Title", "LastName", "None", "None", "LastName", "Location",
            "None", "None", "Time", "None",
        ]
        assert [CASES[i] for i in vec[:, 4]] == [
            "UpperInitial", "UpperInitial", "UpperInitial", "Lower",
            "UpperInitial", "UpperInitial", "Lower", "NA", "Lower", "NA",
        ]
        # length buckets count surface characters, not lemma characters
        assert [LENGTH_BUCKETS[i] for i in vec[:, 5]] == [
            "6-8", "6-8", "6-8", "2", "4-5", "4-5", "2", "1", "2", "1",
        ]

    def test_mask_blanks_whole_column(self):
        vec = featurize(self.trace_doc(), self.trace_gazetteer(), LEX, mask=("semantic", "lemma"))
        assert (vec[:, 0] == MASKED).all()
        assert (vec[:, 3] == MASKED).all()
        assert (vec[:, 1] != MASKED).all()

    def test_missing_annotation_columns_degrade_to_na(self):
        doc, _ = parse_tagged_document("Doctor talks", doc_id="d")
        vec = featurize(doc, self.trace_gazetteer(), LEX)
        assert [POS_CLUSTERS[i] for i in vec[:, 1]] == ["SYM", "SYM"]
        assert [CHUNKS[i] for i in vec[:, 2]] == ["NA", "NA"]

    def test_unknown_mask_name(self):
        with pytest.raises(InvalidSpec):
            featurize(self.trace_doc(), self.trace_gazetteer(), LEX, mask=("case", "bogus"))

    def test_resources_required_unless_masked(self):
        doc = self.trace_doc()
        with pytest.raises(MissingResource):
            featurize(doc, None, LEX)
        with pytest.raises(MissingResource):
            featurize(doc, self.trace_gazetteer(), None)
        with pytest.raises(MissingResource):  # a mask does not excuse a resource
            featurize(doc, None, None, mask=("lemma", "semantic"))

    def test_cardinalities(self):
        card = feature_cardinalities(self.trace_gazetteer())
        assert card == {
            "lemma": 8, "pos": 7, "chunk": 4, "semantic": 6, "case": 5, "length": 6,
        }
        assert tuple(card) == FEATURE_NAMES


class TestFeaturizeMatchesReference:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_corpus_under_every_ablation(self, seed):
        docs = generate_corpus(60, seed)
        base = build_gazetteer(docs, LEX.lemma_table)
        for name, row in ABLATIONS.items():
            mask = row["mask"]
            # unpickled documents share a copy of the table with no columns yet
            cold = pickle.loads(pickle.dumps(docs))
            assert cold == docs
            gaz = Gazetteer(base.ids, base.lemma_table)
            lex = replace(LEX)
            for temperature in ("cold", "warm"):
                for doc in cold:
                    got = featurize(doc, gaz, lex, mask=mask)
                    want = featurize_reference(doc, gaz, lex, mask=mask)
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(
                        got, want, err_msg=f"{name} {temperature} {doc.id}"
                    )

    def test_empty_document(self):
        doc, _ = parse_tagged_document("", doc_id="empty")
        gaz = Gazetteer({"talk": 1}, LEX.lemma_table)
        got = featurize(doc, gaz, LEX)
        assert got.shape == (0, len(FEATURE_NAMES))
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, featurize_reference(doc, gaz, LEX))

    def test_semantic_memo_is_per_lexicon_set(self):
        doc, _ = parse_tagged_document("Professor Zyzzyva spoke", doc_id="z")
        gaz = Gazetteer({"talk": 1}, LEX.lemma_table)
        lex = replace(LEX)

        def code_of_zyzzyva(lexicons):
            return SEMANTIC[featurize(doc, gaz, lexicons)[1, 3]]

        assert code_of_zyzzyva(lex) == "None"  # warms lex's memo
        titled = replace(lex, titles=lex.titles | {"zyzzyva"})
        assert code_of_zyzzyva(titled) == "Title"
        surnames = LexiconSet(
            titles=frozenset(),
            firstnames={},
            lastnames={"zyzzyva": 1},
            locations=frozenset(),
            timewords=frozenset(),
        )
        assert code_of_zyzzyva(surnames) == "LastName"
        assert code_of_zyzzyva(lex) == "None"
        assert titled != lex and replace(lex) == lex

    def test_one_gazetteer_with_two_lexicon_sets(self):
        docs = generate_corpus(40, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        other = replace(
            LEX,
            titles=LEX.titles | {"hall", "seminar"},
            locations=frozenset(),
            timewords=LEX.timewords | {"talk"},
        )
        for doc in docs:
            for lexicons in (LEX, other, replace(LEX)):
                np.testing.assert_array_equal(
                    featurize(doc, gaz, lexicons), featurize_reference(doc, gaz, lexicons),
                    err_msg=doc.id,
                )

    def test_type_table_that_starts_over_mid_corpus(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_MEMO_LIMIT", 64)
        # the table starts over between blocks: make each block one document
        monkeypatch.setattr(synth, "_BLOCK_DOCS", 1)
        docs = generate_corpus(40, 3)
        assert len({id(doc.types) for doc in docs}) > 2
        gaz = build_gazetteer(docs, LEX.lemma_table)
        assert gaz == build_gazetteer_reference(docs, LEX.lemma_table)
        made = [(doc.tokens.starts.copy(), tuple(doc.tokens)) for doc in docs]
        later = generate_corpus(10, 4)  # more restarts after the columns exist
        for doc, (starts, tokens) in zip(docs, made):
            np.testing.assert_array_equal(doc.tokens.starts, starts)
            assert doc.tokens == tokens
        for doc in docs + later + docs:
            np.testing.assert_array_equal(
                featurize(doc, gaz, LEX), featurize_reference(doc, gaz, LEX), err_msg=doc.id
            )
            pos = tuple(synth._pos_of(t.surface, t.kind) for t in doc.tokens)
            assert list(doc.column("pos")) == list(pos)

    def test_an_equal_gazetteer_and_lexicon_set_share_the_codes(self):
        docs = generate_corpus(10, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        table = docs[0].types
        featurize(docs[0], gaz, LEX)
        codes = table.column(features._type_codes, gaz, LEX)
        featurize(docs[0], Gazetteer(gaz.ids, gaz.lemma_table), replace(LEX))
        assert np.shares_memory(table.column(features._type_codes, gaz, LEX), codes)
        smaller = Gazetteer({"talk": 1}, LEX.lemma_table)
        np.testing.assert_array_equal(
            featurize(docs[0], smaller, LEX), featurize_reference(docs[0], smaller, LEX)
        )
        assert not np.shares_memory(table.column(features._type_codes, smaller, LEX), codes)

    def test_memos_key_on_surface_and_kind(self):
        gaz = Gazetteer({"hall": 1}, LEX.lemma_table)
        kinds = ("word", "mixed", "punctuation", "word")
        doc = Document(
            "kinds", "hall " * 4,
            tuple(Token("hall", 5 * i, 5 * i + 4, kind) for i, kind in enumerate(kinds)),
        )
        for _ in range(2):
            vec = featurize(doc, gaz, LEX)
            np.testing.assert_array_equal(vec, featurize_reference(doc, gaz, LEX))
            assert [SEMANTIC[c] for c in vec[:, 3]] == ["Location", "None", "None", "Location"]
            assert list(vec[:, 0] + 1) == [1, 1, gaz.naw_id, 1]


def assert_type_codes_match_reference(table, gazetteer):
    """Every type's columns of ``table`` (its gazetteer id, semantic, case
    and length codes, and the strings its lemma numbers stand for) equal
    the per-type reference functions of its surface and kind."""
    lexicon = table.column(features._lexicon_codes, LEX)
    numbers = table.column(features._lemma_numbers, gazetteer.lemma_table)
    ids = table.column(features._gazetteer_ids, gazetteer)
    strings = table.derived.strings + [None]  # -1 reads None
    for k, (surface, kind) in enumerate(zip(table.surfaces, table.kinds)):
        want = [
            SEMANTIC.index(semantic_feature(surface, kind, LEX)),
            CASES.index(case_feature(surface)),
            LENGTH_BUCKETS.index(length_feature(surface)),
        ]
        assert lexicon[k].tolist() == want, (surface, kind)
        token = Token(surface, 0, len(surface), kind)
        assert ids[k] == gazetteer_id_reference(gazetteer, token), (surface, kind)
        lemma = [lemmatise(surface, gazetteer.lemma_table), surface.lower()]
        if kind in (KIND_PUNCT, KIND_SYMBOL):
            lemma = [None, None]
        assert [strings[n] for n in numbers[k].tolist()] == lemma, (surface, kind)


def types_of(docs):
    """The distinct ``(surface, kind)`` types of ``docs``' tokens, in order."""
    return list(dict.fromkeys((t.surface, t.kind) for doc in docs for t in doc.tokens))


def table_of(types, gazetteer, calls=()):
    """A fresh :class:`TypeTable` of ``types``, its columns for ``gazetteer``
    and :data:`LEX` read after the first ``calls[0]`` types, again after the
    next ``calls[1]``, and so on."""
    table = TypeTable()
    types = iter(types)
    for count in calls:
        table.ids_of(list(itertools.islice(types, count)))
        table.column(features._type_codes, gazetteer, LEX)
    table.ids_of(list(types))
    return table


KINDS = (KIND_WORD, KIND_NUMBER, KIND_PUNCT, KIND_SYMBOL, KIND_MIXED)
SURFACES = st.one_of(
    st.text(st.characters(codec="ascii"), min_size=1, max_size=8),
    st.text("aAzZ09.-İıΣσςßẞǅⒶ東京é", min_size=1, max_size=6),
    st.text(min_size=1, max_size=6),
    st.sampled_from(["A", "a", "7", "2024", "McBride", "CMU", "Dr.", "Doctor", "Steals",
                     "İstanbul", "ΣΟΦΙΑ", "σοφίας", "東京", "x中", "3:30", "Hall"]),
)


class TestTypeCodesMatchReference:
    """The per-type columns, coded a table at a time, equal the per-type
    reference functions, and do so however the table was extended."""

    @pytest.mark.parametrize("calls", [(), (1, 1, 1, 40, 200), (1,) * 60])
    def test_generated_tables(self, calls):
        docs = generate_corpus(40, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        assert_type_codes_match_reference(table_of(types_of(docs), gaz, calls), gaz)

    def test_a_table_extended_one_type_at_a_time_codes_as_one_made_whole(self):
        docs = generate_corpus(20, 5)
        types = types_of(docs)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        whole, stepped = table_of(types, gaz), table_of(types, gaz, (1,) * len(types))
        for compute, context in (
            (features._lexicon_codes, LEX), (features._gazetteer_ids, gaz)
        ):
            np.testing.assert_array_equal(
                stepped.column(compute, context), whole.column(compute, context)
            )

    def test_surfaces_past_ascii(self):
        """Code points past Latin-1 (Greek and Cyrillic capitals, a lone
        surrogate) are classified once each, in the same pass as ASCII and
        Latin-1 surfaces."""
        surfaces = ["İ", "Σ", "ς", "ΣΑΣ", "Σας", "東京", "İstanbul", "ß", "ẞ", "ǅ", "Ⓐ",
                    "café", "Éa", "a", "A", "7", "McBride", "ΑΘΗΝΑ", "МОСКВА", "Москва",
                    "Ж\ud800", "\ud800ж", "\ud800"]
        gaz = Gazetteer({"istanbul": 1, "i̇stanbul": 2, "σας": 3}, LEX.lemma_table)
        table = table_of([(s, KIND_WORD) for s in surfaces], gaz, (3, 1))
        assert_type_codes_match_reference(table, gaz)
        cases = table.column(features._lexicon_codes, LEX)[:, 1]
        assert [CASES[c] for c in cases[:6]] == [
            "UpperInitial", "UpperInitial", "Lower", "AllCaps", "UpperInitial", "Mixed"
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(SURFACES, st.sampled_from(KINDS)), max_size=30),
        st.lists(st.integers(0, 6), max_size=6),
    )
    def test_hypothesis_tables(self, types, calls):
        words = [s.lower() for s, kind in types if kind not in (KIND_PUNCT, KIND_SYMBOL)]
        vocabulary = list(dict.fromkeys(["talk", *words]))[:4]
        gaz = Gazetteer({w: i + 1 for i, w in enumerate(vocabulary)}, LEX.lemma_table)
        assert_type_codes_match_reference(table_of(types, gaz, calls), gaz)


def assert_same_gazetteer(docs, **kwargs):
    """build_gazetteer equals its per-token reference, ids in the same order,
    or both raise EmptyVocabulary."""
    try:
        want = build_gazetteer_reference(docs, LEX.lemma_table, **kwargs)
    except EmptyVocabulary:
        with pytest.raises(EmptyVocabulary):
            build_gazetteer(docs, LEX.lemma_table, **kwargs)
        return
    got = build_gazetteer(docs, LEX.lemma_table, **kwargs)
    assert got == want
    assert list(got.ids.items()) == list(want.ids.items())


SMALL_VOCABULARY = (
    "talk", "talks", "Talk", "Doctor", "dr.", "Dr.", "Hall", "hall", "at", "in", "3:30",
    ",", ".", "(", "$", "--",
)


def small_document(i, segments):
    parts = [
        f"<speaker>{' '.join(words)}</speaker>" if tagged else " ".join(words)
        for tagged, words in segments
    ]
    return parse_tagged_document(" ".join(parts), doc_id=f"h{i}")[0]


class TestGazetteerMatchesReference:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_generated_corpora(self, seed):
        docs = generate_corpus(80, seed)
        for window in range(5):
            for min_freq in range(1, 5):
                assert_same_gazetteer(docs, window=window, min_freq=min_freq)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_max_size_through_a_frequency_tie(self, seed):
        docs = generate_corpus(80, seed)
        freq = Counter(
            lemmatise(t.surface, LEX.lemma_table)
            for doc in docs
            for t in doc.tokens
            if t.kind not in ("punctuation", "symbol")
        )
        full = build_gazetteer_reference(docs, LEX.lemma_table, max_size=10**6)
        ranked = sorted(full.ids, key=full.ids.get)
        ties = [i for i in range(1, len(ranked)) if freq[ranked[i - 1]] == freq[ranked[i]]]
        cut = ties[len(ties) // 2]
        assert_same_gazetteer(docs, max_size=cut)
        assert len(build_gazetteer(docs, LEX.lemma_table, max_size=cut)) == cut

    def test_windows_of_only_punctuation(self):
        docs = [parse_tagged_document("talk , ( <stime>.</stime> $ . talk", doc_id="p")[0]]
        for window in range(3):
            assert_same_gazetteer(docs, window=window, min_freq=1)
        docs.append(parse_tagged_document("<stime>talk</stime> .", doc_id="q")[0])
        for window in range(4):
            assert_same_gazetteer(docs, window=window, min_freq=2)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),
                    st.lists(st.sampled_from(SMALL_VOCABULARY), min_size=1, max_size=4),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 4),
        st.integers(1, 4),
        st.integers(1, 6),
    )
    def test_small_corpora(self, corpus, window, min_freq, max_size):
        docs = [small_document(i, segments) for i, segments in enumerate(corpus)]
        assert_same_gazetteer(docs, window=window, min_freq=min_freq, max_size=max_size)


class TestNeighbourhoodEdges:
    """Gold spans whose neighbourhood a whole-array pass over concatenated
    documents could let spill into the next document."""

    def test_span_that_starts_past_its_document(self):
        # a span wholly past the document's one token is refused when the
        # document is built, so no neighbourhood is clipped to nothing
        seminar = (Token("seminar", 0, 7, "word"),)
        with pytest.raises(InvalidSpec, match=r"^a: gold TagSpan\(.*\) ends past its 1 tokens$"):
            Document("a", "seminar", seminar, (TagSpan("speaker", 5, 9),))
        # a span on the last token, just before a document whose first
        # token is tagged
        last = Document("a", "seminar", seminar, (TagSpan("speaker", 0, 0),))
        tagged = parse_tagged_document("<speaker>talk</speaker> hall hall", doc_id="b")[0]
        docs = [last, tagged]
        for window in range(8):
            assert_same_gazetteer(docs, window=window, min_freq=1)
        ids = build_gazetteer(docs, LEX.lemma_table, window=0, min_freq=1).ids
        assert ids == {"seminar": 1, "talk": 2}  # one each, ties alphabetically

    def test_window_wider_than_the_document(self):
        docs = [
            parse_tagged_document("talk <stime>3:30</stime> hall", doc_id="a")[0],
            parse_tagged_document("Dr. <speaker>Smith</speaker>", doc_id="b")[0],
            parse_tagged_document("talks in the hall , talk", doc_id="c")[0],
        ]
        for window in (3, 10, 1000):
            assert_same_gazetteer(docs, window=window, min_freq=1)
        ids = build_gazetteer(docs, LEX.lemma_table, window=1000, min_freq=1).ids
        assert "smith" in ids and "talk" in ids and "the" not in ids

    def test_empty_document_with_a_span(self):
        # refused when built; an empty document without one is read
        with pytest.raises(InvalidSpec, match=r"^a: gold TagSpan\(.*\) ends past its 0 tokens$"):
            Document("a", "", (), (TagSpan("speaker", 0, 0),))
        empty = Document("a", "", ())
        tagged = parse_tagged_document("<speaker>talk</speaker> hall", doc_id="b")[0]
        for window in range(3):
            assert_same_gazetteer([empty, tagged], window=window, min_freq=1)
            assert_same_gazetteer([tagged, empty], window=window, min_freq=1)


class TestTimePattern:
    @settings(max_examples=300, deadline=None)
    @given(
        st.from_regex(r"\d{0,3}[:.]?\d{0,3}(?:[ap]m?)?", fullmatch=True)
        | st.text(alphabet="0123456789:.apm x", max_size=8)
    )
    def test_one_pattern_accepts_what_the_four_accept(self, low):
        assert bool(features._TIME_RE.fullmatch(low)) == matches_time_reference(low)

    @pytest.mark.parametrize("low, is_time", [
        ("12", True), ("3:30", True), ("03.30", True), ("7pm", True), ("7:30am", True),
        ("1", False), ("123", False), ("3:3", False), ("7:30", True), ("130pm", False),
        ("pm", False), ("3.30pm", False),
    ])
    def test_examples(self, low, is_time):
        assert bool(features._TIME_RE.fullmatch(low)) == matches_time_reference(low) == is_time


class TestMaskInPlace:
    def test_masked_featurize_equals_a_masked_copy(self):
        docs = generate_corpus(10, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        for mask in dict.fromkeys(row["mask"] for row in ABLATIONS.values()):
            for doc in docs:
                got = featurize(doc, gaz, LEX, mask=mask)
                np.testing.assert_array_equal(got, apply_mask(featurize(doc, gaz, LEX), mask))
        with pytest.raises(InvalidSpec):
            featurize(docs[0], gaz, LEX, mask=("lemma", "bogus"))

    def test_a_mask_leaves_the_type_codes_as_they_were(self):
        docs = generate_corpus(5, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        want = featurize(docs[0], gaz, LEX)
        featurize(docs[0], gaz, LEX, mask=FEATURE_NAMES)
        np.testing.assert_array_equal(featurize(docs[0], gaz, LEX), want)

    def test_the_matrix_is_fresh_and_writable(self):
        docs = generate_corpus(5, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        codes = docs[0].types.column(features._type_codes, gaz, LEX)
        for got in (featurize(docs[0], gaz, LEX), featurize_docs(docs, gaz, LEX)):
            assert got.dtype == np.int16 and got.flags.writeable
            assert not np.shares_memory(got, codes)


def stacked_reference(docs, gazetteer, lexicons, mask=()):
    """Each document's ``featurize_reference`` matrix, stacked in order."""
    empty = np.zeros((0, len(FEATURE_NAMES)), dtype=np.int16)
    matrices = [featurize_reference(doc, gazetteer, lexicons, mask=mask) for doc in docs]
    return np.concatenate([empty, *matrices])


class TestFeaturizeDocs:
    """``featurize_docs`` is the documents' reference matrices, every cell
    computed afresh, stacked row for row."""

    def test_every_mask_of_the_grid(self):
        docs = generate_corpus(30, 3)
        gaz = build_gazetteer(docs[:20], LEX.lemma_table)
        for mask in dict.fromkeys(row["mask"] for row in ABLATIONS.values()):
            got = featurize_docs(docs, gaz, LEX, mask=mask)
            assert got.dtype == np.int16 and got.shape == (sum(map(len, docs)), 6)
            np.testing.assert_array_equal(got, stacked_reference(docs, gaz, LEX, mask))

    def test_a_side_across_type_tables(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_MEMO_LIMIT", 64)
        # the table starts over between blocks: make each block one document
        monkeypatch.setattr(synth, "_BLOCK_DOCS", 1)
        docs = generate_corpus(12, 3)
        gaz = build_gazetteer(docs[:8], LEX.lemma_table)
        side = docs[1::2] + docs[::2]  # documents of one table apart in the side
        assert len({id(doc.types) for doc in side}) > 2
        got = featurize_docs(side, gaz, LEX)  # before any document's codes exist
        np.testing.assert_array_equal(got, stacked_reference(side, gaz, LEX))
        np.testing.assert_array_equal(
            featurize_docs(side, gaz, LEX, mask=("lemma",)),
            stacked_reference(side, gaz, LEX, ("lemma",)),
        )

    def test_a_side_with_zero_token_documents(self):
        docs = generate_corpus(6, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        texts = ("", " \n\t ")  # no tokens: empty, and whitespace only
        empty = [parse_tagged_document(text, doc_id=f"e{k}")[0] for k, text in enumerate(texts)]
        side = [empty[0], *docs[:3], empty[1], *docs[3:]]
        np.testing.assert_array_equal(
            featurize_docs(side, gaz, LEX), stacked_reference(side, gaz, LEX)
        )
        for only_empty in ([], empty):
            got = featurize_docs(only_empty, gaz, LEX)
            assert got.dtype == np.int16 and got.shape == (0, 6)

    def test_a_side_of_columns_under_other_values(self):
        docs = generate_corpus(6, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        # the same strings numbered afresh, other strings, and no columns
        renumbered = replace(docs[0], columns={k: tuple(v) for k, v in docs[0].columns.items()})
        pos = [("NNS", "VBD", "CC")[k % 3] for k in range(len(docs[1]))]
        other = replace(docs[1], columns={"pos": pos})
        bare = parse_tagged_document(docs[2].text, doc_id="bare")[0]
        side = [docs[3], renumbered, other, docs[4], bare, docs[5]]
        assert len({id(doc.column_view("pos").values) for doc in side}) == 4
        np.testing.assert_array_equal(
            featurize_docs(side, gaz, LEX), stacked_reference(side, gaz, LEX)
        )

    def test_missing_resources_and_bad_masks_raise_as_featurize_does(self):
        docs = generate_corpus(3, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        for gazetteer, lexicons in ((None, LEX), (gaz, None)):
            with pytest.raises(MissingResource, match="both a gazetteer and lexicons"):
                featurize_docs(docs, gazetteer, lexicons)
        with pytest.raises(InvalidSpec, match="bogus"):
            featurize_docs(docs, gaz, LEX, mask=("case", "bogus"))

    def test_a_bad_mask_raises_on_an_empty_side(self):
        """As on any other side: an empty one gives no codes to mask, but
        a mask that names no feature is still an error."""
        docs = generate_corpus(3, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        empty = parse_tagged_document("", doc_id="e0")[0]
        for side in ([], [empty]):
            with pytest.raises(InvalidSpec, match="bogus"):
                featurize_docs(side, gaz, LEX, mask=("bogus",))
            assert featurize_docs(side, gaz, LEX, mask=("case",)).shape == (0, 6)
