import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bien.corpus import (
    Document,
    SplitPlan,
    TagSpan,
    load_columns,
    load_corpus_dir,
    parse_tagged_document,
    read_column_file,
    read_corpus_cache,
    serialize_document,
    split,
    tokenize,
    write_corpus_cache,
)
from bien.errors import AlignmentError, InvalidPlan, MalformedTag, UnknownField
from bien.resources import load_abbreviations
from bien.synth import generate_corpus, write_corpus

ABBREV = load_abbreviations()


def surfaces(text):
    return [t.surface for t in tokenize(text, ABBREV)]


class TestTokenize:
    def test_abbreviation_and_decimal(self):
        assert surfaces("Dr. Steals, worth $10.5 mil.") == [
            "Dr.", "Steals", ",", "worth", "$", "10.5", "mil.",
        ]

    def test_sentence_final_period_splits(self):
        assert surfaces("at 1 am.") == ["at", "1", "am", "."]

    def test_kinds(self):
        kinds = [t.kind for t in tokenize("Dr. Steals, worth $10.5 mil.", ABBREV)]
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
        for tok in tokenize(text, ABBREV):
            assert text[tok.start : tok.end] == tok.surface

    def test_reconstruction_preserves_non_whitespace(self):
        text = "Who: Dr. A. Smith (CMU) 3:30-5:00, Wean 5409"
        joined = "".join(surfaces(text))
        assert joined == "".join(text.split())

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    def test_offsets_sound_on_arbitrary_text(self, text):
        toks = tokenize(text, ABBREV)
        prev_end = -1
        for tok in toks:
            assert text[tok.start : tok.end] == tok.surface
            assert not any(c.isspace() for c in tok.surface)
            assert tok.start >= prev_end
            prev_end = tok.end
        assert "".join(t.surface for t in toks) == "".join(text.split())


class TestParseTagged:
    def test_simple_span(self):
        doc, issues = parse_tagged_document(
            "<speaker>Dr. Steals</speaker> presents", doc_id="d1"
        )
        assert doc.surfaces == ("Dr.", "Steals", "presents")
        assert doc.gold_spans == (TagSpan("speaker", 0, 1),)
        assert issues == []
        assert doc.text == "Dr. Steals presents"

    def test_multiple_spans_and_offsets(self):
        raw = "Time: <stime>3:30</stime> - <etime>5:00</etime>\nPlace: <location>Wean 5409</location>"
        doc, issues = parse_tagged_document(raw, doc_id="d2")
        assert [s.field for s in doc.gold_spans] == ["stime", "etime", "location"]
        by_field = {s.field: s for s in doc.gold_spans}
        st_, et = by_field["stime"], by_field["etime"]
        assert doc.surfaces[st_.start_token : st_.end_token + 1] == ("3:30",)
        assert doc.surfaces[et.start_token : et.end_token + 1] == ("5:00",)
        loc = by_field["location"]
        assert doc.surfaces[loc.start_token : loc.end_token + 1] == ("Wean", "5409")

    def test_unknown_field_dropped_with_lint(self):
        doc, issues = parse_tagged_document("<sentence>hi there</sentence>", doc_id="d")
        assert doc.gold_spans == ()
        assert doc.surfaces == ("hi", "there")
        assert [i.code for i in issues] == ["UNKNOWN_FIELD"]

    def test_unknown_field_strict_raises(self):
        with pytest.raises(UnknownField):
            parse_tagged_document("<bogus>x</bogus>", strict=True)

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

    def test_angle_text_that_is_not_a_tag(self):
        doc, issues = parse_tagged_document("<0.12.4.93.1> x < y", doc_id="d")
        assert "<0.12.4.93.1>" in doc.text
        assert issues == []

    def test_serialize_round_trip(self):
        raw = "Who: <speaker>Dr. Steals</speaker>\nTime: <stime>1 am</stime>."
        doc, _ = parse_tagged_document(raw, doc_id="d")
        assert serialize_document(doc) == raw
        doc2, _ = parse_tagged_document(serialize_document(doc), doc_id="d")
        assert doc2 == doc

    def test_adjacent_same_field_spans_survive_round_trip(self):
        raw = "<stime>3:30</stime> <stime>4:30</stime>"
        doc, _ = parse_tagged_document(raw, doc_id="d")
        assert doc.gold_spans == (TagSpan("stime", 0, 0), TagSpan("stime", 1, 1))
        assert serialize_document(doc) == raw


class TestColumns:
    def _doc(self, text):
        doc, _ = parse_tagged_document(text, doc_id="d")
        return doc

    def test_strict_alignment(self):
        doc = self._doc("Dr. Steals presents")
        rows = [["Dr.", "NNP", "NP"], ["Steals", "NNP", "NP"], ["presents", "VBZ", "VP"]]
        doc2 = load_columns(doc, rows)
        assert doc2.column("pos") == ("NNP", "NNP", "VBZ")
        assert doc2.column("chunk") == ("NP", "NP", "VP")

    def test_strict_surface_mismatch(self):
        doc = self._doc("Dr. Steals presents")
        rows = [["Dr.", "NNP", "NP"], ["Steels", "NNP", "NP"], ["presents", "VBZ", "VP"]]
        with pytest.raises(AlignmentError) as exc:
            load_columns(doc, rows)
        assert exc.value.index == 1

    def test_strict_row_count_mismatch(self):
        doc = self._doc("a b c d e f g h i j")
        rows = [[s, "NN", "NP"] for s in "a b c d e f g h i".split()]
        with pytest.raises(AlignmentError) as exc:
            load_columns(doc, rows)
        assert exc.value.index == 9

    def test_lenient_realigns_merged_rows(self):
        doc = self._doc("3:30-5:00 talk")
        assert doc.surfaces == ("3:30", "-", "5:00", "talk")
        rows = [["3:30-5:00", "CD", "NP"], ["talk", "NN", "NP"]]
        doc2 = load_columns(doc, rows, lenient=True)
        assert doc2.column("pos") == ("CD", "CD", "CD", "NN")

    def test_lenient_realigns_split_rows(self):
        doc = self._doc("e-mail me")
        rows = [["e", "NN", "NP"], ["-", ":", "NA"], ["mail", "NN", "NP"], ["me", "PRP", "NP"]]
        doc2 = load_columns(doc, rows, lenient=True)
        assert doc2.column("pos") == ("NN", "PRP")

    def test_missing_column_values_become_na(self):
        doc = self._doc("a b")
        rows = [["a", "DT", ""], ["b", "NN", ""]]
        doc2 = load_columns(doc, rows)
        assert doc2.column("chunk") == ("NA", "NA")

    def test_unrequested_column_defaults_to_na(self):
        doc = self._doc("a b")
        assert doc.column("pos") == ("NA", "NA")

    def test_column_file_blocks(self, tmp_path):
        p = tmp_path / "cols.tsv"
        p.write_text("a\tDT\tNP\nb\tNN\tNP\n\nc\tVB\tVP\n", encoding="utf-8")
        blocks = read_column_file(p)
        assert len(blocks) == 2
        assert blocks[0] == [["a", "DT", "NP"], ["b", "NN", "NP"]]
        assert blocks[1] == [["c", "VB", "VP"]]


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

    def test_invalid_plans(self):
        corpus = make_corpus(10)
        with pytest.raises(InvalidPlan):
            split([], SplitPlan())
        with pytest.raises(InvalidPlan):
            split(corpus, SplitPlan(train_fraction=1.0))
        with pytest.raises(InvalidPlan):
            split(corpus, SplitPlan(runs=0))


class TestCache:
    def test_jsonl_round_trip(self, tmp_path):
        docs = make_corpus(3)
        docs[0] = docs[0].with_columns(pos=["NN"] * len(docs[0]))
        path = tmp_path / "cache.jsonl"
        write_corpus_cache(docs, path)
        again = read_corpus_cache(path)
        assert again == docs
        line = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(line)["id"] == "doc000"

    def test_document_dict_round_trip(self):
        doc, _ = parse_tagged_document(
            "Who: <speaker>Dr. Steals</speaker> at <stime>1 am</stime>.", doc_id="x"
        )
        assert Document.from_dict(doc.to_dict()) == doc


class TestCorpusDir:
    def test_round_trip_through_write_corpus(self, tmp_path):
        docs = generate_corpus(30, 5)
        write_corpus(docs, tmp_path)
        again, issues = load_corpus_dir(tmp_path)
        assert issues == []
        blocks = read_column_file(tmp_path / "columns.tsv")
        assert len(again) == len(blocks) == len(docs)
        for doc, loaded, rows in zip(sorted(docs, key=lambda d: d.id), again, blocks):
            loaded = load_columns(loaded, rows)
            assert loaded.id == doc.id
            assert loaded.text == doc.text
            assert loaded.tokens == doc.tokens
            assert loaded.gold_spans == doc.gold_spans
            assert loaded.column("pos") == doc.column("pos")
            assert loaded.column("chunk") == doc.column("chunk")
