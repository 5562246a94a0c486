"""Span assembly, scoring, and the experiment protocol."""

import hashlib
import re
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bien import evaluation, inference, learning
from bien import features as features_module
from bien import model as model_module
from bien.corpus import Document, SplitPlan, TagSpan, Token, parse_tagged_document
from bien.corpus import parse_tagged_documents, split
from bien.errors import InvalidSpec
from bien.evaluation import (
    MATCH_MODES,
    FieldScore,
    assemble_slots,
    decode,
    decode_batch,
    macro_f1,
    run_ablations,
    run_experiment,
    score_documents,
    ExperimentConfig,
)
from bien.features import (
    Gazetteer,
    build_gazetteer,
    default_lexicons,
    feature_cardinalities,
    featurize,
)
from bien.learning import TrainConfig, encode_side_tags
from bien.model import build_model, compile_chain, number_observations
from bien.synth import generate_corpus

from oracles import (
    apply_mask,
    assemble_slots_reference,
    randomize_model,
    sample_example,
    score_documents_reference,
    slot_filler,
    viterbi_reference,
)


FIELDS = ("speaker", "location", "stime", "etime")


def decode_matrices(chain, obs_list):
    """``decode_batch`` of observation matrices, numbered against the
    chain's observables."""
    cardinalities = list(chain.model.observables.values())
    return decode_batch(chain, number_matrices(obs_list, cardinalities))


def number_matrices(obs_list, cardinalities):
    """``number_observations`` of a list of matrices, stacked."""
    stack = np.concatenate([np.zeros((0, len(cardinalities)), dtype=np.int16), *obs_list])
    return number_observations(stack, [len(obs) for obs in obs_list], cardinalities)


def tiny_space(n_fields=2):
    model = build_model(FIELDS[:n_fields], {"lemma": 4}, memory=True)
    return model.tags


class TestAssembleSlots:
    def test_round_trip_on_gold_documents(self):
        texts = [
            "<speaker>ann blake</speaker> talks at <stime>noon</stime> today",
            "seminar in <location>wean hall</location> room five",
            "<stime>3 pm</stime> <etime>4 pm</etime> sharp",
            "<speaker>li</speaker> <speaker>wu tan</speaker> co present",  # adjacent spans
            "nothing tagged here at all",
        ]
        space = build_model(FIELDS, {"lemma": 4}).tags
        for text in texts:
            doc, _ = parse_tagged_document(text, "d", fields=FIELDS)
            tags = encode_side_tags([doc], space)
            spans, diag = assemble_slots(tags, space)
            assert sorted(spans, key=lambda s: s.start_token) == sorted(
                doc.gold_spans, key=lambda s: s.start_token
            )
            assert all(v == 0 for v in diag.values())

    def test_unterminated_run_is_salvaged(self):
        space = tiny_space()
        seq = [space.begin(0), space.inside(0), space.background]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("speaker", 0, 1)]
        assert diag["unterminated"] == 1

    def test_run_open_at_sequence_end(self):
        space = tiny_space()
        seq = [space.background, space.begin(1)]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("location", 1, 1)]
        assert diag["unterminated"] == 1

    def test_orphan_inside_opens_a_run(self):
        space = tiny_space()
        seq = [space.background, space.inside(0), space.end(0)]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("speaker", 1, 2)]
        assert diag["orphan_inside"] == 1

    def test_orphan_end_is_a_single_token_span(self):
        space = tiny_space()
        seq = [space.background, space.end(1), space.background]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("location", 1, 1)]
        assert diag["orphan_end"] == 1

    def test_begin_after_begin_splits(self):
        space = tiny_space()
        seq = [space.begin(0), space.begin(0), space.end(0)]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("speaker", 0, 0), TagSpan("speaker", 1, 2)]
        assert diag["unterminated"] == 1

    def test_end_of_other_field_closes_and_salvages(self):
        space = tiny_space()
        seq = [space.begin(0), space.end(1)]
        spans, diag = assemble_slots(seq, space)
        assert spans == [TagSpan("speaker", 0, 0), TagSpan("location", 1, 1)]
        assert diag["unterminated"] == 1
        assert diag["orphan_end"] == 1

    @pytest.mark.parametrize("seq, shown", [
        ([9], "9 at [0]"),
        ([-3, 0], "-3 at [0]"),
        ([0, 5, 1], "5 at [1]"),
        ([1.5], "float64 of shape (1,)"),
        (np.array([0.0, 1.0]), "float64 of shape (2,)"),
        (np.array([[0, 4], [1, 2]]), "int64 of shape (2, 2)"),
        (np.array(4), "int64 of shape ()"),
        ([[4]], "int64 of shape (1, 1)"),
    ], ids=["past-the-space", "negative", "one-past", "float", "float-array",
            "two-dimensional", "zero-dimensional", "nested-list"])
    def test_tags_outside_the_tag_space_raise(self, seq, shown):
        space = tiny_space(1)
        with pytest.raises(InvalidSpec, match=re.escape(f"integers in 0 .. 4, got {shown}")):
            assemble_slots(seq, space)

    def test_empty_and_background_sequences_are_valid(self):
        """Empty in any dtype, or background in an integer dtype: a float
        array of background tags is refused as any float array is."""
        space = tiny_space(1)
        for seq in ([], np.zeros(0), np.zeros(3, np.uint8)):
            assert assemble_slots(seq, space) == (
                [], {"unterminated": 0, "orphan_inside": 0, "orphan_end": 0}
            )

    @pytest.mark.parametrize("n_fields", [1, 2, 4])
    def test_matches_reference_on_random_sequences(self, n_fields):
        space = tiny_space(n_fields)
        rng = np.random.default_rng(n_fields)
        for _ in range(2000):
            seq = rng.integers(0, space.size, size=int(rng.integers(0, 12)))
            assert assemble_slots(seq, space) == assemble_slots_reference(seq, space)

    @pytest.mark.parametrize("n_fields", [1, 2, 4])
    def test_matches_reference_across_long_background_runs(self, n_fields):
        space = tiny_space(n_fields)
        rng = np.random.default_rng(10 + n_fields)
        for _ in range(500):
            pieces = [np.full(int(rng.integers(0, 30)), space.background)]
            for _ in range(int(rng.integers(0, 6))):
                pieces.append(rng.integers(0, space.size, size=int(rng.integers(1, 5))))
                pieces.append(np.full(int(rng.integers(0, 30)), space.background))
            seq = np.concatenate(pieces)
            assert assemble_slots(seq, space) == assemble_slots_reference(seq, space)


class TestFieldScore:
    def test_metrics(self):
        s = FieldScore(produced=4, truth=5, correct=3)
        assert s.precision == 0.75
        assert s.recall == 0.6
        npt.assert_allclose(s.f1, 2 * 0.75 * 0.6 / 1.35)

    def test_zero_denominators(self):
        assert FieldScore().precision == 0.0
        assert FieldScore().recall == 0.0
        assert FieldScore().f1 == 0.0
        assert FieldScore(produced=2, truth=0, correct=0).f1 == 0.0


def parse(text):
    doc, _ = parse_tagged_document(text, "d", fields=FIELDS)
    return doc


class TestScoreDocuments:
    def test_slot_mode_credits_any_matching_filler(self):
        doc = parse("<speaker>ann blake</speaker> hosts <speaker>ann blake</speaker>")
        # first guess wrong string, second right: still credited
        preds = [[TagSpan("speaker", 1, 2), TagSpan("speaker", 3, 4)]]
        scores = score_documents([doc], preds, FIELDS, mode="slot")
        assert scores["speaker"].correct == 1
        assert scores["speaker"].produced == 1
        assert scores["speaker"].truth == 1

    def test_slot_mode_string_match_not_position(self):
        doc = parse("<stime>3 pm</stime> ends by 3 pm or so")
        # span over the untagged copy of the same string still counts
        scores = score_documents([doc], [[TagSpan("stime", 4, 5)]], FIELDS)
        assert scores["stime"].correct == 1

    def test_slot_mode_wrong_string(self):
        doc = parse("<location>wean hall</location> at five")
        scores = score_documents([doc], [[TagSpan("location", 1, 2)]], FIELDS)
        assert scores["location"].produced == 1
        assert scores["location"].correct == 0

    def test_slot_tallies_across_documents(self):
        docs = [
            parse("<speaker>li wu</speaker> presents"),
            parse("no speaker today"),
            parse("<speaker>ann tan</speaker> at <stime>noon</stime>"),
        ]
        preds = [
            [TagSpan("speaker", 0, 1)],                            # correct
            [TagSpan("speaker", 0, 0)],                            # false produce
            [TagSpan("stime", 3, 3)],                              # stime only
        ]
        scores = score_documents(docs, preds, FIELDS)
        assert (scores["speaker"].produced, scores["speaker"].truth,
                scores["speaker"].correct) == (2, 2, 1)
        assert scores["speaker"].precision == 0.5
        assert scores["speaker"].recall == 0.5
        assert (scores["stime"].produced, scores["stime"].truth,
                scores["stime"].correct) == (1, 1, 1)
        assert scores["etime"].f1 == 0.0

    def test_occurrence_mode_needs_exact_boundaries(self):
        doc = parse("<speaker>ann blake</speaker> hosts <speaker>ann blake</speaker>")
        preds = [[
            TagSpan("speaker", 0, 1),     # exact
            TagSpan("speaker", 3, 3),     # wrong right boundary
        ]]
        scores = score_documents([doc], preds, FIELDS, mode="occurrence")
        assert scores["speaker"].truth == 2
        assert scores["speaker"].produced == 2
        assert scores["speaker"].correct == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidSpec):
            score_documents([], [], FIELDS, mode="overlap")

    def test_prediction_count_must_match_document_count(self):
        docs = [parse(f"<stime>{h} pm</stime> talk") for h in (3, 4, 5)]
        with pytest.raises(InvalidSpec, match="3 documents but 1 prediction lists"):
            score_documents(docs, [[]], FIELDS)

    @pytest.mark.parametrize("mode", ["slot", "occurrence"])
    def test_a_repeated_field_raises(self, mode, monkeypatch):
        """Unchecked, a field listed twice was tallied twice: 6/6/6 for
        speaker on three documents where the list naming it once gives
        3/3/3. It is refused, naming it, before any tally."""
        docs = generate_corpus(6, 3)
        preds = [doc.gold_spans for doc in docs]
        scores = score_documents(docs, preds, ("speaker", "location"), mode=mode)
        assert scores["speaker"].truth == 3
        monkeypatch.setattr(evaluation, "FieldScore", None)  # any tally would fail
        with pytest.raises(InvalidSpec, match="^fields name 'speaker' twice$"):
            score_documents(docs, preds, ("speaker", "speaker", "location"), mode=mode)

    @pytest.mark.parametrize("mode", ["slot", "occurrence"])
    def test_span_past_the_document_raises(self, mode):
        """Unchecked, slot mode would score the truncated filler, and both
        modes would count the span as produced."""
        quiet, _ = parse_tagged_document("no speaker today", "quiet", fields=FIELDS)
        docs = [parse("<speaker>li wu</speaker> presents"), quiet]
        for span in (TagSpan("speaker", 10**6, 10**6 + 2), TagSpan("speaker", 1, 3)):
            with pytest.raises(InvalidSpec, match=re.escape(f"quiet: predicted {span} ends")):
                score_documents(docs, [[], [span]], FIELDS, mode=mode)
        scores = score_documents(docs, [[], [TagSpan("speaker", 1, 2)]], FIELDS, mode=mode)
        assert scores["speaker"].produced == 1

    @pytest.mark.parametrize("mode", ["slot", "occurrence"])
    def test_a_prediction_that_is_not_a_sequence_of_spans_raises(self, mode, monkeypatch):
        """``None`` would raise a TypeError, a ``str`` an AttributeError
        on its first letter, and a list holding a non-span either; each is
        refused, naming the document, before any document is tallied, in
        the words a document refuses the same list as its gold spans."""
        quiet, _ = parse_tagged_document("no speaker today", "quiet", fields=FIELDS)
        docs = [parse("<speaker>li wu</speaker> presents"), quiet]
        monkeypatch.setattr(evaluation, "FieldScore", None)  # any tally would fail
        not_spans = (
            (None, "{} spans must be a sequence, not the NoneType None"),
            ("speaker", "{} spans must be a sequence, not the str 'speaker'"),
            ([TagSpan("speaker", 0, 1), (0, 1)], "a {} span must be a TagSpan, got tuple"),
            ([TagSpan("speaker", 1, 3)], "{} %s ends past its 3 tokens" % TagSpan("speaker", 1, 3)),
        )
        for bad, message in not_spans:
            with pytest.raises(InvalidSpec) as predicted:
                score_documents(docs, [[TagSpan("speaker", 0, 1)], bad], FIELDS, mode=mode)
            with pytest.raises(InvalidSpec) as gold:
                replace(quiet, gold_spans=bad)
            assert str(predicted.value) == "quiet: " + message.format("predicted")
            assert str(gold.value) == "quiet: " + message.format("gold")

    def test_macro_f1(self):
        scores = {
            "a": FieldScore(1, 1, 1),   # f1 = 1
            "b": FieldScore(2, 2, 1),   # f1 = 0.5
        }
        npt.assert_allclose(macro_f1(scores), 0.75)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", MATCH_MODES)
    def test_no_fields_are_refused_with_no_warning(self, mode):
        """An empty field list scored ``{}``, whose macro F1 was NaN after
        numpy's "Mean of empty slice" warning; both now refuse it, as
        ``TagSpace`` does."""
        doc = parse("<speaker>ann</speaker> talks")
        with pytest.raises(InvalidSpec, match="^fields must name at least one field$"):
            score_documents([doc], [doc.gold_spans], (), mode=mode)
        with pytest.raises(InvalidSpec, match="^scores must name at least one field$"):
            macro_f1({})

    def test_slot_filler_surfaces(self):
        doc = parse("meet in <location>wean hall 5409</location> now")
        assert slot_filler(doc, doc.gold_spans[0]) == "wean hall 5409"


def tallies(scores):
    return {f: (s.produced, s.truth, s.correct) for f, s in scores.items()}


def assert_same_tallies(docs, predictions, fields=FIELDS):
    """``score_documents`` tallies as its per-field reference does, in
    both match modes."""
    for mode in MATCH_MODES:
        got = score_documents(docs, predictions, fields, mode=mode)
        want = score_documents_reference(docs, predictions, fields, mode=mode)
        assert tallies(got) == tallies(want), mode


def hand_built(doc_id, pieces, gold=()):
    """A document of ``(surface, kind)`` tokens, one space apart."""
    tokens, at = [], 0
    for surface, kind in pieces:
        tokens.append(Token(surface, at, at + len(surface), kind))
        at += len(surface) + 1
    return Document(doc_id, " ".join(s for s, _ in pieces), tuple(tokens), tuple(gold))


# equal surfaces of different kinds, and a surface that holds a space
PIECES = (("3", "number"), ("3", "mixed"), ("pm", "word"), ("pm", "symbol"),
          ("3 pm", "mixed"), ("ann", "word"))


@st.composite
def scored_documents(draw):
    """Hand-built documents from :data:`PIECES`, gold spans and
    predictions inside each, some of a field that is not scored."""
    docs, predictions = [], []
    for i in range(draw(st.integers(0, 4))):
        pieces = draw(st.lists(st.sampled_from(PIECES), max_size=6))

        def spans():
            if not pieces:
                return []
            bounds = st.tuples(st.integers(0, len(pieces) - 1), st.integers(0, len(pieces) - 1))
            drawn = draw(st.lists(
                st.tuples(st.sampled_from(("speaker", "stime", "other")), bounds), max_size=4
            ))
            return [TagSpan(f, min(b), max(b)) for f, b in drawn]

        docs.append(hand_built(f"h{i}", pieces, spans()))
        predictions.append(spans())
    return docs, predictions


class TestScoreMatchesReference:
    """The tally of ``score_documents`` equals its reference's, which
    builds every filler string, where token bounds and fillers agree and
    where they do not."""

    def test_generated_documents_with_perturbed_predictions(self):
        docs = generate_corpus(60, 7)
        rng = np.random.default_rng(0)
        predictions = []
        for doc in docs:
            n, spans = len(doc), []
            for s in doc.gold_spans:
                move = rng.integers(5)
                if move == 1:  # other bounds, maybe the same filler elsewhere
                    start = int(rng.integers(n))
                    s = TagSpan(s.field, start, min(n - 1, start + s.end_token - s.start_token))
                elif move == 2:
                    s = TagSpan(FIELDS[rng.integers(len(FIELDS))], s.start_token, s.end_token)
                elif move == 3:
                    continue
                spans.append(s)
            predictions.append(spans)
        assert_same_tallies(docs, predictions)
        assert_same_tallies(docs, [doc.gold_spans for doc in docs])
        assert_same_tallies(docs, [[] for _ in docs])

    def test_equal_surfaces_of_different_kinds(self):
        # "3 pm" twice: its tokens differ in kind, so in type id, not in filler
        doc = hand_built(
            "kinds", [("3", "number"), ("pm", "word"), ("at", "word"), ("3", "mixed"),
                      ("pm", "symbol")], [TagSpan("stime", 0, 1)]
        )
        predictions = [[TagSpan("stime", 3, 4)]]
        assert_same_tallies([doc], predictions)
        assert tallies(score_documents([doc], predictions, FIELDS))["stime"] == (1, 1, 1)
        got = score_documents([doc], predictions, FIELDS, mode="occurrence")
        assert tallies(got)["stime"] == (1, 1, 0)

    def test_a_surface_that_holds_a_space(self):
        # one token "3 pm" and two tokens "3", "pm" have one filler
        doc = hand_built(
            "space", [("3 pm", "mixed"), ("to", "word"), ("3", "number"), ("pm", "word")],
            [TagSpan("stime", 0, 0), TagSpan("etime", 2, 3)],
        )
        predictions = [[TagSpan("stime", 2, 3), TagSpan("etime", 0, 0)]]
        assert_same_tallies([doc], predictions)
        scores = tallies(score_documents([doc], predictions, FIELDS))
        assert scores["stime"] == scores["etime"] == (1, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(scored_documents())
    def test_hand_built_documents(self, drawn):
        assert_same_tallies(*drawn)
        assert_same_tallies(*drawn, fields=("stime", "speaker"))


SPEAKER_TEXT = "<speaker>ann blake</speaker> talks"

STRING_FOR_SEQUENCE = {
    "raws as a str": ("raws", lambda: parse_tagged_documents("ab", ["d0", "d1"])),
    "raws as bytes": ("raws", lambda: parse_tagged_documents(b"ab", ["d0", "d1"])),
    "doc_ids as a str": ("doc_ids", lambda: parse_tagged_documents(["a", "b"], "xy")),
    "doc_ids as bytes": ("doc_ids", lambda: parse_tagged_documents(["a", "b"], b"xy")),
    "both as str": ("raws", lambda: parse_tagged_documents("ab", "xy")),
    "parse fields": (
        "fields", lambda: parse_tagged_documents([SPEAKER_TEXT], ["d"], fields="speaker")
    ),
    "parse one fields": ("fields", lambda: parse_tagged_document(SPEAKER_TEXT, fields="speaker")),
    "score fields as a str": (
        "fields", lambda: score_documents([parse(SPEAKER_TEXT)], [[]], "speaker")
    ),
    "score fields as bytes": (
        "fields", lambda: score_documents([parse(SPEAKER_TEXT)], [[]], b"speaker")
    ),
    "split a str": ("corpus", lambda: split("abcd", SplitPlan(runs=1))),
    "split bytes": ("corpus", lambda: split(b"abcd", SplitPlan(runs=1))),
}


@pytest.mark.parametrize("case", STRING_FOR_SEQUENCE)
def test_a_string_where_a_sequence_belongs_is_refused(case):
    """A ``str`` or ``bytes`` iterates as its characters, so each of these
    calls would parse, score or split one item per letter."""
    name, call = STRING_FOR_SEQUENCE[case]
    with pytest.raises(InvalidSpec, match=f"^{name} must be a sequence, not the "):
        call()


def set_lemma(obs, code):
    """A copy of ``obs`` whose first token has lemma code ``code``."""
    out = obs.copy()
    out[0, 0] = code
    return out


BAD_OBSERVATIONS = [
    pytest.param(lambda obs: set_lemma(obs, 5), id="code-past-cardinality"),
    pytest.param(lambda obs: obs[:, :1], id="too-few-columns"),
    pytest.param(lambda obs: obs[:, 0], id="one-dimensional"),
    pytest.param(lambda obs: np.hstack([obs, obs[:, :1]]), id="extra-column"),
    pytest.param(lambda obs: set_lemma(obs, -2), id="code-below-masked"),
    pytest.param(lambda obs: obs.astype(float), id="float-codes"),
]


class TestDecode:
    def test_decode_matches_assembly_of_its_own_tags(self):
        rng = np.random.default_rng(11)
        model = randomize_model(
            build_model(("speaker", "location"), {"lemma": 5, "case": 3}), rng
        )
        chain = compile_chain(model)
        example = sample_example(model, 12, rng)
        result = decode(chain, example.obs)
        assert result.tags.shape == (12,)
        assert result.ds.shape == (12,)
        assert np.isfinite(result.score)
        spans, diag = assemble_slots(result.tags, model.tags)
        assert result.spans == spans
        assert result.diagnostics == diag

    @pytest.mark.parametrize("memory", [True, False])
    def test_decode_batch_matches_decode(self, memory, monkeypatch):
        """Byte for byte, on the 42-state chain and the 34-state one, for
        batches longer than one chunk of 32: sampled, with a column masked as
        an ablation masks it, with that column and every other code of the
        next masked, with every row the same, with every row distinct, and
        with every third document empty."""
        monkeypatch.setattr(inference, "_BATCH_DOCS", 32)
        rng = np.random.default_rng(13)
        model = build_model(FIELDS, {"lemma": 1200, "case": 3}, memory=memory)
        model = randomize_model(model, rng)
        chain = compile_chain(model)
        assert chain.n_states == (42 if memory else 34)
        sampled = [sample_example(model, T, rng).obs for T in rng.integers(1, 30, size=40)]
        sampled[5] = sampled[5][:0]
        masked = [obs.copy() for obs in sampled]
        for obs in masked:
            obs[:, 0] = -1
        both = [obs.copy() for obs in masked]
        for obs in both:
            obs[::2, 1] = -1
        same = [np.broadcast_to(sampled[0][:1], obs.shape).copy() for obs in sampled]
        distinct = [obs.copy() for obs in sampled]
        ends = np.cumsum([len(obs) for obs in distinct])
        for obs, end in zip(distinct, ends):
            obs[:, 0] = np.arange(end - len(obs), end)
        assert len(np.unique(np.concatenate(distinct), axis=0)) == ends[-1]
        empty = [obs if i % 3 else obs[:0] for i, obs in enumerate(sampled)]
        for obs_list in (sampled, masked, both, same, distinct, empty):
            assert len(obs_list) > inference._BATCH_DOCS
            got = decode_matrices(chain, obs_list)
            assert len(got) == len(obs_list)
            for result, obs in zip(got, obs_list):
                want = decode(chain, obs)
                assert result.tags.tobytes() == want.tags.tobytes()
                assert result.ds.tobytes() == want.ds.tobytes()
                assert np.float64(result.score).tobytes() == np.float64(want.score).tobytes()
                assert result.spans == want.spans
                assert result.diagnostics == want.diagnostics
        assert [r.tags.shape for r in decode_matrices(chain, [sampled[5]] * 3)] == [(0,)] * 3
        assert decode_matrices(chain, []) == []

    def test_decode_batch_keys_rows_past_two_to_the_63(self):
        """Nine columns of 256 digits (255 codes and the mask) need a key
        of 2**72. Without a re-rank the first column would shift out of
        an int64 key, and rows that differ only there would share one
        emission row."""
        rng = np.random.default_rng(14)
        cards = {f"c{i}": 255 for i in range(9)}
        assert 256 ** len(cards) > 2**63
        model = randomize_model(build_model(FIELDS[:2], cards), rng)
        chain = compile_chain(model)
        pool = rng.integers(-1, 255, size=(60, len(cards)))
        pool[1::2, 1:] = pool[::2, 1:]  # pairs of rows that differ only in column 0
        obs_list = [pool[rng.integers(0, len(pool), size=T)] for T in (9, 0, 14, 5, 11)]
        numbered = number_matrices(obs_list, list(cards.values()))
        table = chain.log_emission(numbered.table)
        assert len(table) == len(np.unique(np.concatenate(obs_list), axis=0))
        rows = np.split(numbered.rows, np.cumsum(numbered.lengths)[:-1])
        for obs, r in zip(obs_list, rows, strict=True):
            assert table[r].tobytes() == chain.log_emission(obs).tobytes()
        for result, obs in zip(decode_matrices(chain, obs_list), obs_list, strict=True):
            want = decode(chain, obs)
            assert result.tags.tobytes() == want.tags.tobytes()
            assert np.float64(result.score).tobytes() == np.float64(want.score).tobytes()

    @pytest.mark.parametrize("text", ["", " \n\t \n"], ids=["empty", "whitespace"])
    def test_empty_document(self, text):
        lexicons = default_lexicons()
        gazetteer = Gazetteer({"talk": 1}, lexicons.lemma_table)
        model = build_model(FIELDS, feature_cardinalities(gazetteer))
        obs = featurize(parse(text), gazetteer, lexicons)
        result = decode(compile_chain(model), obs)
        assert result.tags.shape == (0,)
        assert result.score == 0.0
        assert result.spans == []
        assert result.diagnostics == {"unterminated": 0, "orphan_inside": 0, "orphan_end": 0}

    @pytest.mark.parametrize("bad", BAD_OBSERVATIONS)
    def test_bad_observation_matrix_is_a_typed_error(self, bad):
        rng = np.random.default_rng(12)
        model = randomize_model(
            build_model(("speaker", "location"), {"lemma": 5, "case": 3}), rng
        )
        obs = sample_example(model, 6, rng).obs
        with pytest.raises(InvalidSpec):
            decode(compile_chain(model), bad(obs))

    @pytest.mark.parametrize("bad", BAD_OBSERVATIONS)
    def test_bad_stack_raises_what_decode_raises(self, bad):
        """A malformed stack of matrices raises, when numbered, the error
        ``decode`` raises for it, never a numpy error."""
        rng = np.random.default_rng(15)
        model = randomize_model(
            build_model(("speaker", "location"), {"lemma": 5, "case": 3}), rng
        )
        chain = compile_chain(model)
        stack = bad(np.concatenate([sample_example(model, T, rng).obs for T in (6, 0, 3, 8)]))
        with pytest.raises(InvalidSpec) as want:
            decode(chain, stack)
        with pytest.raises(InvalidSpec) as got:
            number_observations(stack, [len(stack)], [5, 3])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("lengths, match", [
        ([6, 0, 3], "do not split 17 observation rows"),
        ([6, 0, 3, 9], "do not split 17 observation rows"),
        ([6, 4, -1, 8], re.escape("lengths must be 1-D integers in 0 .. 17, got -1 at [2]")),
        # their int64 sum wraps around to 17
        ([2**62, 2**62, 2**62, 2**62 + 17],
         re.escape(f"lengths must be 1-D integers in 0 .. 17, got {2**62} at [0]")),
    ])
    def test_lengths_that_do_not_split_the_stack_raise(self, lengths, match):
        rng = np.random.default_rng(16)
        model = build_model(("speaker", "location"), {"lemma": 5, "case": 3})
        stack = np.concatenate([sample_example(model, T, rng).obs for T in (6, 0, 3, 8)])
        with pytest.raises(InvalidSpec, match=match):
            number_observations(stack, lengths, [5, 3])

    @pytest.mark.parametrize("lengths", [[2.9, 3.1], [[2, 2]]], ids=["float", "2-d"])
    def test_lengths_that_are_not_integers_raise(self, lengths):
        """Float lengths would be truncated to 2 + 3, and a 2-D list would
        raise a TypeError."""
        rng = np.random.default_rng(16)
        model = build_model(("speaker", "location"), {"lemma": 5, "case": 3})
        stack = sample_example(model, 5, rng).obs
        rule = re.escape("lengths must be 1-D integers in 0 .. 5, got ")
        with pytest.raises(InvalidSpec, match=rule):
            number_observations(stack, lengths, [5, 3])

    @pytest.mark.parametrize("cardinalities", [[5, 3.5], [5, [3]], [[5, 3]]],
                             ids=["float", "ragged", "2-d"])
    def test_cardinalities_that_are_not_integers_raise(self, cardinalities):
        """A float cardinality keyed codes past its radix, so that the rows
        (-1, 3) and (0, -1) got one row number under ``[5, 3.5]``; a ragged
        list raised numpy's own error."""
        stack = np.array([[-1, 3], [0, -1]])
        rule = "^cardinalities must be 1-D integers of at least 1, got "
        with pytest.raises(InvalidSpec, match=rule):
            number_observations(stack, [2], cardinalities)

    @pytest.mark.parametrize("entry", ["log_emission", "number_observations", "decode"])
    def test_a_model_with_no_observables(self, entry):
        """A (T, 0) matrix emits nothing: every state scores 0 at every
        token, and the decoded path follows the transitions alone."""
        model = randomize_model(build_model(FIELDS[:2], {}), np.random.default_rng(17))
        chain = compile_chain(model)
        obs = np.zeros((5, 0), dtype=np.int16)
        want_path, want_score = viterbi_reference(chain, inference.Evidence(obs))
        if entry == "log_emission":
            assert chain.log_emission(obs).tobytes() == np.zeros((5, chain.n_states)).tobytes()
        elif entry == "number_observations":
            numbered = number_observations(obs, [5, 0], [])
            assert numbered.table.shape == (1, 0)
            npt.assert_array_equal(numbered.rows, np.zeros(5))
            [full, empty] = decode_batch(chain, numbered)
            npt.assert_array_equal(full.tags, chain.tag_of[want_path])
            assert np.float64(full.score).tobytes() == np.float64(want_score).tobytes()
            assert empty.tags.shape == (0,)
        else:
            result = decode(chain, obs)
            npt.assert_array_equal(result.tags, chain.tag_of[want_path])
            assert np.float64(result.score).tobytes() == np.float64(want_score).tobytes()


class TestSharedTestSide:
    @pytest.mark.parametrize("memory", [True, False], ids=["memory", "no-memory"])
    def test_masks_on_one_numbering_decode_as_masked_matrices(self, memory):
        """A featurized test side, numbered once by its distinct rows,
        decodes with each variant's masked model as its masked matrices
        decode with the unmasked one: tags, segments, spans and score
        bytes."""
        docs = generate_corpus(50, 6)
        lexicons = default_lexicons()
        gaz = build_gazetteer(docs[:30], lexicons.lemma_table)
        cards = feature_cardinalities(gaz)
        model = randomize_model(build_model(FIELDS, cards, memory=memory),
                                np.random.default_rng(17))
        chain = compile_chain(model)
        obs_list = [featurize(doc, gaz, lexicons) for doc in docs[30:]]
        numbered = number_matrices(obs_list, list(cards.values()))
        for mask in dict.fromkeys(row["mask"] for row in evaluation.ABLATIONS.values()):
            got = decode_batch(compile_chain(model.masked(mask)), numbered)
            want = decode_matrices(chain, [apply_mask(obs, mask) for obs in obs_list])
            assert len(got) == len(want) == len(obs_list)
            for a, b in zip(got, want):
                assert a.tags.tobytes() == b.tags.tobytes()
                assert a.ds.tobytes() == b.ds.tobytes()
                assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()
                assert (a.spans, a.diagnostics) == (b.spans, b.diagnostics)

    def test_a_masked_chain_ignores_what_its_masked_columns_hold(self):
        """A masked model's chain decodes observations as it decodes them
        with the masked column all -1, one matrix at a time and batched:
        tags, segments, spans and score bytes."""
        rng = np.random.default_rng(24)
        model = randomize_model(build_model(FIELDS[:2], {"u": 3, "v": 2}), rng)
        chain = compile_chain(model.masked(("v",)))
        obs_list = [sample_example(model, T, rng).obs for T in (1, 5, 9, 30)]
        blanked = [obs.copy() for obs in obs_list]
        for obs in blanked:
            obs[:, 1] = -1
        pairs = [(decode(chain, obs), decode(chain, blank)) for obs, blank in zip(obs_list, blanked)]
        pairs += zip(decode_matrices(chain, obs_list), decode_matrices(chain, blanked), strict=True)
        for a, b in pairs:
            assert a.tags.tobytes() == b.tags.tobytes()
            assert a.ds.tobytes() == b.ds.tobytes()
            assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()
            assert (a.spans, a.diagnostics) == (b.spans, b.diagnostics)

    def test_numbered_rows_are_checked_against_the_chain(self):
        """A code past the chain's cardinality, and a row number that is
        negative (which would read the table's last row), past the table
        or not an integer."""
        rng = np.random.default_rng(19)
        model = randomize_model(build_model(FIELDS[:2], {"lemma": 5, "case": 3}), rng)
        chain = compile_chain(model)
        obs_list = [sample_example(model, T, rng).obs for T in (4, 7)]
        numbered = number_matrices(obs_list, [9, 3])  # numbered for a larger gazetteer
        table, rows, lengths = numbered.table, numbered.rows, numbered.lengths
        for bad_table, bad_rows, match in (
            (set_lemma(table, 7), rows,
             re.escape("observations must be 2-D integers in -1 .. [4, 2] by column, got 7 at [0, 0]")),
            (table, np.r_[rows[:-1], -1], "row numbers"),
            (table, np.r_[rows[:-1], len(table)], "row numbers"),
            (table, rows.astype(float), "row numbers"),
        ):
            with pytest.raises(InvalidSpec, match=match):
                decode_batch(chain, model_module.ObservationRows(bad_table, bad_rows, lengths))

    def test_anything_but_observation_rows_is_refused(self):
        """``None``, or the list of matrices that ``decode_matrices``
        numbers, would raise an AttributeError on ``table``."""
        rng = np.random.default_rng(20)
        model = randomize_model(build_model(FIELDS[:2], {"lemma": 5, "case": 3}), rng)
        chain = compile_chain(model)
        obs = sample_example(model, 4, rng).obs
        for bad, name in ((None, "NoneType"), ([obs], "list")):
            with pytest.raises(InvalidSpec, match=f"^numbered must be an ObservationRows, got {name}$"):
                decode_batch(chain, bad)


class TestGoldenDecode:
    """Every decoded tag, segment and score of the 5 holdout runs of the
    default experiment on ``generate_corpus(485, 1993)``, in run and
    document order, pinned bit for bit by one sha256. Any change to the
    arithmetic of the decode shows here."""

    def test_experiment_decodes(self, monkeypatch):
        h = hashlib.sha256()
        decode_batch = evaluation.decode_batch

        def hashed(chain, obs_list):
            results = decode_batch(chain, obs_list)
            for r in results:
                h.update(r.tags.tobytes())
                h.update(r.ds.tobytes())
                h.update(np.float64(r.score).tobytes())
            return results

        monkeypatch.setattr(evaluation, "decode_batch", hashed)
        result = run_experiment(generate_corpus(485, 1993), ExperimentConfig())
        assert len(result.runs) == 5
        assert h.hexdigest() == "d0da3aabc44f5945e631ab0a29b91c9b767ab8ac693c35e5fe4c8eec15d930b4"

    def test_ablation_grid(self, monkeypatch):
        """The ablation grid on one split of ``generate_corpus(485, 1993)``,
        pinned by one sha256: per variant, in table order, every decoded
        tag, segment and score, every run's tallies and the final model's
        tables. So the masked variants and the 34-state ``no memory``
        chain are pinned as ``complete`` is above."""
        decoded = []  # per decode_batch call, the bytes of its results
        decode_batch = evaluation.decode_batch

        def hashed(chain, numbered):
            results = decode_batch(chain, numbered)
            decoded.append(b"".join(
                r.tags.tobytes() + r.ds.tobytes() + np.float64(r.score).tobytes()
                for r in results
            ))
            return results

        monkeypatch.setattr(evaluation, "decode_batch", hashed)
        cfg = replace(ExperimentConfig(), plan=SplitPlan(runs=1))
        results = run_ablations(generate_corpus(485, 1993), cfg)
        assert list(results) == list(evaluation.ABLATIONS) and len(decoded) == len(results)
        h = hashlib.sha256()
        for result, decodes in zip(results.values(), decoded):
            h.update(decodes)
            for run in result.runs:
                tallies = [(f, s.produced, s.truth, s.correct) for f, s in run.scores.items()]
                h.update(repr(tallies).encode())
            for name in sorted(result.model.cpts):
                h.update(name.encode())
                h.update(result.model.cpts[name].table.tobytes())
        assert h.hexdigest() == "3fe2be7fe47c388a4039f09737e7d4ce0b2c5519b3c9c3549995460c8ed99f94"

    def test_documents_decode_one_at_a_time(self):
        """``decode`` of the final model, one unseen document at a time:
        150 documents of ``generate_corpus(150, 1994)`` after three
        degenerate ones (empty, whitespace only, punctuation only)."""
        result = run_experiment(generate_corpus(485, 1993), ExperimentConfig())
        chain = compile_chain(result.model)
        lexicons = default_lexicons()
        degenerate = ("", " \n\t \n", "-- ... --\n*** !!! ***\n")
        docs = [parse_tagged_document(text, doc_id=f"d{k}")[0] for k, text in enumerate(degenerate)]
        docs += generate_corpus(150, 1994)
        h = hashlib.sha256()
        for doc in docs:
            obs = featurize(doc, result.gazetteer, lexicons, mask=result.config.mask)
            try:
                r = decode(chain, obs)
            except Exception as exc:  # noqa: BLE001 - a raised error is pinned too
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            h.update(r.tags.tobytes())
            h.update(r.ds.tobytes())
            h.update(repr(r.spans).encode())
            h.update(np.float64(r.score).tobytes())
        assert h.hexdigest() == "07821a0da58851b43a231f8aa6d785e60cd8a4ae3f433af4536d38967c8df2fa"


# ---------------------------------------------------------------------------
# Experiment protocol on a tiny deterministic corpus
# ---------------------------------------------------------------------------

SPEAKERS = ["ann blake", "li wu", "joe tan", "may ling", "bo chen", "ada park"]
PLACES = ["wean hall", "baker hall", "porter room", "doherty lounge"]
HOURS = ["3", "4", "5", "noon", "10", "2"]


def tiny_corpus(n_docs=36, seed=5):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        who = SPEAKERS[rng.integers(len(SPEAKERS))]
        where = PLACES[rng.integers(len(PLACES))]
        when = HOURS[rng.integers(len(HOURS))]
        text = (
            f"who : <speaker>{who}</speaker> . "
            f"place : <location>{where}</location> . "
            f"time : <stime>{when} pm</stime> ."
        )
        doc, _ = parse_tagged_document(text, f"t{i:03d}", fields=FIELDS[:3])
        docs.append(doc)
    return docs


def tiny_config(runs=2, train_fraction=0.75):
    return ExperimentConfig(
        fields=FIELDS[:3],
        plan=SplitPlan(train_fraction=train_fraction, runs=runs, seed=9),
        train=TrainConfig(alpha=0.1, max_iter=6, tol=1e-3, seed=1),
        gazetteer_min_freq=2,
    )


def assert_same_experiment(a, b):
    """Every run's result and every final table of ``a`` and ``b`` agree exactly."""
    assert a.config == b.config
    assert len(a.runs) == len(b.runs)
    for x, y in zip(a.runs, b.runs):
        assert (x.run, x.scores, x.macro) == (y.run, y.scores, y.macro)
        assert (x.log_likelihood, x.iterations, x.converged) == (
            y.log_likelihood, y.iterations, y.converged
        )
        assert (x.diagnostics, x.n_train, x.n_test) == (y.diagnostics, y.n_train, y.n_test)
    # observables in column order: two dicts compare equal in any order
    assert (a.model.fields, a.model.memory, list(a.model.observables.items()), a.model.mask) == (
        b.model.fields, b.model.memory, list(b.model.observables.items()), b.model.mask
    )
    assert sorted(a.model.cpts) == sorted(b.model.cpts)
    for name, cpt in a.model.cpts.items():
        assert np.array_equal(cpt.table, b.model.cpts[name].table), name


class TestExperimentProtocol:
    def test_smoke_run(self):
        result = run_experiment(tiny_corpus(), tiny_config())
        assert len(result.runs) == 2
        for run in result.runs:
            assert set(run.scores) == set(FIELDS[:3])
            assert run.n_train == 27 and run.n_test == 9
            assert len(run.log_likelihood) >= 1
            for s in run.scores.values():
                assert 0.0 <= s.f1 <= 1.0
        # strongly cued tiny corpus: the protocol should actually learn it
        assert result.mean("stime", "f1") > 0.5

    def test_mean_macro_is_the_mean_of_the_runs(self):
        cfg = ExperimentConfig(plan=SplitPlan(runs=3), gazetteer_min_freq=2)
        result = run_experiment(generate_corpus(30, 3), cfg)
        macros = [run.macro for run in result.runs]
        assert len(set(macros)) == 3
        assert result.mean_macro() == np.mean(macros)

    def test_jobs_do_not_change_results(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        assert_same_experiment(
            run_experiment(corpus, cfg, jobs=1), run_experiment(corpus, cfg, jobs=2)
        )

    def test_duplicate_document_ids_raise(self):
        corpus = tiny_corpus()
        corpus[7] = replace(corpus[7], id=corpus[20].id)
        with pytest.raises(InvalidSpec, match="'t020'"):
            run_experiment(corpus, tiny_config(runs=1))

    def test_corpus_order_does_not_change_results(self):
        corpus = tiny_corpus()
        cfg = tiny_config(runs=1)
        a = run_experiment(corpus, cfg)
        b = run_experiment(list(reversed(corpus)), cfg)
        assert_same_experiment(a, b)
        assert a.gazetteer == b.gazetteer

    def test_ablation_grid(self):
        results = run_ablations(tiny_corpus(), tiny_config(runs=1))
        assert list(results) == list(evaluation.ABLATIONS)
        assert results["complete"].config.mask == ()
        assert results["no lemma"].config.mask == ("lemma",)
        assert results["no lemma"].config.memory is True

    def test_no_memory_variant_flips_structure(self):
        results = run_ablations(tiny_corpus(), tiny_config(runs=1))
        assert results["no memory"].model.memory is False

    def test_ablation_variants_match_their_own_experiments(self):
        corpus, cfg = tiny_corpus(), tiny_config(runs=2)
        grid = run_ablations(corpus, cfg)
        assert list(grid) == list(evaluation.ABLATIONS)
        for got in grid.values():
            alone = run_experiment(corpus, got.config)
            assert_same_experiment(got, alone)
            assert got.gazetteer == alone.gazetteer

    def test_ablation_jobs_do_not_change_results(self):
        corpus, cfg = tiny_corpus(), tiny_config(runs=2)
        serial = run_ablations(corpus, cfg, jobs=1)
        parallel = run_ablations(corpus, cfg, jobs=2)
        assert list(serial) == list(parallel)
        for name in serial:
            assert_same_experiment(serial[name], parallel[name])

    def test_unknown_mask_name_raises_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the mask was checked")

        monkeypatch.setattr(evaluation, "build_gazetteer", no_work)
        monkeypatch.setattr(evaluation, "train", no_work)
        cfg = replace(tiny_config(runs=1), mask=("bogus",))
        with pytest.raises(InvalidSpec, match="bogus"):
            run_experiment(tiny_corpus(), cfg)

    @pytest.mark.parametrize("variants, runs, packings, numberings", [
        (None, 1, 2, 1),
        (("complete",), 2, 2, 2),
        (("no memory", "no lemma", "no case"), 1, 2, 1),
        (("complete", "no memory", "no case"), 1, 2, 1),
    ], ids=["grid", "experiment", "structures-interleaved", "structure-returns"])
    def test_one_packing_per_structure_and_one_numbering_per_split(
        self, monkeypatch, variants, runs, packings, numberings
    ):
        """Per split, the training side is packed once per model structure
        and the test side numbered once; ``run_experiment`` is the
        one-config case. No packing is alive when the next one is built.
        Neither a packing nor the training examples are alive while a test
        side decodes, and a decode lays the side out once. The grid's
        table has no config order whose structures interleave or return,
        so those orders run through ``_run_variants`` itself."""
        built, numbered, alive = [], [], set()
        layouts = []  # per decode_batch call, the layouts it built
        examples_alive = set()

        class Counted(learning._FactoredBatch):
            def __init__(self, model, examples):
                assert not alive, "a packing is still alive"
                built.append(model.memory)
                alive.add(len(built))
                weakref.finalize(self, alive.discard, len(built))
                super().__init__(model, examples)

        def counted(*args):
            numbered.append(args)
            return number_observations(*args)

        class Layout(inference.TimeMajor):
            def __init__(self, lengths):
                layouts[-1] += 1
                super().__init__(lengths)

        def make_examples(*args):
            examples = learning.make_examples(*args)
            examples_alive.add(id(examples))
            weakref.finalize(examples, examples_alive.discard, id(examples))
            return examples

        def decoding(chain, numbered):
            assert not alive, "a packing is alive while a test side decodes"
            assert not examples_alive, "training examples are alive while a test side decodes"
            layouts.append(0)
            return decode_batch(chain, numbered)

        monkeypatch.setattr(learning, "_FactoredBatch", Counted)
        monkeypatch.setattr(evaluation, "number_observations", counted)
        monkeypatch.setattr(model_module, "number_observations", counted)
        monkeypatch.setattr(evaluation, "decode_batch", decoding)
        monkeypatch.setattr(evaluation, "make_examples", make_examples)
        monkeypatch.setattr(inference, "TimeMajor", Layout)
        corpus, cfg = tiny_corpus(), tiny_config(runs=runs)
        if variants is None:
            run_ablations(corpus, cfg)
        elif variants == ("complete",):
            run_experiment(corpus, cfg)
        else:
            cfgs = [replace(cfg, **evaluation.ABLATIONS[name]) for name in variants]
            evaluation._run_variants(corpus, cfgs, 1)
        assert len(built) == packings and len(numbered) == numberings
        n_configs = len(evaluation.ABLATIONS if variants is None else variants)
        assert layouts == [1] * (n_configs * runs)
        if variants is None:
            assert built == [True, False]

    def test_each_side_is_featurized_in_one_pass(self, monkeypatch):
        """A split of ``run_experiment`` featurizes its training side and its
        test side with one ``featurize_docs`` call each, and calls the
        per-document ``featurize`` for neither."""
        per_document, sides = [], []

        def featurize(*args, **kwargs):
            per_document.append(args[0].id)
            return features_module.featurize(*args, **kwargs)

        def featurize_docs(docs, *args, **kwargs):
            sides.append([doc.id for doc in docs])
            return features_module.featurize_docs(docs, *args, **kwargs)

        for module in (evaluation, learning, features_module):
            monkeypatch.setattr(module, "featurize", featurize)
        for module in (evaluation, learning):
            monkeypatch.setattr(module, "featurize_docs", featurize_docs)
        corpus, cfg = tiny_corpus(), tiny_config(runs=2)
        result = run_experiment(corpus, cfg)
        assert per_document == []
        assert [len(side) for side in sides] == [27, 9] * 2
        assert [r.n_train + r.n_test for r in result.runs] == [36, 36]
        for train_ids, test_ids in zip(sides[::2], sides[1::2]):
            assert sorted(train_ids + test_ids) == sorted(doc.id for doc in corpus)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", None, True])
    def test_bad_jobs_raises_before_any_work(self, monkeypatch, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before jobs was checked")

        monkeypatch.setattr(evaluation, "split", no_work)
        monkeypatch.setattr(evaluation, "default_lexicons", no_work)
        cfg = tiny_config(runs=1)
        named = re.escape(f"jobs must be an int >= 1, got {jobs!r}")
        with pytest.raises(InvalidSpec, match=named):
            run_ablations(tiny_corpus(), cfg, jobs=jobs)
        with pytest.raises(InvalidSpec, match="jobs"):
            run_experiment(tiny_corpus(), cfg, jobs=jobs)

    def test_bad_match_mode_raises_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the match mode was checked")

        monkeypatch.setattr(evaluation, "split", no_work)
        monkeypatch.setattr(evaluation, "train", no_work)
        cfg = replace(tiny_config(runs=1), match_mode="bogus")
        with pytest.raises(InvalidSpec, match="bogus"):
            run_experiment(tiny_corpus(), cfg)

    @pytest.mark.parametrize("setting, value", [
        ("gazetteer_window", -5), ("gazetteer_max_size", 0),
        ("gazetteer_min_freq", "3"), ("gazetteer_min_freq", None), ("gazetteer_min_freq", 0),
        ("fields", ()), ("fields", ("speaker", "location", "speaker")), ("fields", (1, 2)),
    ])
    def test_bad_setting_raises_before_any_work(self, monkeypatch, setting, value):
        def no_work(*args, **kwargs):
            raise AssertionError(f"work started before {setting} was checked")

        monkeypatch.setattr(evaluation, "split", no_work)
        monkeypatch.setattr(evaluation, "default_lexicons", no_work)
        cfg = replace(tiny_config(runs=1), **{setting: value})
        with pytest.raises(InvalidSpec, match=setting.removeprefix("gazetteer_")):
            run_ablations(tiny_corpus(), cfg)
        with pytest.raises(InvalidSpec, match=setting.removeprefix("gazetteer_")):
            run_experiment(tiny_corpus(), cfg)

    @pytest.mark.parametrize("setting, value, kind", [
        ("train", None, "TrainConfig"), ("train", {"max_iter": 3}, "TrainConfig"),
        ("plan", None, "SplitPlan"), ("plan", (0.75, 1, 9), "SplitPlan"),
    ], ids=["train-none", "train-dict", "plan-none", "plan-tuple"])
    def test_bad_plan_or_train_raises_before_any_work(self, monkeypatch, setting, value, kind):
        def no_work(*args, **kwargs):
            raise AssertionError(f"work started before {setting} was checked")

        monkeypatch.setattr(evaluation, "split", no_work)
        monkeypatch.setattr(evaluation, "default_lexicons", no_work)
        cfg = replace(tiny_config(runs=1), **{setting: value})
        named = re.escape(
            f"ExperimentConfig.{setting} must be a {kind}, got {type(value).__name__}"
        )
        with pytest.raises(InvalidSpec, match=named):
            run_ablations(tiny_corpus(), cfg)
        with pytest.raises(InvalidSpec, match=named):
            run_experiment(tiny_corpus(), cfg)

    def test_run_reports_em_iterations(self):
        cfg = tiny_config(runs=1)
        cfg = replace(cfg, train=replace(cfg.train, max_iter=1))
        (run,) = run_experiment(tiny_corpus(), cfg).runs
        assert run.iterations == 1 and run.converged is False
        assert len(run.log_likelihood) == 1
