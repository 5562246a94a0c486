"""Span assembly, scoring, and the experiment protocol."""

import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from bien.corpus import SplitPlan, TagSpan, parse_tagged_document
from bien.errors import InvalidSpec
from bien.evaluation import (
    FieldScore,
    assemble_slots,
    decode,
    decode_batch,
    macro_f1,
    run_ablations,
    run_experiment,
    score_documents,
    slot_filler,
    ExperimentConfig,
)
from bien.features import Gazetteer, default_lexicons, feature_cardinalities, featurize
from bien.learning import TrainConfig, encode_tags
from bien.model import build_model, compile_chain

from oracles import assemble_slots_reference, randomize_model, sample_example


FIELDS = ("speaker", "location", "stime", "etime")


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
            tags = encode_tags(doc, space)
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

    def test_add(self):
        s = FieldScore(1, 2, 1)
        s.add(FieldScore(3, 4, 2))
        assert (s.produced, s.truth, s.correct) == (4, 6, 3)


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

    def test_macro_f1(self):
        scores = {
            "a": FieldScore(1, 1, 1),   # f1 = 1
            "b": FieldScore(2, 2, 1),   # f1 = 0.5
        }
        npt.assert_allclose(macro_f1(scores), 0.75)

    def test_slot_filler_surfaces(self):
        doc = parse("meet in <location>wean hall 5409</location> now")
        assert slot_filler(doc, doc.gold_spans[0]) == "wean hall 5409"


def set_lemma(obs, code):
    """A copy of ``obs`` whose first token has lemma code ``code``."""
    out = obs.copy()
    out[0, 0] = code
    return out


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
    def test_decode_batch_matches_decode(self, memory):
        rng = np.random.default_rng(13)
        model = randomize_model(build_model(FIELDS, {"lemma": 5, "case": 3}, memory=memory), rng)
        chain = compile_chain(model)
        obs_list = [sample_example(model, T, rng).obs for T in rng.integers(1, 30, size=40)]
        obs_list[5] = obs_list[5][:0]
        got = decode_batch(chain, obs_list)
        assert len(got) == len(obs_list)
        for result, obs in zip(got, obs_list):
            want = decode(chain, obs)
            npt.assert_array_equal(result.tags, want.tags)
            npt.assert_array_equal(result.ds, want.ds)
            assert result.score == want.score
            assert result.spans == want.spans
            assert result.diagnostics == want.diagnostics

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

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda obs: set_lemma(obs, 5), id="code-past-cardinality"),
            pytest.param(lambda obs: obs[:, :1], id="too-few-columns"),
            pytest.param(lambda obs: obs[:, 0], id="one-dimensional"),
            pytest.param(lambda obs: np.hstack([obs, obs[:, :1]]), id="extra-column"),
            pytest.param(lambda obs: set_lemma(obs, -2), id="code-below-masked"),
            pytest.param(lambda obs: obs.astype(float), id="float-codes"),
        ],
    )
    def test_bad_observation_matrix_is_a_typed_error(self, bad):
        rng = np.random.default_rng(12)
        model = randomize_model(
            build_model(("speaker", "location"), {"lemma": 5, "case": 3}), rng
        )
        obs = sample_example(model, 6, rng).obs
        with pytest.raises(InvalidSpec):
            decode(compile_chain(model), bad(obs))


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
        summary = result.summary()
        assert set(summary) == {"speaker", "location", "stime", "macro_f1"}
        for f in FIELDS[:3]:
            assert set(summary[f]) == {"precision", "recall", "f1"}
        # strongly cued tiny corpus: the protocol should actually learn it
        assert summary["stime"]["f1"] > 0.5

    def test_jobs_do_not_change_results(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        serial = run_experiment(corpus, cfg, jobs=1)
        parallel = run_experiment(corpus, cfg, jobs=2)
        assert serial.summary() == parallel.summary()
        a, b = serial.model, parallel.model
        assert (a.fields, a.memory, a.observables) == (b.fields, b.memory, b.observables)
        assert sorted(a.cpts) == sorted(b.cpts)
        for name, cpt in a.cpts.items():
            assert np.array_equal(cpt.table, b.cpts[name].table), name

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
        assert a.summary() == b.summary()

    def test_ablation_grid(self):
        results = run_ablations(
            tiny_corpus(), tiny_config(runs=1), variants=("complete", "no lemma")
        )
        assert set(results) == {"complete", "no lemma"}
        assert results["complete"].config.mask == ()
        assert results["no lemma"].config.mask == ("lemma",)
        assert results["no lemma"].config.memory is True

    def test_no_memory_variant_flips_structure(self):
        results = run_ablations(
            tiny_corpus(), tiny_config(runs=1), variants=("no memory",)
        )
        assert results["no memory"].model.memory is False

    @pytest.mark.parametrize(
        "variants, named",
        [
            ((), "got []"),
            (["no lemmas"], "unknown: ['no lemmas']"),
            (["complete", "complete"], "repeated: ['complete']"),
        ],
        ids=["empty", "unknown", "repeated"],
    )
    def test_bad_variant_lists_raise(self, variants, named):
        with pytest.raises(InvalidSpec, match=re.escape(named)):
            run_ablations(tiny_corpus(), tiny_config(runs=1), variants=variants)

    def test_run_reports_em_iterations(self):
        cfg = tiny_config(runs=1)
        cfg = replace(cfg, train=replace(cfg.train, max_iter=1))
        (run,) = run_experiment(tiny_corpus(), cfg).runs
        assert run.iterations == 1 and run.converged is False
        assert len(run.log_likelihood) == 1
