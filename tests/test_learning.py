from fractions import Fraction

import numpy as np
import pytest
from oracles import chain_estep, randomize_model, sample_corpus

from bien.corpus import parse_tagged_document
from bien.errors import (
    EmptyCorpus,
    InconsistentGold,
    MissingColumn,
    OverlappingSpans,
    UnknownField,
)
from bien.features import Gazetteer, default_lexicons
from bien.learning import (
    TrainConfig,
    TrainExample,
    _FactoredBatch,
    encode_tags,
    make_examples,
    train,
)
from bien.model import build_model

LEX = default_lexicons()
OBS = {"u": 3, "v": 2}


def example(doc_id, tags, ds=None, obs=None, model=None, rng=None):
    T = len(tags)
    if obs is None:
        rng = rng or np.random.default_rng(0)
        obs = np.stack(
            [rng.integers(0, spec.cardinality, T) for spec in model.observables], axis=1
        )
    return TrainExample(
        doc_id,
        np.asarray(obs, dtype=np.int16),
        np.asarray(tags, dtype=np.int64),
        None if ds is None else np.asarray(ds, dtype=np.int64),
    )


class TestEncodeTags:
    def test_roles(self):
        doc, _ = parse_tagged_document(
            "Who: <speaker>Dr. Green Smith</speaker> at <stime>1 am</stime> in <location>Hall</location>",
            doc_id="d",
        )
        m = build_model(("speaker", "location", "stime", "etime"), OBS)
        got = encode_tags(doc, m.tags)
        names = [m.tags.name(t) for t in got]
        assert names == [
            "background", "background",
            "begin:speaker", "inside:speaker", "end:speaker",
            "background", "begin:stime", "end:stime", "background",
            "single:location",
        ]

    def test_adjacent_spans(self):
        doc, _ = parse_tagged_document("<stime>3:30</stime> <stime>4:30</stime>", doc_id="d")
        m = build_model(("stime",), OBS)
        got = encode_tags(doc, m.tags)
        assert [m.tags.name(t) for t in got] == ["single:stime", "single:stime"]

    def test_unknown_field(self):
        doc, _ = parse_tagged_document("<stime>3:30</stime>", doc_id="d")
        m = build_model(("etime",), OBS)
        with pytest.raises(UnknownField):
            encode_tags(doc, m.tags)

    def test_overlap_rejected(self):
        from bien.corpus import Document, TagSpan, tokenize

        toks = tokenize("a b c")
        doc = Document(
            "d", "a b c", toks, (TagSpan("x", 0, 1), TagSpan("x", 1, 2))
        )
        m = build_model(("x",), OBS)
        with pytest.raises(OverlappingSpans):
            encode_tags(doc, m.tags)

    def test_span_past_end_rejected(self):
        from bien.corpus import Document, TagSpan, tokenize

        toks = tokenize("a b")
        doc = Document("d", "a b", toks, (TagSpan("x", 1, 5),))
        m = build_model(("x",), OBS)
        with pytest.raises(InconsistentGold) as exc:
            encode_tags(doc, m.tags)
        assert exc.value.doc_id == "d"


def fully_observed_examples(m):
    tags = m.tags
    # hand-built corpus: counts below are evaluated by hand with Fractions
    return [
        example("a", [0, tags.begin(0), tags.end(0)], ds=[0, 0, 1],
                obs=[[0, 0], [1, 1], [2, 0]]),
        example("b", [tags.single(0), 0], ds=[0, 1], obs=[[0, 1], [1, 0]]),
        example("c", [0, 0], ds=[1, 1], obs=[[2, 1], [0, 0]]),
    ]


class TestExactMaximumLikelihood:
    def test_counts_normalize_to_exact_fractions(self):
        m = build_model(("x",), OBS)
        cfg = TrainConfig(alpha=0.0, jitter=0.0, max_iter=1, observe_ds=True)
        result = train(m, fully_observed_examples(m), cfg)
        got = result.model.cpts

        # segment chain: starts header, header, body; transitions hh, hb, bb, bb
        assert got["ds_init"].table[0] == float(Fraction(2, 3))
        assert got["ds_init"].table[1] == float(Fraction(1, 3))
        assert got["ds_trans"].table[0, 0] == float(Fraction(1, 3))
        assert got["ds_trans"].table[0, 1] == float(Fraction(2, 3))
        assert got["ds_trans"].table[1, 1] == float(Fraction(2, 2))

        tags = result.model.tags
        # initial tags: header docs start with background once, single once;
        # the body-initial doc starts with background
        assert got["tag_init"].table[0, 0] == float(Fraction(1, 2))
        assert got["tag_init"].table[0, tags.single(0)] == float(Fraction(1, 2))
        assert got["tag_init"].table[1, 0] == float(Fraction(1, 1))

        # background-tag emissions: u is 0 in the header; 1, 2, 0 in the body
        emit_u = got["emit:u"].table
        assert emit_u[0, 0, 0] == float(Fraction(1, 1))
        for code in (0, 1, 2):
            assert emit_u[0, 1, code] == float(Fraction(1, 3))


class TestEstepEquivalence:
    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("observe_ds", [False, True])
    def test_factored_matches_chain(self, memory, observe_ds):
        rng = np.random.default_rng(7)
        m = randomize_model(build_model(("x", "y"), OBS, memory=memory), rng)
        tags = m.tags
        seqs = [
            [0, tags.begin(0), tags.inside(0), tags.end(0), 0],
            [tags.single(1), 0, tags.begin(1), tags.end(1)],
            [0, 0, 0],
            [tags.single(0), tags.single(1), 0, tags.single(0)],
        ]
        examples = []
        for i, seq in enumerate(seqs):
            ds = rng.integers(0, 2, len(seq)) if observe_ds else None
            ex = example(f"d{i}", seq, ds=ds, model=m, rng=rng)
            obs = ex.obs.copy()
            obs[rng.random(obs.shape) < 0.2] = -1
            examples.append(TrainExample(ex.doc_id, obs, ex.tags, ex.ds))
        c1, ll1 = chain_estep(m, examples, observe_ds)
        c2, ll2 = _FactoredBatch(m, examples, observe_ds).estep(m)
        assert ll1 == pytest.approx(ll2, rel=1e-12)
        for name in c1:
            np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    def test_trained_models_agree(self):
        """Both E-steps agree on every model EM visits, not only the first."""
        rng = np.random.default_rng(11)
        m = randomize_model(build_model(("x",), OBS), rng)
        src = randomize_model(build_model(("x",), OBS), np.random.default_rng(5))
        examples = sample_corpus(src, 30, np.random.default_rng(6))
        examples = [TrainExample(e.doc_id, e.obs, e.tags, None) for e in examples]
        for k in range(1, 9):
            cfg = TrainConfig(alpha=0.05, jitter=1e-3, seed=3, max_iter=k, tol=0.0)
            fitted = train(m, examples, cfg).model
            c1, ll1 = chain_estep(fitted, examples, observe_ds=False)
            c2, ll2 = _FactoredBatch(fitted, examples, observe_ds=False).estep(fitted)
            assert ll1 == pytest.approx(ll2, rel=1e-9)
            for name in c1:
                np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)


class TestEmBehavior:
    def hidden_ds_examples(self, m, n=40, seed=9):
        src = randomize_model(m.copy(), np.random.default_rng(seed))
        sampled = sample_corpus(src, n, np.random.default_rng(seed + 1))
        return [TrainExample(e.doc_id, e.obs, e.tags, None) for e in sampled]

    def test_likelihood_is_monotone_without_prior(self):
        m = build_model(("x", "y"), OBS)
        examples = self.hidden_ds_examples(m)
        result = train(m, examples, TrainConfig(alpha=0.0, jitter=1e-3, max_iter=25, tol=0.0))
        trace = np.array(result.log_likelihood)
        assert len(trace) == 25
        diffs = np.diff(trace)
        assert (diffs >= -1e-9 * np.abs(trace[:-1])).all()

    def test_training_improves_likelihood(self):
        m = build_model(("x",), OBS)
        examples = self.hidden_ds_examples(m, n=60)
        result = train(m, examples, TrainConfig(alpha=0.0, max_iter=15, tol=0.0))
        assert result.log_likelihood[-1] > result.log_likelihood[0] + 1.0

    def test_convergence_stops_early(self):
        m = build_model(("x",), OBS)
        examples = self.hidden_ds_examples(m, n=20)
        result = train(m, examples, TrainConfig(alpha=0.1, max_iter=200, tol=1e-7))
        assert result.converged
        assert result.iterations < 200
        assert len(result.log_likelihood) == result.iterations

    def test_jitter_seed_reproducible(self):
        m = build_model(("x",), OBS)
        examples = self.hidden_ds_examples(m, n=15)
        r1 = train(m, examples, TrainConfig(seed=4, max_iter=5))
        r2 = train(m, examples, TrainConfig(seed=4, max_iter=5))
        r3 = train(m, examples, TrainConfig(seed=5, max_iter=5))
        for name in m.cpts:
            assert np.array_equal(r1.model.cpts[name].table, r2.model.cpts[name].table)
        assert any(
            not np.array_equal(r1.model.cpts[n].table, r3.model.cpts[n].table)
            for n in m.cpts
        )

    def test_example_order_does_not_matter(self):
        m = build_model(("x",), OBS)
        examples = self.hidden_ds_examples(m, n=15)
        r1 = train(m, examples, TrainConfig(max_iter=5))
        r2 = train(m, list(reversed(examples)), TrainConfig(max_iter=5))
        for name in m.cpts:
            assert np.array_equal(r1.model.cpts[name].table, r2.model.cpts[name].table)

    def test_errors(self):
        m = build_model(("x",), OBS)
        with pytest.raises(EmptyCorpus):
            train(m, [], TrainConfig())
        bad = [example("d", [m.tags.inside(0), 0], model=m)]
        for run in (
            lambda: train(m, bad, TrainConfig(jitter=0.0)),
            lambda: chain_estep(m, bad, observe_ds=False),
        ):
            with pytest.raises(InconsistentGold) as exc:
                run()
            assert exc.value.doc_id == "d"
            assert exc.value.step == 0
        with pytest.raises(MissingColumn):
            train(m, self.hidden_ds_examples(m, n=2), TrainConfig(observe_ds=True))


class TestSamplingRecovery:
    def test_ml_estimates_approach_the_source(self):
        rng = np.random.default_rng(21)
        src = randomize_model(build_model(("x",), {"u": 3}), rng)
        errs = []
        for n in (300, 6000):
            corpus = sample_corpus(src, n, np.random.default_rng(42), t_range=(5, 10))
            cfg = TrainConfig(alpha=0.0, jitter=0.0, max_iter=1, observe_ds=True)
            got = train(src, corpus, cfg).model
            err = max(
                np.abs(got.cpts["ds_init"].table - src.cpts["ds_init"].table).max(),
                np.abs(got.cpts["ds_trans"].table - src.cpts["ds_trans"].table).max(),
                np.abs(got.cpts["tag_init"].table - src.cpts["tag_init"].table).max(),
            )
            errs.append(err)
        assert errs[1] < errs[0]
        assert errs[1] < 0.05


class TestMakeExamples:
    def test_featurizes_and_sorts(self):
        m = build_model(("speaker", "stime"), {"lemma": 4, "pos": 7, "chunk": 4,
                                               "semantic": 6, "case": 5, "length": 6})
        gaz = Gazetteer({"dr.": 1, "talk": 2}, LEX.lemma_table)
        docs = []
        for i in (2, 0, 1):
            doc, _ = parse_tagged_document(
                f"<speaker>Dr. Smith</speaker> talk {i} at <stime>3:30</stime>",
                doc_id=f"d{i}",
                fields=("speaker", "stime"),
            )
            docs.append(doc)
        examples = make_examples(docs, gaz, LEX, m)
        assert [e.doc_id for e in examples] == ["d0", "d1", "d2"]
        assert examples[0].obs.shape == (6, 6)
        names = [m.tags.name(t) for t in examples[0].tags]
        assert names[:2] == ["begin:speaker", "end:speaker"]
        assert examples[0].ds is None

    def test_ds_column_becomes_observation(self):
        m = build_model(("stime",), {"lemma": 4, "pos": 7, "chunk": 4,
                                     "semantic": 6, "case": 5, "length": 6})
        gaz = Gazetteer({"at": 1}, LEX.lemma_table)
        doc, _ = parse_tagged_document("at <stime>3:30</stime>", doc_id="d", fields=("stime",))
        doc = doc.with_columns(ds=["header", "body"])
        (ex,) = make_examples([doc], gaz, LEX, m)
        np.testing.assert_array_equal(ex.ds, [0, 1])

    def test_empty_corpus(self):
        m = build_model(("stime",), OBS)
        with pytest.raises(EmptyCorpus):
            make_examples([], None, None, m, mask=("lemma", "semantic"))
