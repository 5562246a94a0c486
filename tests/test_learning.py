import hashlib
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PaddedLogBatch,
    SegmentedExample,
    apply_mask,
    chain_estep,
    factored_estep,
    observed_counts,
    randomize_model,
    sample_corpus,
    stack_examples,
    tag_name,
)

from bien import learning
from bien.corpus import parse_tagged_document
from bien.corpus import Document, TagSpan, TokenView, tokenize
from bien.errors import (
    EmptyCorpus,
    InconsistentGold,
    InvalidSpec,
    OverlappingSpans,
    UnknownField,
)
from bien.evaluation import ABLATIONS
from bien.features import (
    Gazetteer,
    build_gazetteer,
    default_lexicons,
    feature_cardinalities,
    featurize,
)
from bien.learning import (
    StackedExamples,
    TrainConfig,
    TrainExample,
    _apply_jitter,
    _FactoredBatch,
    encode_tags,
    make_examples,
    pack,
    train,
)
from bien.model import TagSpace, build_model
from bien.synth import generate_corpus

LEX = default_lexicons()
OBS = {"u": 3, "v": 2}
FIELDS = ("speaker", "location", "stime", "etime")


def example(doc_id, tags, ds=None, obs=None, model=None, rng=None):
    T = len(tags)
    if obs is None:
        rng = rng or np.random.default_rng(0)
        obs = np.stack(
            [rng.integers(0, card, T) for card in model.observables.values()], axis=1
        )
    obs = np.asarray(obs, dtype=np.int16)
    tags = np.asarray(tags, dtype=np.int64)
    if ds is None:
        return TrainExample(doc_id, obs, tags)
    return SegmentedExample(doc_id, obs, tags, np.asarray(ds, dtype=np.int64))


def maximum_likelihood(model, examples):
    """The CPTs that one alpha=0 M-step makes of fully observed counts."""
    model = model.copy()
    counts, _ = observed_counts(model, examples)
    for name, cpt in model.cpts.items():
        cpt.renormalize(counts[name])
    return model


class TestEncodeTags:
    def test_roles(self):
        doc, _ = parse_tagged_document(
            "Who: <speaker>Dr. Green Smith</speaker> at <stime>1 am</stime> in <location>Hall</location>",
            doc_id="d",
        )
        m = build_model(("speaker", "location", "stime", "etime"), OBS)
        got = encode_tags(doc, m.tags)
        names = [tag_name(m.tags, t) for t in got]
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
        assert [tag_name(m.tags, t) for t in got] == ["single:stime", "single:stime"]

    def test_unknown_field(self):
        doc, _ = parse_tagged_document("<stime>3:30</stime>", doc_id="d")
        m = build_model(("etime",), OBS)
        for _ in range(2):  # a failed encoding is not kept
            with pytest.raises(UnknownField):
                encode_tags(doc, m.tags)

    def test_kept_on_the_document_per_field_tuple(self):
        doc, _ = parse_tagged_document("<stime>3:30</stime> talk", doc_id="d")
        one = build_model(("stime",), OBS).tags
        two = build_model(("etime", "stime"), OBS).tags
        got = encode_tags(doc, one)
        assert encode_tags(doc, build_model(("stime",), OBS).tags) is got
        assert not got.flags.writeable
        assert [tag_name(two, t) for t in encode_tags(doc, two)] == ["single:stime", "background"]
        assert encode_tags(doc, one) is got

    @pytest.mark.parametrize("n_fields, dtype", [(1, np.uint8), (63, np.uint8), (64, np.uint16)])
    def test_kept_in_the_smallest_type_of_the_tag_space(self, n_fields, dtype):
        fields = ("stime",) + tuple(f"f{k}" for k in range(n_fields - 1))
        doc, _ = parse_tagged_document("talk <stime>3:30</stime>", doc_id="d", fields=fields)
        space = TagSpace(fields)
        got = encode_tags(doc, space)
        assert got.dtype == dtype and got.tolist() == [0, space.single(0)]

    def test_overlap_rejected(self):
        toks = TokenView(*tokenize("a b c"))
        doc = Document(
            "d", "a b c", toks, (TagSpan("x", 0, 1), TagSpan("x", 1, 2))
        )
        m = build_model(("x",), OBS)
        with pytest.raises(OverlappingSpans):
            encode_tags(doc, m.tags)

    def test_span_past_end_rejected(self):
        """The document refuses a gold span that ends at or past its token
        count, naming itself and the span, so no tag encoding meets one."""
        for span in (TagSpan("x", 1, 5), TagSpan("x", 2, 2)):
            message = f"^d: gold {re.escape(str(span))} ends past its 2 tokens$"
            with pytest.raises(InvalidSpec, match=message):
                Document("d", "a b", TokenView(*tokenize("a b")), (span,))
        doc = Document("d", "a b", TokenView(*tokenize("a b")), (TagSpan("x", 1, 1),))
        m = build_model(("x",), OBS)
        assert encode_tags(doc, m.tags).tolist() == [0, m.tags.single(0)]


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
        fitted = maximum_likelihood(m, fully_observed_examples(m))
        got = fitted.cpts

        # segment chain: starts header, header, body; transitions hh, hb, bb, bb
        assert got["ds_init"].table[0] == float(Fraction(2, 3))
        assert got["ds_init"].table[1] == float(Fraction(1, 3))
        assert got["ds_trans"].table[0, 0] == float(Fraction(1, 3))
        assert got["ds_trans"].table[0, 1] == float(Fraction(2, 3))
        assert got["ds_trans"].table[1, 1] == float(Fraction(2, 2))

        tags = fitted.tags
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


def masked_examples(m, rng, segments):
    """Four hand-tagged examples with 20% masked cells and, under
    ``segments``, random known segments."""
    tags = m.tags
    seqs = [
        [0, tags.begin(0), tags.inside(0), tags.end(0), 0],
        [tags.single(1), 0, tags.begin(1), tags.end(1)],
        [0, 0, 0],
        [tags.single(0), tags.single(1), 0, tags.single(0)],
    ]
    examples = []
    for i, seq in enumerate(seqs):
        ds = rng.integers(0, 2, len(seq)) if segments else None
        ex = example(f"d{i}", seq, ds=ds, model=m, rng=rng)
        ex.obs[rng.random(ex.obs.shape) < 0.2] = -1
        examples.append(ex)
    return examples


class TestEstepEquivalence:
    @pytest.mark.parametrize("memory", [True, False])
    def test_factored_matches_chain(self, memory):
        rng = np.random.default_rng(7)
        m = randomize_model(build_model(("x", "y"), OBS, memory=memory), rng)
        examples = masked_examples(m, rng, segments=False)
        c1, ll1 = chain_estep(m, examples, observe_ds=False)
        c2, ll2 = factored_estep(pack(m, stack_examples(examples)), m)
        assert ll1 == pytest.approx(ll2, rel=1e-12)
        for name in c1:
            np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    @pytest.mark.parametrize("memory", [True, False])
    def test_observed_counts_match_chain(self, memory):
        """The tally oracle agrees with the chain clamped to tags and segments."""
        rng = np.random.default_rng(8)
        m = randomize_model(build_model(("x", "y"), OBS, memory=memory), rng)
        examples = masked_examples(m, rng, segments=True)
        c1, ll1 = chain_estep(m, examples, observe_ds=True)
        c2, ll2 = observed_counts(m, examples)
        assert ll1 == pytest.approx(ll2, rel=1e-12)
        for name in c1:
            np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    @pytest.mark.parametrize("memory,mask", [(True, ()), (False, ()), (True, ("lemma",))])
    def test_packed_matches_padded_on_generated_corpus(self, memory, mask):
        """The packed, scaled E-step agrees with the padded log-space one on
        a featurized corpus too large for ``chain_estep``."""
        docs = generate_corpus(60, 4)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz), memory=memory)
        examples = make_examples(docs, gaz, LEX, m, mask=mask)
        m = randomize_model(m, np.random.default_rng(3))
        c1, ll1 = PaddedLogBatch(m, examples).estep(m)
        c2, ll2 = factored_estep(pack(m, examples), m)
        assert ll2 == pytest.approx(ll1, rel=1e-12)
        for name in c1:
            np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    def test_distinct_rows_past_the_int64_radix(self):
        """Sixteen observables of cardinality 31: the mixed-radix row key
        would pass 2**63, so it is re-ranked on the way. Tokens share a few
        observation rows, so distinct rows are fewer than tokens."""
        m = build_model(("x", "y"), {f"o{k}": 31 for k in range(16)})
        m = randomize_model(m, np.random.default_rng(4))
        n_tags = m.tags.size
        assert n_tags * (1 + n_tags * m.lt_card) * 32**16 > 2**63
        rng = np.random.default_rng(5)
        pool = rng.integers(-1, 31, (6, 16))
        examples = [
            TrainExample(e.doc_id, pool[rng.integers(0, len(pool), len(e.tags))], e.tags)
            for e in sample_corpus(m, 30, rng)
        ]
        padded = PaddedLogBatch(m, examples)
        # per token: previous tag and memory (-1 at t = 0), tag, codes
        d, t = np.nonzero(padded.valid)
        prev = np.maximum(t - 1, 0)
        rows = np.column_stack([
            np.where(t > 0, padded.g[d, prev], -1),
            np.where(t > 0, padded.lt[d, prev], -1),
            padded.g[d, t],
            padded.obs[d, t],
        ])
        batch = pack(m, stack_examples(examples))
        assert len(batch.row_trans) == len(np.unique(rows, axis=0)) < len(rows)
        c1, ll1 = padded.estep(m)
        c2, ll2 = factored_estep(batch, m)
        assert ll2 == pytest.approx(ll1, rel=1e-12)
        for name in c1:
            np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    def test_equal_lengths_and_one_token_documents(self):
        rng = np.random.default_rng(12)
        m = randomize_model(build_model(("x", "y"), OBS), rng)
        tags = m.tags
        seqs = {
            "a": [0],
            "b": [tags.single(0), 0, 0],
            "c": [0, tags.begin(1), tags.end(1)],
            "d": [tags.single(1)],
            "e": [0, tags.single(0), 0, tags.begin(0), tags.end(0)],
            "f": [0, 0, 0],
        }
        examples = [example(k, seq, model=m, rng=rng) for k, seq in seqs.items()]
        examples[2].obs[1, 0] = -1
        for batch in (examples, [ex for ex in examples if len(ex.tags) == 1]):
            c1, ll1 = chain_estep(m, batch, observe_ds=False)
            padded = PaddedLogBatch(m, batch).estep(m)
            for c2, ll2 in (padded, factored_estep(pack(m, stack_examples(batch)), m)):
                assert ll2 == pytest.approx(ll1, rel=1e-12)
                for name in c1:
                    np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)

    def test_trained_models_agree(self):
        """Both E-steps agree on every model EM visits, not only the first."""
        rng = np.random.default_rng(11)
        m = randomize_model(build_model(("x",), OBS), rng)
        src = randomize_model(build_model(("x",), OBS), np.random.default_rng(5))
        examples = sample_corpus(src, 30, np.random.default_rng(6))
        stacked = stack_examples(examples)
        for k in range(1, 9):
            cfg = TrainConfig(alpha=0.05, jitter=1e-3, seed=3, max_iter=k, tol=0.0)
            fitted = train(m, stacked, cfg).model
            c1, ll1 = chain_estep(fitted, examples, observe_ds=False)
            c2, ll2 = factored_estep(pack(fitted, stacked), fitted)
            assert ll1 == pytest.approx(ll2, rel=1e-9)
            for name in c1:
                np.testing.assert_allclose(c2[name], c1[name], atol=1e-9)


class TestEmBehavior:
    def hidden_ds_examples(self, m, n=40, seed=9):
        src = randomize_model(m.copy(), np.random.default_rng(seed))
        return stack_examples(sample_corpus(src, n, np.random.default_rng(seed + 1)))

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
        """Documents in any order stack in id order, so they train alike;
        a stack out of id order is refused (``TestStackedExamples``)."""
        docs = generate_corpus(15, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz))
        r1 = train(m, make_examples(docs, gaz, LEX, m), TrainConfig(max_iter=5))
        r2 = train(m, make_examples(docs[::-1], gaz, LEX, m), TrainConfig(max_iter=5))
        assert_same_training(r1, r2)

    def test_duplicate_doc_ids_raise(self):
        m = build_model(("x",), OBS)
        examples = [replace(e, doc_id="same") for e in self.hidden_ds_examples(m, n=15)]
        with pytest.raises(InvalidSpec, match="'same'"):
            train(m, stack_examples(examples), TrainConfig(max_iter=5))

    def test_errors(self):
        m = build_model(("x",), OBS)
        with pytest.raises(EmptyCorpus):
            train(m, stack_examples([]), TrainConfig())
        bad = [example("d", [m.tags.inside(0), 0], model=m)]
        for run in (
            lambda: train(m, stack_examples(bad), TrainConfig(jitter=0.0)),
            lambda: chain_estep(m, bad, observe_ds=False),
        ):
            with pytest.raises(InconsistentGold) as exc:
                run()
            assert exc.value.doc_id == "d"
            assert exc.value.step == 0

    @pytest.mark.parametrize("with_earlier", [False, True])
    def test_inconsistent_gold_names_earliest_step_then_lowest_id(self, with_earlier):
        m = build_model(("x",), OBS)
        inside = m.tags.inside(0)
        docs = [
            example("a", [0, 0, inside], model=m),
            example("b", [0, 0, inside, 0, 0, 0], model=m),  # longer, same dead step
            example("c", [0, 0, 0, 0], model=m),
        ]
        if with_earlier:
            docs.append(example("d", [0, inside, 0, 0, 0, 0, 0], model=m))
        steps = {}
        for ex in docs:
            try:
                chain_estep(m, [ex], observe_ds=False)
            except InconsistentGold as exc:
                steps[ex.doc_id] = exc.step
        step, doc_id = min((s, d) for d, s in steps.items())
        assert (doc_id, step) == (("d", 1) if with_earlier else ("a", 2))
        for run in (
            lambda: train(m, stack_examples(docs), TrainConfig(jitter=0.0)),
            lambda: PaddedLogBatch(m, docs).estep(m),
        ):
            with pytest.raises(InconsistentGold) as exc:
                run()
            assert (exc.value.doc_id, exc.value.step) == (doc_id, step)

    def test_zero_token_examples_are_skipped(self):
        """``make_examples`` leaves zero-token documents out of the stack,
        which holds no zero-token example (``TestStackedExamples``)."""
        docs = generate_corpus(6, 3)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz))
        cfg = TrainConfig(max_iter=3, tol=0.0)
        r1 = train(m, make_examples(docs, gaz, LEX, m), cfg)
        r2 = train(m, make_examples(docs + [empty_document("ann0002a")], gaz, LEX, m), cfg)
        assert_same_training(r1, r2)

    def test_only_zero_token_examples_is_an_empty_corpus(self):
        m = build_model(FIELDS, OBS)
        empty = [empty_document(f"e{i}") for i in range(2)]
        with pytest.raises(EmptyCorpus):
            make_examples(empty, None, None, m)


def empty_document(doc_id):
    return Document(doc_id, "", TokenView(*tokenize("")), ())


def reference_em(model, examples, config):
    """EM as the loop that runs the full E-step, backward pass and counts
    included, on every iteration, the converged one too."""
    model = model.copy()
    _apply_jitter(model, config)
    batch = pack(model, examples)
    trace = []
    for _ in range(config.max_iter):
        counts, ll = factored_estep(batch, model)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= config.tol * max(
            1.0, abs(trace[-2])
        ):
            return model, trace, True
        for name, cpt in model.cpts.items():
            cpt.renormalize(counts[name] + config.alpha)
    return model, trace, False


class TestEarlyExit:
    """``train`` skips the backward pass on the iteration that converges;
    it must fit the same tables as the loop that never skips it."""

    @pytest.mark.parametrize(
        "config,converged",
        [
            pytest.param(TrainConfig(max_iter=200, tol=1e-6), True, id="converged"),
            pytest.param(TrainConfig(max_iter=4, tol=0.0), False, id="max-iter"),
        ],
    )
    def test_train_matches_the_full_estep_loop(self, config, converged):
        m = build_model(("x", "y"), OBS)
        src = randomize_model(m.copy(), np.random.default_rng(9))
        examples = stack_examples(sample_corpus(src, 40, np.random.default_rng(10)))
        want, trace, want_converged = reference_em(m, examples, config)
        got = train(m, examples, config)
        assert got.converged == want_converged == converged
        assert got.log_likelihood == trace
        assert got.iterations == len(trace)
        for name in m.cpts:
            assert np.array_equal(got.model.cpts[name].table, want.cpts[name].table)

    def test_the_last_m_step_applies_at_max_iter(self):
        m = build_model(("x", "y"), OBS)
        src = randomize_model(m.copy(), np.random.default_rng(9))
        examples = stack_examples(sample_corpus(src, 40, np.random.default_rng(10)))
        config = TrainConfig(max_iter=4, tol=0.0)
        got = train(m, examples, config)
        longer = train(m, examples, replace(config, max_iter=5))
        _, ll = factored_estep(pack(got.model, examples), got.model)
        assert longer.log_likelihood[:4] == got.log_likelihood
        assert ll == longer.log_likelihood[4]


class TestGoldenTraining:
    """Every trained table and the log-likelihood trace, pinned bit for bit
    by one sha256 per memory setting, and per mask for masked copies of the
    model on one packing, as the ablation grid trains, for a featurized
    generated corpus. Any change to the arithmetic of the E-step or the
    M-step shows here."""

    @staticmethod
    def digest(model, examples):
        result = train(model, examples, TrainConfig(tol=1e-6))
        h = hashlib.sha256()
        for name in sorted(result.model.cpts):
            h.update(name.encode())
            h.update(result.model.cpts[name].table.tobytes())
        h.update(np.array(result.log_likelihood).tobytes())
        return h.hexdigest()

    @staticmethod
    def corpus(memory):
        docs = generate_corpus(40, 5)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz), memory=memory)
        return m, make_examples(docs, gaz, LEX, m)

    @pytest.mark.parametrize(
        "memory,digest",
        [
            (True, "72415ccfc12f488e31123573f81a53dc92e58fd0497b6617d13204a76c669a23"),
            (False, "6707f3df361972e83146476e50467e1db136e42b4c81057cbdab0bd2cb53de62"),
        ],
        ids=["memory", "no-memory"],
    )
    def test_trained_tables_and_trace(self, memory, digest):
        assert self.digest(*self.corpus(memory)) == digest

    @pytest.mark.parametrize(
        "memory,mask,digest",
        [
            (True, ("lemma",), "43bd90f36685b8eeccc02eaa53dd49c4c9b2c5f7b64b32723d14fe50a4fb061e"),
            (True, ("case",), "5fb37c1f70da402166dbad7786b7ecad781e9f892898c2194a0569f72605c289"),
            (False, ("lemma",), "a34545a647af8ab6e44c6b2fa9f12f17bb3be9bd50b5ac7338c1089a758f9543"),
            (False, ("case",), "47841c915ae53488e184d5b06853f3b21b77d3bd9b1a01b7d190ef5f5abe6ac7"),
        ],
        ids=["memory-lemma", "memory-case", "no-memory-lemma", "no-memory-case"],
    )
    def test_masked_views(self, memory, mask, digest):
        m, examples = self.corpus(memory)
        assert self.digest(m.masked(mask), pack(m, examples)) == digest


class TestPassBuffers:
    """A packing keeps one set of pass buffers, which every model that
    trains on it shares, whatever its mask, so one pass at a time runs on
    them."""

    @staticmethod
    def fingerprint(result):
        tables = [result.model.cpts[name].table.tobytes() for name in sorted(result.model.cpts)]
        return tables, np.array(result.log_likelihood).tobytes()

    def test_views_train_alike_in_any_order_on_one_set_of_buffers(self):
        m, examples = TestGoldenTraining.corpus(True)
        config = TrainConfig(tol=1e-6)
        masks = ((), ("lemma",), ("case",))
        models = {mask: m.masked(mask) for mask in masks}
        alone = {
            mask: self.fingerprint(train(models[mask], pack(m, examples), config))
            for mask in masks
        }
        packing = pack(m, examples)
        for order in ((1, 0, 2, 1), (2, 2, 0, 1, 0), (0, 1, 2)):
            for mask in (masks[i] for i in order):
                assert self.fingerprint(train(models[mask], packing, config)) == alone[mask]
        trained = train(m, packing, config).model
        passes = []
        for mask in (masks[1], masks[0], masks[2], masks[1]):
            under = trained.masked(mask)
            packing.forward(under)
            packing.expected_counts(under)
            passes.append((packing.alpha, packing.c, packing.B, packing.beta))
        for arrays in passes[1:]:
            for got, first in zip(arrays, passes[0], strict=True):
                assert np.shares_memory(got, first)


# Posterior-like weights: zeros, subnormals and magnitudes far apart, so
# that a sum in any other order rounds differently.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.floats(0.0, 1e12),
)


class TestTally:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_complex_tally_is_two_bincounts(self, data):
        """One tally of the (N, 2) weights viewed as complex numbers gives
        each column's ``np.bincount`` tally bit for bit: both add per cell
        in token order, and complex addition adds each part on its own."""
        cells = data.draw(st.integers(1, 12))
        flat = np.array(data.draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=8)))
        n = data.draw(st.integers(0, 80))
        row_of = np.array(
            data.draw(st.lists(st.integers(0, len(flat) - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        weights = np.array(data.draw(st.lists(WEIGHTS, min_size=2 * n, max_size=2 * n)))
        weights = weights.reshape(n, 2)
        got = learning._tally(weights.view(np.complex128).ravel(), flat, row_of, cells)
        for part, column in zip((got.real, got.imag), weights.T):
            want = np.bincount(flat[row_of], weights=column, minlength=cells)
            assert part.tobytes() == want.tobytes()


def assert_same_training(a, b):
    """Two training results agree bit for bit."""
    assert a.log_likelihood == b.log_likelihood
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert sorted(a.model.cpts) == sorted(b.model.cpts)
    for name, cpt in a.model.cpts.items():
        assert np.array_equal(cpt.table, b.model.cpts[name].table), name


class TestPack:
    @pytest.mark.parametrize("memory", [True, False], ids=["memory", "no-memory"])
    def test_masks_on_one_packing_train_as_masked_copies(self, memory):
        """Every mask of the ablation grid, on a copy of the model trained
        on one packing of the unmasked examples, gives what training on
        masked copies of the examples gives."""
        docs = generate_corpus(60, 4)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz), memory=memory)
        examples = make_examples(docs, gaz, LEX, m)
        packing = pack(m, examples)
        config = TrainConfig(max_iter=4, tol=0.0, seed=2)
        for mask in dict.fromkeys(row["mask"] for row in ABLATIONS.values()):
            masked = stack_examples([replace(ex, obs=apply_mask(ex.obs, mask)) for ex in examples])
            got = train(m.masked(mask), packing, config)
            assert_same_training(got, train(m, masked, config))
        # the early exit on convergence too
        got = train(m.masked(("case",)), packing, TrainConfig())
        masked = stack_examples([replace(ex, obs=apply_mask(ex.obs, ("case",))) for ex in examples])
        assert_same_training(got, train(m, masked, TrainConfig()))

    def test_one_packing_for_every_view(self, monkeypatch):
        built = []

        class Counted(_FactoredBatch):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(learning, "_FactoredBatch", Counted)
        m = build_model(("x", "y"), OBS)
        examples = sample_corpus(randomize_model(m, np.random.default_rng(3)), 12,
                                 np.random.default_rng(4))
        packing = pack(m, stack_examples(examples))
        for model in (m, m.masked(("u",)), m, m.masked(())):
            train(model, packing, TrainConfig(max_iter=2))
        assert len(built) == 1
        # iterating yields the examples in training order
        assert [ex.doc_id for ex in packing] == [ex.doc_id for ex in examples]

    @pytest.mark.parametrize(
        "other, named",
        [
            (lambda: build_model(("x", "y"), OBS, memory=False), "memory=False"),
            (lambda: build_model(("x", "z"), OBS), "fields=('x', 'z')"),
            (lambda: build_model(("x", "y"), {"u": 3, "w": 2}), "observables=(u:3, w:2)"),
            (lambda: build_model(("x", "y"), {"u": 4, "v": 2}), "observables=(u:4, v:2)"),
        ],
        ids=["memory", "fields", "observable-name", "cardinality"],
    )
    def test_another_structure_raises_naming_both(self, other, named):
        m = build_model(("x", "y"), OBS)
        packing = pack(
            m, stack_examples(sample_corpus(randomize_model(m, np.random.default_rng(3)), 8,
                                            np.random.default_rng(4)))
        )
        train(m, packing, TrainConfig(max_iter=1))
        with pytest.raises(InvalidSpec) as got:
            train(other(), packing, TrainConfig(max_iter=1))
        message = str(got.value)
        assert "memory=True, fields=('x', 'y'), observables=(u:3, v:2)" in message
        assert named in message

    def test_unknown_mask_name_raises(self):
        m = build_model(("x",), OBS)
        with pytest.raises(InvalidSpec, match="bogus"):
            m.masked(("bogus",))

    def test_mask_past_the_model_columns_raises(self):
        m = build_model(("x",), OBS)
        with pytest.raises(InvalidSpec, match="'semantic'"):
            m.masked(("semantic",))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: train(m, None),
            lambda m: train(m, [1, 2]),
            lambda m: train(m, [example("a", [0, m.tags.single(0), 0], model=m)]),
            lambda m: pack(m, "abc"),
            lambda m: pack(m, pack(m, stack_examples([example("a", [0], model=m)]))),
        ],
        ids=["train-none", "train-ints", "train-example-list", "pack-str", "pack-packing"],
    )
    def test_wrong_type_raises(self, call):
        with pytest.raises(InvalidSpec, match=r"^examples must be a StackedExamples, got \w+$"):
            call(build_model(("x",), OBS))

    def test_repeated_id_raises(self):
        m = build_model(("x",), OBS)
        twice = [example("a", [0, m.tags.single(0), 0], model=m)] * 2
        with pytest.raises(InvalidSpec, match="'a' is used more than once"):
            pack(m, stack_examples(twice))


class TestTrainConfig:
    """Settings that ``train`` cannot honour raise at construction, naming
    the field."""

    @pytest.mark.parametrize("value", [0, -1, 2.5, "3", True])
    def test_max_iter(self, value):
        named = re.escape(f"TrainConfig.max_iter must be an int >= 1, got {value!r}")
        with pytest.raises(InvalidSpec, match=named):
            TrainConfig(max_iter=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, None])
    def test_alpha(self, value):
        with pytest.raises(InvalidSpec, match="alpha"):
            TrainConfig(alpha=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-4])
    def test_tol(self, value):
        with pytest.raises(InvalidSpec, match="tol"):
            TrainConfig(tol=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.0, 1.5, -1e-3])
    def test_jitter(self, value):
        with pytest.raises(InvalidSpec, match="jitter"):
            TrainConfig(jitter=value)

    @pytest.mark.parametrize("value", [1.5, 2.0, None, "3", False, True])
    def test_seed(self, value):
        named = re.escape(f"TrainConfig.seed must be an int, got {value!r}")
        with pytest.raises(InvalidSpec, match=named):
            TrainConfig(seed=value)

    def test_edges_are_accepted(self):
        TrainConfig(max_iter=1, alpha=0, tol=0.0, jitter=0.0, seed=-1)
        TrainConfig(max_iter=np.int64(2), alpha=np.float64(0.5), jitter=0.999, seed=np.int64(7))


def malformed(obs, tags=(0, 0), dtype=np.int16):
    return TrainExample("bad", np.asarray(obs, dtype=dtype), np.asarray(tags))


# Each malformed example, stacked between good ones. A tag or code out of
# range names it; a stack that cannot be read, of the wrong type, shape or
# column count, names no example.
OBS_FAULT = "^observations must be an integer matrix, one row per tag, got "
TAGS_FAULT = "^tags must be a 1-D integer array, got float64 of shape"
MALFORMED = [
    pytest.param(malformed([[3, 0], [0, 0]]), "^bad: observation codes must lie in",
                 id="code-past-cardinality"),
    pytest.param(malformed([[-2, 0], [0, 0]]), "^bad: observation codes must be at least -1",
                 id="code-below-minus-one"),
    pytest.param(malformed([[2**64 - 1, 0], [0, 0]], dtype=np.uint64),
                 "^bad: observation codes must lie in", id="uint64-code-past-cardinality"),
    pytest.param(malformed([[0, 0], [1, 1]], dtype=float), OBS_FAULT, id="float-obs"),
    pytest.param(malformed([[0], [1]]), r"^observations must be an integer \(T, 2\) matrix",
                 id="wrong-column-count"),
    pytest.param(malformed([[0, 0]]), OBS_FAULT, id="fewer-obs-rows-than-tags"),
    pytest.param(malformed([[0, 0]] * 3), OBS_FAULT, id="more-obs-rows-than-tags"),
    pytest.param(malformed([[0, 0]] * 2, tags=(0, 5)), "^bad: tags must be a 1-D integer array",
                 id="tag-past-tag-space"),
    pytest.param(malformed([[0, 0]] * 2, tags=(0, -1)), "^bad: tags must be integers of at least 0",
                 id="negative-tag"),
    pytest.param(malformed([[0, 0]] * 2, tags=(0.0, 0.0)), TAGS_FAULT, id="float-tags"),
]


def stacked_with(bad, good):
    """``bad`` among the ``good`` examples, in id order, as one stack; the
    good examples take ``bad``'s observation type and column count, so
    that only ``bad`` is out of range."""
    columns = bad.obs.shape[1]
    good = [replace(ex, obs=ex.obs[:, :columns].astype(bad.obs.dtype)) for ex in good]
    return stack_examples(sorted([*good, bad], key=lambda ex: ex.doc_id))


class TestMalformedExamples:
    @pytest.mark.parametrize("bad, match", MALFORMED)
    def test_raises_invalid_spec(self, bad, match):
        m = build_model(("x",), OBS)
        good = example("good", [0, m.tags.single(0), 0], model=m)
        with pytest.raises(InvalidSpec, match=match):
            train(m, stacked_with(bad, [good]), TrainConfig(max_iter=1))

    @pytest.mark.parametrize("bad, match", MALFORMED)
    def test_named_among_forty_good_examples(self, bad, match):
        """A range fault names the malformed example, which sorts between
        the good ones."""
        m = build_model(("x",), OBS)
        rng = np.random.default_rng(0)
        good = [
            example(f"{p}{i:02d}", [0, m.tags.single(0), 0], model=m, rng=rng)
            for p in "ac"
            for i in range(20)
        ]
        with pytest.raises(InvalidSpec, match=match):
            train(m, stacked_with(bad, good), TrainConfig(max_iter=1))


class TestSamplingRecovery:
    def test_ml_estimates_approach_the_source(self):
        rng = np.random.default_rng(21)
        src = randomize_model(build_model(("x",), {"u": 3}), rng)
        errs = []
        for n in (300, 6000):
            corpus = sample_corpus(src, n, np.random.default_rng(42), t_range=(5, 10))
            got = maximum_likelihood(src, corpus)
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
        examples = list(make_examples(docs, gaz, LEX, m))
        assert [e.doc_id for e in examples] == ["d0", "d1", "d2"]
        assert examples[0].obs.shape == (6, 6)
        names = [tag_name(m.tags, t) for t in examples[0].tags]
        assert names[:2] == ["begin:speaker", "end:speaker"]

    def test_empty_corpus(self):
        m = build_model(("stime",), OBS)
        with pytest.raises(EmptyCorpus):
            make_examples([], None, None, m, mask=("lemma", "semantic"))


class TestModelMask:
    """EM reads a model's mask: the families it names get no counts and add
    nothing to the factors, on a packing of unmasked examples."""

    def test_a_masked_family_gets_no_counts(self):
        rng = np.random.default_rng(23)
        m = randomize_model(build_model(("x", "y"), OBS), rng)
        examples = stack_examples(sample_corpus(m, 12, rng))
        obs = examples.obs.copy()
        obs[:, 1] = -1
        blanked = replace(examples, obs=obs)
        counts, ll = factored_estep(pack(m, examples), m.masked(("v",)))
        want, want_ll = factored_estep(pack(m, blanked), m)
        full, full_ll = factored_estep(pack(m, examples), m)
        assert not counts["emit:v"].any() and full["emit:v"].any()
        assert counts["emit:u"].sum() > 0
        assert ll == want_ll != full_ll
        for name, table in counts.items():
            assert table.tobytes() == want[name].tobytes(), name

    def test_every_ablation_mask_trains_as_its_featurized_side(self):
        """``train(m.masked(mask), pack(m, examples))`` is training on the
        side featurized with ``mask``, bit for bit, and the trained copy
        keeps the mask."""
        docs = generate_corpus(40, 5)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz))
        packing = pack(m, make_examples(docs, gaz, LEX, m))
        config = TrainConfig(max_iter=4, tol=0.0, seed=2)
        for mask in dict.fromkeys(row["mask"] for row in ABLATIONS.values()):
            got = train(m.masked(mask), packing, config)
            assert got.model.mask == mask
            assert_same_training(got, train(m, make_examples(docs, gaz, LEX, m, mask=mask), config))


class TestStackedExamples:
    """``make_examples`` stacks a side, which checks itself when built; a
    stack and its packing train alike."""

    def side(self, memory=True, n_docs=40):
        docs = generate_corpus(n_docs, 4)
        gaz = build_gazetteer(docs, LEX.lemma_table)
        m = build_model(FIELDS, feature_cardinalities(gaz), memory=memory)
        return docs, gaz, m, make_examples(docs, gaz, LEX, m)

    def test_rows_are_each_documents_features_and_tags(self):
        docs, gaz, m, stacked = self.side()
        docs = sorted(docs, key=lambda doc: doc.id)
        assert stacked.doc_ids == tuple(doc.id for doc in docs) and len(stacked.lengths) == len(docs)
        for ex, doc in zip(stacked, docs, strict=True):
            assert ex.doc_id == doc.id
            np.testing.assert_array_equal(ex.obs, featurize(doc, gaz, LEX))
            np.testing.assert_array_equal(ex.tags, encode_tags(doc, m.tags))

    @pytest.mark.parametrize("memory", [True, False], ids=["memory", "no-memory"])
    def test_a_stack_and_its_packing_train_alike(self, memory):
        """The stack and its packing train bit for bit alike, and so do a
        masked model on the packing and the side featurized with that mask,
        at the iteration cap and at convergence."""
        docs, gaz, m, stacked = self.side(memory)
        packing = pack(m, stacked)
        masked = make_examples(docs, gaz, LEX, m, mask=("case",))
        for config in (TrainConfig(max_iter=4, tol=0.0, seed=2), TrainConfig()):
            assert_same_training(train(m, packing, config), train(m, stacked, config))
            assert_same_training(
                train(m.masked(("case",)), packing, config), train(m, masked, config)
            )

    @pytest.mark.parametrize("fault, match", [
        ("tag", "tags must be a 1-D integer array"),
        ("code", "observation codes must lie in"),
    ])
    def test_out_of_range_names_the_first_bad_document(self, fault, match):
        _, gaz, m, stacked = self.side(n_docs=30)
        first = np.cumsum(stacked.lengths) - stacked.lengths
        obs, tags = stacked.obs.copy(), stacked.tags.copy()
        for k in (20, 7):
            if fault == "tag":
                tags[first[k] + 1] = m.tags.size
            else:
                obs[first[k] + 1, 0] = gaz.cardinality
        bad = StackedExamples(stacked.doc_ids, stacked.lengths, obs, tags)
        with pytest.raises(InvalidSpec, match=f"^{re.escape(stacked.doc_ids[7])}: {match}"):
            pack(m, bad)

    def test_a_tag_fault_is_named_before_a_code_fault_of_a_later_example(self):
        _, gaz, m, stacked = self.side(n_docs=30)
        first = np.cumsum(stacked.lengths) - stacked.lengths
        for code_doc, tag_doc, named in ((7, 7, 7), (7, 20, 7), (20, 7, 7)):
            obs, tags = stacked.obs.copy(), stacked.tags.copy()
            obs[first[code_doc] + 1, 0] = gaz.cardinality
            tags[first[tag_doc] + 2] = m.tags.size
            fault = "tags must" if tag_doc == named else "observation codes"
            with pytest.raises(InvalidSpec, match=f"^{stacked.doc_ids[named]}: {fault}"):
                pack(m, StackedExamples(stacked.doc_ids, stacked.lengths, obs, tags))

    def test_impossible_gold_names_the_same_document_and_step(self):
        _, _, m, stacked = self.side(n_docs=30)
        first = np.cumsum(stacked.lengths) - stacked.lengths
        tags = stacked.tags.copy()
        for k, step in ((7, 5), (20, 3)):  # an inside tag after background
            tags[first[k] + step - 1 : first[k] + step + 1] = [0, m.tags.inside(0)]
        bad = StackedExamples(stacked.doc_ids, stacked.lengths, stacked.obs, tags)
        with pytest.raises(InconsistentGold) as exc:
            train(m, bad, TrainConfig(max_iter=1))
        assert (exc.value.doc_id, exc.value.step) == (stacked.doc_ids[20], 3)

    @pytest.mark.parametrize("fields, error, match", [
        (dict(doc_ids=(), lengths=[], obs=np.zeros((0, 2), np.int16), tags=np.zeros(0, int)),
         EmptyCorpus, "no training examples"),
        (dict(lengths=[2, 2, 1]), InvalidSpec, re.escape("lengths [2, 2, 1] do not split 6")),
        (dict(lengths=[2, 3, 2]), InvalidSpec, re.escape("lengths [2, 3, 2] do not split 6")),
        (dict(obs=np.zeros((5, 2), np.int16)), InvalidSpec, "one row per tag"),
        (dict(tags=np.zeros((6, 1), int)), InvalidSpec, "tags must be a 1-D integer array"),
        (dict(lengths=[2, 5, -1]), InvalidSpec, re.escape("lengths [2, 5, -1] do not split 6")),
        (dict(doc_ids=("a", "b", "c", "d"), lengths=[2, 3, 1, 0]), InvalidSpec,
         "^d: an example with no tokens"),
        (dict(tags=np.zeros(6)), InvalidSpec, "tags must be a 1-D integer array"),
        (dict(doc_ids=("a", "b", "c", "d")), InvalidSpec, "4 document ids for 3 lengths"),
        (dict(doc_ids=("a", "b", "a")), InvalidSpec, "must increase, got 'b' before 'a'"),
    ], ids=["empty", "lengths-short", "lengths-long", "obs-and-tag-rows-differ", "2-d-tags",
            "negative-length", "trailing-zero-length", "float-tags", "more-ids-than-lengths",
            "repeated-id-apart"])
    def test_malformed_stack_is_a_typed_error(self, fields, error, match):
        """Each stack raises as it is built, never from inside numpy, and
        never trains."""
        m = build_model(("x",), OBS)
        good = dict(doc_ids=("a", "b", "c"), lengths=np.array([2, 3, 1]),
                    obs=np.zeros((6, 2), np.int16), tags=np.zeros(6, np.int64))
        with pytest.raises(error, match=match):
            train(m, StackedExamples(**{**good, **fields}), TrainConfig(max_iter=1))
