import itertools

import numpy as np
import pytest
from oracles import (
    ClampedEvidence,
    enumerate_best_path,
    enumerate_posteriors,
    forward_backward,
    joint_log_prob,
    random_obs,
    randomize_model,
    viterbi_reference,
)

from bien import inference
from bien.errors import InvalidSpec, NumericError, ZeroProbabilityEvidence
from bien.inference import Evidence, viterbi, viterbi_batch
from bien.model import build_model, compile_chain, join_factors

OBS = {"lemma": 6, "case": 4}
FOUR_FIELDS = ("speaker", "location", "stime", "etime")

# Documents per chunk of the batched forward pass in these tests, so that
# small batches span several chunks; the library's own width is kept in
# BATCH_DOCS.
CHUNK = 32
BATCH_DOCS = inference._BATCH_DOCS


@pytest.fixture(autouse=True)
def chunks_of_32(monkeypatch):
    monkeypatch.setattr(inference, "_BATCH_DOCS", CHUNK)


def make_chain(fields, memory=True, seed=0):
    model = randomize_model(build_model(fields, OBS, memory=memory), np.random.default_rng(seed))
    return compile_chain(model)


def rejoin(chain):
    """After the chain's factors are written by hand: ``log_trans`` as
    their sum again, so that both decoders score the same chain."""
    chain.log_trans = join_factors(chain.log_ds, chain.pair_trans)


def clamp_mask_by_hand(chain, evidence):
    """Independent translation of clamps into a (T, S) log mask."""
    T = len(evidence)
    mask = np.zeros((T, chain.n_states))
    for t in range(T):
        for s, (tag, lt, ds) in enumerate(chain.states):
            ok = True
            if evidence.allowed_tags is not None:
                ok = ok and bool(evidence.allowed_tags[t, tag])
            if evidence.allowed_ds is not None:
                ok = ok and bool(evidence.allowed_ds[t, ds])
            if not ok:
                mask[t, s] = -np.inf
    return mask


def random_evidence(chain, T, rng, clamp=False):
    obs = random_obs(chain.model, T, rng, mask_rate=0.25)
    if not clamp:
        return Evidence(obs)
    n_tags = chain.model.tags.size
    allowed_tags = rng.random((T, n_tags)) < 0.6
    allowed_tags[np.arange(T), rng.integers(0, n_tags, T)] = True
    allowed_ds = rng.random((T, 2)) < 0.8
    allowed_ds[np.arange(T), rng.integers(0, 2, T)] = True
    return ClampedEvidence(obs, allowed_tags, allowed_ds)


def cases():
    for fields, t_max in ((("a",), 6), (("a", "b"), 4)):
        for memory in (True, False):
            for seed in (1, 2):
                chain = make_chain(fields, memory=memory, seed=seed)
                for T in range(1, t_max + 1):
                    yield chain, T, seed


class TestForwardBackward:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(100)
        for chain, T, seed in cases():
            ev = random_evidence(chain, T, rng)
            post = forward_backward(chain, ev)
            ll, gamma, xi = enumerate_posteriors(chain, chain.log_emission(ev.obs))
            np.testing.assert_allclose(post.log_likelihood, ll, rtol=1e-9)
            np.testing.assert_allclose(post.gamma, gamma, atol=1e-9)
            np.testing.assert_allclose(post.xi_sum, xi, atol=1e-9)

    def test_clamped_matches_enumeration(self):
        rng = np.random.default_rng(200)
        checked_live = checked_dead = 0
        for chain, T, seed in cases():
            ev = random_evidence(chain, T, rng, clamp=True)
            log_emis = chain.log_emission(ev.obs)
            log_clamp = clamp_mask_by_hand(chain, ev)
            ll, gamma, xi = enumerate_posteriors(chain, log_emis, log_clamp)
            if ll == -np.inf:
                with pytest.raises(ZeroProbabilityEvidence):
                    forward_backward(chain, ev)
                checked_dead += 1
                continue
            post = forward_backward(chain, ev)
            np.testing.assert_allclose(post.log_likelihood, ll, rtol=1e-9)
            np.testing.assert_allclose(post.gamma, gamma, atol=1e-9)
            np.testing.assert_allclose(post.xi_sum, xi, atol=1e-9)
            checked_live += 1
        assert checked_live >= 10 and checked_dead >= 2

    def test_marginal_sanity(self):
        rng = np.random.default_rng(5)
        chain = make_chain(("a", "b"), seed=8)
        ev = random_evidence(chain, 7, rng)
        post = forward_backward(chain, ev)
        np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(post.xi_sum.sum(), 6.0, atol=1e-8)
        np.testing.assert_allclose(post.tag_marginals(chain).sum(axis=1), 1.0, atol=1e-9)

    def test_no_evidence_has_unit_likelihood(self):
        chain = make_chain(("a",), seed=3)
        obs = np.full((5, 2), -1, dtype=np.int16)
        post = forward_backward(chain, Evidence(obs))
        np.testing.assert_allclose(post.log_likelihood, 0.0, atol=1e-12)

    def test_gold_tag_clamp_concentrates_tag_marginals(self):
        chain = make_chain(("a", "b"), seed=4)
        tags = chain.model.tags
        gold = [0, tags.begin(0), tags.end(0), 0, tags.single(1)]
        rng = np.random.default_rng(0)
        obs = random_obs(chain.model, 5, rng)
        ev = ClampedEvidence.from_tags(obs, gold, tags.size)
        post = forward_backward(chain, ev)
        marg = post.tag_marginals(chain)
        expect = np.zeros_like(marg)
        expect[np.arange(5), gold] = 1.0
        np.testing.assert_allclose(marg, expect, atol=1e-12)

    def test_first_dead_step_is_reported(self):
        chain = make_chain(("a",), seed=6)
        tags = chain.model.tags
        T = 4
        obs = random_obs(chain.model, T, np.random.default_rng(1))

        allowed = np.ones((T, tags.size), dtype=bool)
        allowed[0] = False
        allowed[0, tags.inside(0)] = True  # inside cannot start a document
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            forward_backward(chain, ClampedEvidence(obs, allowed))
        assert exc.value.step == 0

        allowed = np.zeros((T, tags.size), dtype=bool)
        allowed[:, 0] = True  # all background ...
        allowed[3, 0] = False
        allowed[3, tags.end(0)] = True  # ... then an end with no begin
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            viterbi(chain, ClampedEvidence(obs, allowed))
        assert exc.value.step == 3

    def test_nan_transition_raises_numeric_error(self):
        chain = make_chain(("a",), seed=6)
        obs = random_obs(chain.model, 4, np.random.default_rng(2))
        chain.log_trans[0, 0] = np.nan
        with pytest.raises(NumericError) as exc:
            forward_backward(chain, Evidence(obs))
        assert not isinstance(exc.value, ZeroProbabilityEvidence)


class TestViterbi:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(300)
        for chain, T, seed in cases():
            ev = random_evidence(chain, T, rng)
            path, score = viterbi(chain, ev)
            best_score, best_path = enumerate_best_path(chain, chain.log_emission(ev.obs))
            np.testing.assert_allclose(score, best_score, rtol=1e-9)
            # continuous random tables make the maximizer unique in practice
            np.testing.assert_array_equal(path, best_path)
            assert joint_log_prob(chain, path, ev.obs) == pytest.approx(score, rel=1e-9)

    def test_clamped_matches_enumeration(self):
        rng = np.random.default_rng(400)
        live = 0
        for chain, T, seed in cases():
            ev = random_evidence(chain, T, rng, clamp=True)
            log_clamp = clamp_mask_by_hand(chain, ev)
            best_score, best_path = enumerate_best_path(
                chain, chain.log_emission(ev.obs), log_clamp
            )
            if best_score == -np.inf:
                with pytest.raises(ZeroProbabilityEvidence):
                    viterbi(chain, ev)
                continue
            path, score = viterbi(chain, ev)
            np.testing.assert_allclose(score, best_score, rtol=1e-9)
            np.testing.assert_array_equal(path, best_path)
            live += 1
        assert live >= 10

    def test_single_token(self):
        chain = make_chain(("a",), seed=9)
        obs = random_obs(chain.model, 1, np.random.default_rng(2))
        path, score = viterbi(chain, Evidence(obs))
        assert path.shape == (1,)
        expect = chain.log_init + chain.log_emission(obs)[0]
        assert score == pytest.approx(float(np.max(expect)))
        post = forward_backward(chain, Evidence(obs))
        assert post.xi_sum.sum() == 0.0

    def test_empty_document(self):
        chain = make_chain(("a",), seed=9)
        obs = np.zeros((0, len(chain.model.observables)), dtype=np.int16)
        path, score = viterbi(chain, Evidence(obs))
        assert path.shape == (0,)
        assert score == 0.0
        post = forward_backward(chain, Evidence(obs))
        assert post.log_likelihood == 0.0
        assert post.gamma.shape == (0, chain.n_states)
        assert post.xi_sum.shape == (chain.n_states, chain.n_states)
        assert post.xi_sum.sum() == 0.0


def assert_same_outcome(chain, ev):
    """``viterbi`` and ``viterbi_reference`` agree bit for bit, or raise at one step."""
    try:
        want_path, want_score = viterbi_reference(chain, ev)
    except ZeroProbabilityEvidence as want:
        with pytest.raises(ZeroProbabilityEvidence) as got:
            viterbi(chain, ev)
        assert got.value.step == want.step
        return False
    path, score = viterbi(chain, ev)
    np.testing.assert_array_equal(path, want_path)
    assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
    return True


class TestViterbiMatchesReference:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_random_chains(self, clamp):
        rng = np.random.default_rng(500 + clamp)
        outcomes = [
            assert_same_outcome(chain, random_evidence(chain, T, rng, clamp=clamp))
            for chain, T, seed in cases()
        ]
        assert sum(outcomes) >= 10

    @pytest.mark.parametrize("memory", [True, False])
    def test_forced_ties_break_toward_lowest_index(self, memory):
        chain = make_chain(("a", "b"), memory=memory, seed=4)
        for table in (chain.log_init, chain.log_trans):
            table[np.isfinite(table)] = np.log(0.5)
        for T in (1, 2, 5, 9):
            obs = np.full((T, len(chain.model.observables)), -1, dtype=np.int16)
            assert assert_same_outcome(chain, Evidence(obs))
        # every live state ties at the last step, so the path ends in the
        # lowest-numbered one
        path, _ = viterbi(chain, Evidence(obs))
        reachable = np.isfinite(chain.log_init) | np.isfinite(chain.log_trans).any(axis=0)
        assert path[-1] == np.flatnonzero(reachable).min()

    def test_dead_evidence_raises_at_the_same_step(self):
        chain = make_chain(("a",), seed=6)
        T = 6
        obs = random_obs(chain.model, T, np.random.default_rng(3))
        for step in range(T):
            allowed_ds = np.ones((T, 2), dtype=bool)
            allowed_ds[step] = False
            with pytest.raises(ZeroProbabilityEvidence) as exc:
                viterbi(chain, ClampedEvidence(obs, allowed_ds=allowed_ds))
            assert exc.value.step == step
            assert not assert_same_outcome(chain, ClampedEvidence(obs, allowed_ds=allowed_ds))

    @pytest.mark.parametrize("step", [0, 20, 39])
    def test_dead_step_of_a_long_document_on_the_full_chain(self, step):
        chain = make_chain(FOUR_FIELDS, seed=5)
        assert chain.n_states == 42
        T = 40
        obs = random_obs(chain.model, T, np.random.default_rng(step))
        allowed_ds = np.ones((T, 2), dtype=bool)
        allowed_ds[step] = False
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            viterbi(chain, ClampedEvidence(obs, allowed_ds=allowed_ds))
        assert exc.value.step == step
        assert not assert_same_outcome(chain, ClampedEvidence(obs, allowed_ds=allowed_ds))

    def test_nan_transition_on_the_full_chain(self):
        """A NaN in one finite move reaches every later step's scores, where
        the reference recursion scores NaN, or raises at a dead first step;
        ``viterbi`` refuses it with :class:`InvalidSpec` whatever step is
        dead, as ``viterbi_batch`` does before any work."""
        rng = np.random.default_rng(700)
        T = 40
        raised = 0
        for k in range(21):
            chain = make_chain(FOUR_FIELDS, seed=5)
            finite = np.flatnonzero(np.isfinite(chain.log_trans))
            chain.log_trans.flat[rng.choice(finite)] = np.nan
            allowed_ds = np.ones((T, 2), dtype=bool)
            # no dead step, a dead first step, or a dead step that comes after the NaN
            if k % 3:
                allowed_ds[0 if k % 3 == 1 else rng.integers(1, T)] = False
            ev = ClampedEvidence(random_obs(chain.model, T, rng), allowed_ds=allowed_ds)
            try:
                assert np.isnan(viterbi_reference(chain, ev)[1])
            except ZeroProbabilityEvidence:
                raised += 1
            with pytest.raises(InvalidSpec, match=r"hold NaN or \+inf"):
                viterbi(chain, ev)
        assert raised == 7


def mixed_batches(clamp):
    """Per ``cases()`` chain, plus the four-field chain with memory (42
    states) and without (34), one batch of random evidence with lengths
    0 to 9 in random order, longer than one packed chunk."""
    rng = np.random.default_rng(600 + clamp)
    chains = {id(chain): chain for chain, _, _ in cases()}
    chains = [*chains.values()]
    chains += [make_chain(FOUR_FIELDS, memory=m, seed=5) for m in (True, False)]
    for chain in chains:
        lengths = rng.permutation(np.arange(CHUNK + 7) % 10)
        yield chain, [random_evidence(chain, int(T), rng, clamp=clamp) for T in lengths]


def stacked(chain, evidences):
    """The ``(table, rows, lengths)`` input of ``viterbi_batch`` for
    ``evidences``: their ``log_emission`` rows stacked into one table, so
    that clamps become -inf rows, every token's row number into it, and
    the documents' lengths."""
    emis = [ev.log_emission(chain) for ev in evidences]
    table = np.concatenate([np.zeros((0, chain.n_states)), *emis])
    return table, np.arange(len(table)), [len(ev) for ev in evidences]


class TestViterbiBatch:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_matches_reference(self, clamp):
        n_states = set()
        for chain, batch in mixed_batches(clamp):
            n_states.add(chain.n_states)
            live = []
            for ev in batch:
                try:
                    live.append((ev, viterbi_reference(chain, ev)))
                except ZeroProbabilityEvidence:
                    pass
            assert len(live) > CHUNK
            got = viterbi_batch(chain, *stacked(chain, [ev for ev, _ in live]))
            for (path, score), (_, (want_path, want_score)) in zip(got, live, strict=True):
                np.testing.assert_array_equal(path, want_path)
                assert path.dtype == want_path.dtype
                assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
        assert {42, 34} < n_states

    def test_empty_and_single_token_documents(self):
        chain = make_chain(("a", "b"), seed=9)
        rng = np.random.default_rng(7)
        batch = [random_evidence(chain, T, rng) for T in (0, 1, 0, 1, 3)]
        got = viterbi_batch(chain, *stacked(chain, batch))
        for (path, score), ev in zip(got, batch, strict=True):
            want_path, want_score = viterbi_reference(chain, ev)
            np.testing.assert_array_equal(path, want_path)
            assert score == want_score
        assert got[0][0].shape == (0,) and got[0][1] == 0.0
        empty = viterbi_batch(chain, *stacked(chain, [batch[0], batch[2]]))
        assert [path.shape for path, _ in empty] == [(0,), (0,)]
        [(path, score)] = viterbi_batch(chain, *stacked(chain, [batch[4]]))
        np.testing.assert_array_equal(path, got[4][0])
        assert score == got[4][1]
        assert viterbi_batch(chain, *stacked(chain, [])) == []

    @pytest.mark.parametrize("memory", [True, False])
    def test_forced_ties_break_toward_lowest_index(self, memory):
        """In one chunk, and with documents of one length at ranks 20 to
        39, across the edge between the first chunk and the second.
        Every finite move scores log(0.5) + log(0.5), so every document
        ties and the guard sends it to ``viterbi``."""
        chain = make_chain(("a", "b"), memory=memory, seed=4)
        for table in (chain.log_init, chain.log_ds, chain.pair_trans):
            table[np.isfinite(table)] = np.log(0.5)
        rejoin(chain)
        K = len(chain.model.observables)
        across = np.random.default_rng(8).permutation([9] * 20 + [5] * 20 + [1] * 5).tolist()
        for lengths in ((1, 9, 2, 5, 9), across):
            batch = [Evidence(np.full((T, K), -1, dtype=np.int16)) for T in lengths]
            got = viterbi_batch(chain, *stacked(chain, batch))
            for (path, score), ev in zip(got, batch, strict=True):
                want_path, want_score = viterbi_reference(chain, ev)
                np.testing.assert_array_equal(path, want_path)
                assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    def test_dead_document_raises_at_its_reference_step(self):
        chain = make_chain(("a",), seed=6)
        rng = np.random.default_rng(3)
        batch = [random_evidence(chain, T, rng) for T in (4, 7, 6, 2, 8)]
        for doc, step in ((2, 3), (4, 0)):
            allowed_ds = np.ones((len(batch[doc]), 2), dtype=bool)
            allowed_ds[step] = False
            dying = list(batch)
            dying[doc] = ClampedEvidence(batch[doc].obs, allowed_ds=allowed_ds)
            with pytest.raises(ZeroProbabilityEvidence) as want:
                viterbi_reference(chain, dying[doc])
            with pytest.raises(ZeroProbabilityEvidence) as got:
                viterbi_batch(chain, *stacked(chain, dying))
            assert got.value.step == want.value.step == step

    def test_first_dead_document_in_input_order_is_reported(self):
        """The later-sorted (shorter) document dies first in input order.
        In the second batch it sorts into the second chunk, and dies at
        step 4, after document 7 of the first chunk dies at step 1."""
        chain = make_chain(("a",), seed=6)
        rng = np.random.default_rng(4)
        for lengths, dying, step in (
            ([3, 8], {0: 1, 1: 5}, 1),
            ([6] + [9] * (CHUNK + 4), {0: 4, 7: 1}, 4),
        ):
            batch = []
            for i, T in enumerate(lengths):
                allowed_ds = np.ones((T, 2), dtype=bool)
                if i in dying:
                    allowed_ds[dying[i]] = False
                obs = random_obs(chain.model, T, rng)
                batch.append(ClampedEvidence(obs, allowed_ds=allowed_ds))
            with pytest.raises(ZeroProbabilityEvidence) as want:
                viterbi_reference(chain, batch[0])
            with pytest.raises(ZeroProbabilityEvidence) as got:
                viterbi_batch(chain, *stacked(chain, batch))
            assert got.value.step == want.value.step == step

    @pytest.mark.parametrize("n_docs, n_empty", [
        (32, 0), (33, 1), (64, 32), (65, 32), (97, 0), (97, 33),
    ])
    def test_chunk_edges_match_reference(self, n_docs, n_empty):
        """Whole chunks, a last chunk of one document (33, 65 and 97
        documents), and zero-token documents, which sort last, starting at
        a chunk edge (33, 64 and 97 with 33 empty) or straddling one (65)."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        rng = np.random.default_rng(100 * n_docs + n_empty)
        lengths = np.r_[rng.integers(1, 12, n_docs - n_empty), np.zeros(n_empty, dtype=int)]
        batch = [random_evidence(chain, int(T), rng) for T in rng.permutation(lengths)]
        got = viterbi_batch(chain, *stacked(chain, batch))
        for (path, score), ev in zip(got, batch, strict=True):
            want_path, want_score = viterbi_reference(chain, ev)
            np.testing.assert_array_equal(path, want_path)
            assert path.dtype == want_path.dtype
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    def test_one_layout_per_batch(self, monkeypatch):
        """A batch of four chunks is packed in one layout."""
        built = []

        class Counted(inference.TimeMajor):
            def __init__(self, lengths):
                built.append(len(lengths))
                super().__init__(lengths)

        monkeypatch.setattr(inference, "TimeMajor", Counted)
        chain = make_chain(("a",), seed=6)
        rng = np.random.default_rng(9)
        batch = [random_evidence(chain, T, rng) for T in rng.integers(0, 8, 3 * CHUNK + 1)]
        assert len(viterbi_batch(chain, *stacked(chain, batch))) == len(batch)
        assert built == [len(batch)]

    @pytest.mark.parametrize("bad", [
        lambda table, rows: (table[:, :-1], rows),
        lambda table, rows: (np.hstack([table, table[:, :1]]), rows),
        lambda table, rows: (np.zeros(table.shape, dtype=np.int64), rows),
        lambda table, rows: (table.astype(np.float32), rows),
        lambda table, rows: (table[0], rows),
        lambda table, rows: (table, np.r_[rows[:-1], -1]),
        lambda table, rows: (table, np.r_[rows[:-1], len(table)]),
        lambda table, rows: (table, rows.astype(float)),
        lambda table, rows: (table, rows[:, None]),
        lambda table, rows: (table, np.array(0)),
    ], ids=["narrow-table", "wide-table", "integer-table", "float32-table", "1-d-table",
            "negative-row", "row-past-table", "float-rows", "2-d-rows", "0-d-row"])
    def test_malformed_input_is_a_typed_error(self, bad):
        """Before any decoding: a -1 row would read the table's last row, a
        float32 table would decode in float32, and the others would raise
        from inside numpy."""
        chain = make_chain(("a",), seed=6)
        batch = [random_evidence(chain, T, np.random.default_rng(T)) for T in (3, 5)]
        table, rows, lengths = stacked(chain, batch)
        table, rows = bad(table, rows)
        with pytest.raises(InvalidSpec, match="must be a float64"):
            viterbi_batch(chain, table, rows, lengths)

    @pytest.mark.parametrize("lengths, match", [
        ([3, 4], "do not split 8"),
        ([3, 6], "do not split 8"),
        ([9, -1], "do not split 8"),
        ([3.0, 5.0], "lengths must be a 1-D integer array"),
        ([[3, 5]], "lengths must be a 1-D integer array"),
    ], ids=["short", "long", "negative", "float", "2-d"])
    def test_lengths_that_do_not_split_the_rows_raise(self, lengths, match):
        chain = make_chain(("a",), seed=6)
        batch = [random_evidence(chain, T, np.random.default_rng(T)) for T in (3, 5)]
        table, rows, _ = stacked(chain, batch)
        with pytest.raises(InvalidSpec, match=match):
            viterbi_batch(chain, table, rows, lengths)

    def assert_matches_reference(self, chain, batch):
        got = viterbi_batch(chain, *stacked(chain, batch))
        for (path, score), ev in zip(got, batch, strict=True):
            want_path, want_score = viterbi_reference(chain, ev)
            np.testing.assert_array_equal(path, want_path)
            assert path.dtype == want_path.dtype
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    @pytest.mark.parametrize("memory, n_states, sums", [(True, 42, 932), (False, 34, 676)])
    def test_states_with_few_predecessors_are_scored_over_their_own(self, memory, n_states, sums):
        """The cut that forms the fewest sums per document-step, on the
        four-field chains; each short list holds its state's predecessors
        in index order, padded with its last one."""
        chain = make_chain(FOUR_FIELDS, memory=memory, seed=5)
        many, few, preds = inference._split_by_in_degree(chain.log_trans)
        assert len(many) + len(few) == chain.n_states == n_states
        assert sorted([*many, *few]) == list(range(n_states))
        assert preds.size + len(many) * n_states == sums
        for state, listed in zip(few, preds.T, strict=True):
            own = np.flatnonzero(np.isfinite(chain.log_trans[:, state]))
            padded = own[np.minimum(np.arange(len(listed)), len(own) - 1)]
            np.testing.assert_array_equal(listed, padded)

    def test_a_state_with_no_finite_predecessor(self):
        """Only the first token can take an inside state whose every move
        in is -inf; the state sorts into the short lists, and so does its
        pair, which the kernel splits."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        inside = int(np.flatnonzero(chain.tag_of == chain.model.tags.inside(0))[0])
        chain.pair_trans[:, :, inside // 2] = -np.inf
        rejoin(chain)
        _, few, preds = inference._split_by_in_degree(chain.log_trans)
        assert inside in few
        assert np.isneginf(chain.log_trans[preds[:, list(few).index(inside)], inside]).all()
        _, few, preds = inference._split_by_in_degree(chain.pair_trans.max(axis=1))
        listed = preds[:, list(few).index(inside // 2)]
        assert np.isneginf(chain.pair_trans[listed, :, inside // 2]).all()
        rng = np.random.default_rng(11)
        self.assert_matches_reference(
            chain, [random_evidence(chain, int(T), rng) for T in rng.integers(0, 12, 40)]
        )

    def test_no_state_qualifies_for_the_short_lists(self):
        """Every move finite: each state is scored over all of them."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        rng = np.random.default_rng(12)
        dead = ~np.isfinite(chain.pair_trans)
        chain.pair_trans[dead] = np.log(rng.uniform(1e-3, 1e-2, dead.sum()))
        rejoin(chain)
        many, few, _ = inference._split_by_in_degree(chain.log_trans)
        assert len(few) == 0 and len(many) == chain.n_states
        many, few, _ = inference._split_by_in_degree(chain.pair_trans.max(axis=1))
        assert len(few) == 0 and len(many) == chain.n_states // 2
        self.assert_matches_reference(
            chain, [random_evidence(chain, int(T), rng) for T in rng.integers(0, 12, 40)]
        )

    @pytest.mark.parametrize("n_docs, n_empty", [
        (32, 0), (33, 1), (64, 32), (65, 32), (97, 0), (97, 33),
    ])
    def test_chunk_edges_match_reference_without_memory(self, n_docs, n_empty):
        """``test_chunk_edges_match_reference`` on the 34-state chain."""
        chain = make_chain(FOUR_FIELDS, memory=False, seed=5)
        assert chain.n_states == 34
        rng = np.random.default_rng(100 * n_docs + n_empty + 1)
        lengths = np.r_[rng.integers(1, 12, n_docs - n_empty), np.zeros(n_empty, dtype=int)]
        self.assert_matches_reference(
            chain, [random_evidence(chain, int(T), rng) for T in rng.permutation(lengths)]
        )

    @pytest.mark.parametrize("where, value", [
        ("log_trans", np.nan), ("log_trans", np.inf), ("log_init", np.nan),
        ("emission table", np.nan), ("emission table", np.inf),
    ], ids=["nan-move", "inf-move", "nan-init", "nan-table-row", "inf-table"])
    def test_nan_or_inf_scores_are_a_typed_error(self, where, value):
        """With these, ``viterbi``'s sums can be NaN (a NaN, or +inf plus
        a -inf move), which the batched decode, skipping most -inf moves,
        would not reproduce."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        rng = np.random.default_rng(13)
        table, rows, lengths = stacked(chain, [random_evidence(chain, T, rng) for T in (4, 6)])
        if where == "emission table":
            table[3, 7 if value == np.inf else slice(None)] = value
        else:
            scores = getattr(chain, where)
            scores.flat[rng.choice(np.flatnonzero(np.isfinite(scores)))] = value
        with pytest.raises(InvalidSpec, match=f"the {where} holds NaN or"):
            viterbi_batch(chain, table, rows, lengths)


class Scored:
    """Evidence given as its ``(T, S)`` emission scores."""

    def __init__(self, scores):
        self.scores = scores

    def __len__(self):
        return len(self.scores)

    def log_emission(self, chain):
        return self.scores


# a refusal comes with no numpy warning before it
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteScores:
    """``viterbi`` refuses what ``viterbi_batch`` refuses: emission scores
    that are not a float64 ``(T, S)`` array, and a NaN or +inf in them or
    in the chain's ``log_init`` or ``log_trans``."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["emission", "log_init", "log_trans"])
    def test_a_nan_or_inf_anywhere_is_refused_by_both_decoders(self, where, value, seed):
        chain = make_chain(FOUR_FIELDS, seed=5)
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2 if where == "log_trans" else 1, 12))
        scores = random_evidence(chain, T, rng).log_emission(chain)
        target = scores if where == "emission" else getattr(chain, where)
        target.flat[rng.integers(target.size)] = value
        with pytest.raises(InvalidSpec, match=r"NaN or \+inf"):
            viterbi(chain, Scored(scores))
        with pytest.raises(InvalidSpec, match=r"NaN or \+inf"):
            viterbi_batch(chain, scores, np.arange(T), [T])

    @pytest.mark.parametrize("bad", [
        lambda s: s[:, :5],
        lambda s: np.c_[s, s[:, :1]],
        lambda s: s.astype(np.float32),
        lambda s: s.astype(int),
        lambda s: s[0],
        lambda s: s[..., None],
        lambda s: s[:, :5].tolist(),
    ], ids=["narrow", "wide", "float32", "integer", "1-d", "3-d", "narrow-list"])
    def test_scores_of_the_wrong_shape_or_dtype_are_refused(self, bad):
        chain = make_chain(FOUR_FIELDS, seed=5)
        scores = random_evidence(chain, 10, np.random.default_rng(14)).log_emission(chain)
        with pytest.raises(InvalidSpec, match=r"emissions must be a float64 \(T, 42\) array"):
            viterbi(chain, Scored(bad(scores)))

    def test_scores_given_as_a_list_are_read_as_an_array(self):
        chain = make_chain(FOUR_FIELDS, seed=5)
        scores = random_evidence(chain, 10, np.random.default_rng(14)).log_emission(chain)
        path, score = viterbi(chain, Scored(scores))
        got_path, got_score = viterbi(chain, Scored(scores.tolist()))
        np.testing.assert_array_equal(got_path, path)
        assert got_score == score


class TestFactoredViterbiBatch:
    """The factored forward pass, its guard and the chain's factors."""

    @pytest.mark.parametrize("memory", [True, False])
    def test_factors_rebuild_log_trans_bit_for_bit(self, memory):
        """Pair p is the (tag, memory) of states 2p and 2p + 1; the sum of
        the factors is ``log_trans``, and so is the flat build from the
        CPTs: segment move plus tag move, -inf where the memory does not
        follow."""
        chain = make_chain(FOUR_FIELDS, memory=memory, seed=5)
        S = chain.n_states
        assert S == (42 if memory else 34)
        pair, ds = np.arange(S) // 2, chain.ds_of
        np.testing.assert_array_equal(ds, np.arange(S) % 2)
        np.testing.assert_array_equal(chain.tag_of[0::2], chain.tag_of[1::2])
        np.testing.assert_array_equal(chain.lt_of[0::2], chain.lt_of[1::2])
        assert chain.log_ds.shape == (2, 2) and chain.pair_trans.shape == (S // 2, 2, S // 2)
        rebuilt = chain.log_ds[ds[:, None], ds] + chain.pair_trans[pair[:, None], ds, pair]
        assert rebuilt.tobytes() == chain.log_trans.tobytes()
        m, tag, lt = chain.model, chain.tag_of, chain.lt_of
        flat = (
            m.cpts["ds_trans"].log_table()[ds[:, None], ds]
            + m.cpts["tag_trans"].log_table()[tag[:, None], lt[:, None], ds, tag]
        )
        flat = np.where(lt == m.next_lt[lt[:, None], tag], flat, -np.inf)
        assert flat.tobytes() == chain.log_trans.tobytes()

    @pytest.mark.parametrize("memory, pairs, sums", [(True, 21, 550), (False, 17, 406)])
    def test_pairs_with_few_predecessors_are_scored_over_their_own(self, memory, pairs, sums):
        """Stage 1 forms 4P sums per document-step; stage 2 forms, per
        next segment, the sums of the split over pairs."""
        chain = make_chain(FOUR_FIELDS, memory=memory, seed=5)
        many, few, preds = inference._split_by_in_degree(chain.pair_trans.max(axis=1))
        assert len(many) + len(few) == chain.n_states // 2 == pairs
        assert 4 * pairs + 2 * (preds.size + len(many) * pairs) == sums

    def test_a_cpt_written_after_compiling_changes_nothing(self):
        """The chain holds its factors from compile time: a later write to
        the model's segment and tag CPTs reaches neither them nor a
        batched decode, only a fresh compile."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        rng = np.random.default_rng(15)
        args = stacked(chain, [random_evidence(chain, int(T), rng) for T in rng.integers(0, 12, 20)])
        before = viterbi_batch(chain, *args)
        factors = [chain.log_ds.tobytes(), chain.pair_trans.tobytes(), chain.log_trans.tobytes()]
        for name in ("ds_trans", "tag_trans"):
            cpt = chain.model.cpts[name]
            cpt.table[...] = cpt.allowed / cpt.allowed.sum(axis=-1, keepdims=True)
        assert compile_chain(chain.model).pair_trans.tobytes() != factors[1]
        assert [chain.log_ds.tobytes(), chain.pair_trans.tobytes(),
                chain.log_trans.tobytes()] == factors
        for (path, score), (want_path, want_score) in zip(
            viterbi_batch(chain, *args), before, strict=True
        ):
            assert path.tobytes() == want_path.tobytes()
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    @pytest.mark.parametrize("where", ["finite", "-inf"])
    def test_a_log_trans_written_by_hand_is_a_typed_error(self, where):
        """A finite move nudged, or deleted (-inf): ``viterbi`` would
        score that chain and the batched decode its factors, so the
        batched decode refuses it."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        args = stacked(chain, [random_evidence(chain, T, np.random.default_rng(T)) for T in (3, 5)])
        move = np.flatnonzero(np.isfinite(chain.log_trans))[7]
        chain.log_trans.flat[move] = chain.log_trans.flat[move] - 1e-3 if where == "finite" else -np.inf
        with pytest.raises(InvalidSpec, match="not the sum of the chain's log_ds and pair_trans"):
            viterbi_batch(chain, *args)

    def test_an_exact_tie_that_the_factored_sums_break_goes_to_viterbi(self, monkeypatch):
        """A three-token document whose step-1 state is tied exactly in
        ``viterbi``'s flat sums, between the background state i and the
        begin state i2 > i, each the only finite predecessor of one pair.
        The factored forward scores put i2 ahead by a rounding, so the
        backtrace alone would pick it. Its margin is within the bound, so
        the document is decoded by ``viterbi``, which keeps the lowest
        index; the other documents of the batch are not."""
        chain = make_chain(FOUR_FIELDS, seed=5)
        state = {triple: k for k, triple in enumerate(chain.states)}
        tags = chain.model.tags
        i, i2, j = state[0, 0, 0], state[tags.begin(0), 1, 0], state[tags.begin(1), 2, 0]
        assert i < i2 and i // 2 != i2 // 2
        L, PT, LT = chain.log_ds, chain.pair_trans, chain.log_trans

        def flat(b0, x, k):
            """``viterbi``'s sum for the move k -> j at step 2: step 0 in i
            scoring b0, k's emission x."""
            return ((b0 + LT[i, k]) + x) + LT[k, j]

        def factored(b0, x, k):
            """The same sum over the factored forward score of k."""
            return (((b0 + L[0, 0]) + PT[0, 0, k // 2]) + x) + LT[k, j]

        rng = np.random.default_rng(21)
        for _ in range(1000):
            e0, x = rng.uniform(-3, -1, 2).tolist()
            b0 = chain.log_init[i] + e0
            target = flat(b0, x, i)
            y = target - LT[i2, j] - (b0 + LT[i, i2])
            for _ in range(64):  # walk y to an exact flat tie
                if flat(b0, y, i2) == target:
                    break
                y = np.nextafter(y, np.inf if flat(b0, y, i2) < target else -np.inf)
            if flat(b0, y, i2) == target and factored(b0, y, i2) > factored(b0, x, i):
                break
        else:
            pytest.fail("no flat tie that the factored sums break the other way")
        tie = np.full((3, chain.n_states), -np.inf)
        tie[0, i], tie[1, [i, i2]], tie[2, j] = e0, [x, y], 0.0
        others = [random_evidence(chain, int(T), rng) for T in rng.integers(1, 12, 40)]
        batch = others[:20] + [Scored(tie)] + others[20:]
        decoded = []
        real = inference._viterbi
        monkeypatch.setattr(inference, "_viterbi",
                            lambda chain, emis: decoded.append(emis.copy()) or real(chain, emis))
        got = viterbi_batch(chain, *stacked(chain, batch))
        assert len(decoded) == 1 and decoded[0].tobytes() == tie.tobytes()
        want_path, want_score = viterbi_reference(chain, Scored(tie))
        np.testing.assert_array_equal(want_path, [i, i, j])
        for (path, score), ev in zip(got, batch, strict=True):
            want_path, want_score = viterbi_reference(chain, ev)
            np.testing.assert_array_equal(path, want_path)
            assert np.float64(score).tobytes() == np.float64(want_score).tobytes()

    @pytest.mark.parametrize("memory", [True, False])
    def test_the_library_chunk_width_matches_reference(self, memory, monkeypatch):
        """At the library's own width: one whole chunk, and one more
        document, which sorts into a second chunk."""
        monkeypatch.setattr(inference, "_BATCH_DOCS", BATCH_DOCS)
        chain = make_chain(FOUR_FIELDS, memory=memory, seed=5)
        rng = np.random.default_rng(16 + memory)
        for n_docs in (BATCH_DOCS, BATCH_DOCS + 1):
            lengths = rng.integers(0, 10, n_docs)
            lengths[0] = 10  # the longest, so that the last document sorts alone
            TestViterbiBatch().assert_matches_reference(
                chain, [random_evidence(chain, int(T), rng) for T in lengths]
            )


def ladder_lengths(rungs):
    """Document lengths on a geometric ladder: 2 ** (rungs - 1 - k)
    documents of 2 ** k tokens for each k, so that the live count halves
    at every doubling of the step, plus one zero-token document."""
    return [2**k for k in range(rungs) for _ in range(2 ** (rungs - 1 - k))] + [0]


class TestNarrowing:
    """The forward pass builds its stage buffers again, narrower, as the
    documents of a chunk end (``_widths``)."""

    @pytest.mark.parametrize("width", ["chunk", "library"])
    @pytest.mark.parametrize("memory", [True, False], ids=["memory", "no-memory"])
    def test_a_halving_batch_matches_reference(self, width, memory, monkeypatch):
        """Every width a chunk narrows to decodes bit for bit; the ladder
        holds one-token documents (its first rung) and a zero-token one."""
        if width == "library":
            monkeypatch.setattr(inference, "_BATCH_DOCS", BATCH_DOCS)
        chain = make_chain(FOUR_FIELDS, memory=memory, seed=7)
        rng = np.random.default_rng(21 + memory)
        lengths = rng.permutation(ladder_lengths(7))
        assert len(lengths) == 128 and max(lengths) == 64
        TestViterbiBatch().assert_matches_reference(
            chain, [random_evidence(chain, int(T), rng) for T in lengths]
        )

    @pytest.mark.parametrize("counts", [
        [], [1], [5, 5, 3, 2], [32, 31, 16, 16, 15, 8, 7, 4, 3, 2, 1],
        [97, 97, 60, 48, 48, 30, 24, 12, 12, 11, 6, 5, 1],
    ])
    def test_no_step_runs_wider_than_twice_its_live_count(self, counts):
        widths = inference._widths(counts)
        assert len(widths) == len(counts)
        assert widths[:1] == counts[:1]
        for w, m in zip(widths, counts):
            assert m <= w < 2 * m
        assert all(a >= b for a, b in itertools.pairwise(widths))

    def test_the_pass_narrows_by_its_width_rule(self, monkeypatch):
        """Per chunk, the pass asks ``_widths`` for its steps' widths, with
        one live count per step past the first; on the ladder they halve
        down to one column."""
        seen, real = [], inference._widths
        monkeypatch.setattr(inference, "_widths",
                            lambda counts: seen.append(counts) or real(counts))
        chain = make_chain(("a", "b"), seed=8)
        rng = np.random.default_rng(23)
        lengths = ladder_lengths(6)
        viterbi_batch(chain, *stacked(chain, [random_evidence(chain, T, rng) for T in lengths]))
        assert len(seen) == -(-len(lengths) // CHUNK)
        assert seen[0] == [min(sum(T > t for T in lengths), CHUNK) for t in range(1, 32)]
        assert sorted(set(real(seen[0])), reverse=True) == [31, 15, 7, 3, 1]
