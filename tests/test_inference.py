import numpy as np
import pytest
from oracles import (
    enumerate_best_path,
    enumerate_posteriors,
    joint_log_prob,
    random_obs,
    randomize_model,
)

from bien.errors import NumericError, ZeroProbabilityEvidence
from bien.inference import Evidence, forward_backward, viterbi
from bien.model import build_model, compile_chain

OBS = {"lemma": 6, "case": 4}


def make_chain(fields, memory=True, seed=0):
    model = randomize_model(build_model(fields, OBS, memory=memory), np.random.default_rng(seed))
    return compile_chain(model)


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
    return Evidence(obs, allowed_tags, allowed_ds)


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
        ev = Evidence.from_tags(obs, gold, tags.size)
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
            forward_backward(chain, Evidence(obs, allowed))
        assert exc.value.step == 0

        allowed = np.zeros((T, tags.size), dtype=bool)
        allowed[:, 0] = True  # all background ...
        allowed[3, 0] = False
        allowed[3, tags.end(0)] = True  # ... then an end with no begin
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            viterbi(chain, Evidence(obs, allowed))
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
