import numpy as np
import pytest
from oracles import (
    assignment_log_prob,
    joint_log_prob,
    random_obs,
    randomize_model,
    states_of_assignment,
)

from bien.errors import (
    ChecksumMismatch,
    InvalidSpec,
    ModelFormatError,
    VersionMismatch,
)
from bien.model import (
    LT_NONE,
    ROLE_BACKGROUND,
    TagSpace,
    build_model,
    compile_chain,
    load_model,
    serialize_model,
)

FIELDS4 = ("speaker", "location", "stime", "etime")
OBS2 = {"lemma": 9, "case": 5}


def small_model(fields=("stime", "etime"), memory=True):
    return build_model(fields, OBS2, memory=memory)


class TestTagSpace:
    def test_layout(self):
        tags = TagSpace(FIELDS4)
        assert tags.size == 17
        assert tags.background == 0
        assert tags.name(0) == "background"
        assert tags.name(tags.tag("begin", "speaker")) == "begin:speaker"
        assert tags.name(tags.single(3)) == "single:etime"
        for t in range(tags.size):
            assert tags.parse(tags.name(t)) == t

    def test_roles_and_fields(self):
        tags = TagSpace(FIELDS4)
        assert tags.role(tags.inside(2)) == "inside"
        assert tags.field(tags.end(1)) == "location"
        assert tags.field(0) is None
        assert tags.field_index(0) is None

    def test_follow_rule(self):
        tags = TagSpace(("a", "b"))
        # inside/end of a field require begin/inside of the same field before
        for fi in (0, 1):
            for cur in (tags.inside(fi), tags.end(fi)):
                for prev in range(tags.size):
                    expect = prev in (tags.begin(fi), tags.inside(fi))
                    assert tags.allows_follow(prev, cur) == expect
        # everything else is structurally free
        for prev in range(tags.size):
            assert tags.allows_follow(prev, 0)
            for fi in (0, 1):
                assert tags.allows_follow(prev, tags.begin(fi))
                assert tags.allows_follow(prev, tags.single(fi))

    def test_initial_rule(self):
        tags = TagSpace(("a",))
        assert tags.allows_initial(0)
        assert tags.allows_initial(tags.begin(0))
        assert tags.allows_initial(tags.single(0))
        assert not tags.allows_initial(tags.inside(0))
        assert not tags.allows_initial(tags.end(0))

    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidSpec):
            TagSpace(())
        with pytest.raises(InvalidSpec):
            TagSpace(("x", "x"))


class TestModelStructure:
    def test_cpt_inventory(self):
        m = build_model(FIELDS4, OBS2)
        assert set(m.cpts) == {
            "ds_init", "ds_trans", "tag_init", "tag_trans", "emit:lemma", "emit:case",
        }
        assert m.cpts["tag_trans"].shape == (17, 5, 2, 17)
        assert m.cpts["tag_init"].shape == (2, 17)
        assert m.cpts["emit:lemma"].shape == (17, 2, 9)

    def test_structural_zeros_are_exactly_the_follow_rule(self):
        m = small_model()
        cpt = m.cpts["tag_trans"]
        tags = m.tags
        for tp in range(tags.size):
            for tc in range(tags.size):
                expect = tags.allows_follow(tp, tc)
                assert (cpt.allowed[tp, :, :, tc] == expect).all()
                if not expect:
                    assert (cpt.table[tp, :, :, tc] == 0.0).all()

    def test_unreachable_rows_flagged(self):
        m = small_model()
        cpt = m.cpts["tag_trans"]
        tags = m.tags
        for tp in range(tags.size):
            fi = tags.field_index(tp)
            for lt in range(m.lt_card):
                expect = True if fi is None else (lt == fi + 1)
                assert cpt.reachable[tp, lt, :].all() == expect

    def test_uniform_rows_normalize_over_allowed(self):
        m = build_model(FIELDS4, OBS2)
        for cpt in m.cpts.values():
            np.testing.assert_allclose(cpt.table.sum(axis=-1), 1.0, atol=1e-12)
            assert not np.where(~cpt.allowed, cpt.table, 0).any()
        m.validate()

    def test_no_memory_drops_last_target_axis(self):
        m = small_model(memory=False)
        assert m.lt_card == 1
        assert m.cpts["tag_trans"].shape == (9, 1, 2, 9)
        assert m.lt_update(0, m.tags.begin(1)) == 0

    def test_lt_update(self):
        m = small_model()
        tags = m.tags
        assert m.lt_update(LT_NONE, 0) == LT_NONE
        assert m.lt_update(LT_NONE, tags.begin(1)) == 2
        assert m.lt_update(2, 0) == 2
        assert m.lt_update(2, tags.single(0)) == 1

    def test_validate_catches_unnormalized_rows(self):
        m = small_model()
        m.cpts["ds_init"].table[0] += 0.25
        with pytest.raises(InvalidSpec):
            m.validate()

    def test_bad_observable(self):
        with pytest.raises(InvalidSpec):
            build_model(("a",), {"lemma": 0})


class TestCompiledChain:
    def test_state_count(self):
        for n_fields, fields in ((1, ("a",)), (2, ("a", "b")), (4, FIELDS4)):
            chain = compile_chain(build_model(fields, OBS2))
            assert chain.n_states == 10 * n_fields + 2
            assert chain.n_states <= 170
            assert len(set(chain.states)) == chain.n_states

    def test_state_count_without_memory(self):
        chain = compile_chain(build_model(FIELDS4, OBS2, memory=False))
        assert chain.n_states == 2 * (4 * 4 + 1)

    def test_field_states_carry_their_own_field_memory(self):
        chain = compile_chain(small_model())
        tags = chain.model.tags
        for tag, lt, ds in chain.states:
            fi = tags.field_index(tag)
            if fi is not None:
                assert lt == fi + 1

    def test_initial_mass_respects_memory_and_roles(self):
        chain = compile_chain(small_model())
        tags = chain.model.tags
        for s, (tag, lt, ds) in enumerate(chain.states):
            finite = np.isfinite(chain.log_init[s])
            if tag == 0:
                assert finite == (lt == LT_NONE)
            elif tags.role(tag) in ("begin", "single"):
                assert finite
            else:
                assert not finite

    def test_transition_rows_normalize(self):
        rng = np.random.default_rng(0)
        chain = compile_chain(randomize_model(small_model(), rng))
        probs = np.exp(chain.log_trans)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.exp(chain.log_init).sum(), 1.0, atol=1e-12)

    def test_assignment_probability_matches_cpt_product(self):
        rng = np.random.default_rng(42)
        for fields in (("a",), ("a", "b"), FIELDS4):
            for memory in (True, False):
                m = randomize_model(build_model(fields, OBS2, memory=memory), rng)
                chain = compile_chain(m)
                for _ in range(25):
                    T = int(rng.integers(1, 7))
                    tags_seq = rng.integers(0, m.tags.size, size=T)
                    ds_seq = rng.integers(0, 2, size=T)
                    obs = random_obs(m, T, rng, mask_rate=0.2)
                    direct = assignment_log_prob(m, tags_seq, ds_seq, obs)
                    states = states_of_assignment(chain, tags_seq, ds_seq)
                    via_chain = joint_log_prob(chain, states, obs)
                    if np.isfinite(direct) or np.isfinite(via_chain):
                        np.testing.assert_allclose(via_chain, direct, rtol=1e-12)

    def test_impossible_assignment_scores_minus_inf_both_ways(self):
        rng = np.random.default_rng(3)
        m = randomize_model(small_model(), rng)
        chain = compile_chain(m)
        tags_seq = [m.tags.inside(0), m.tags.end(0)]  # inside cannot start
        ds_seq = [0, 0]
        obs = random_obs(m, 2, rng)
        assert assignment_log_prob(m, tags_seq, ds_seq, obs) == -np.inf
        states = states_of_assignment(chain, tags_seq, ds_seq)
        assert joint_log_prob(chain, states, obs) == -np.inf

    def test_masked_observations_drop_factors(self):
        rng = np.random.default_rng(9)
        m = randomize_model(small_model(), rng)
        chain = compile_chain(m)
        obs = random_obs(m, 4, rng)
        all_masked = np.full_like(obs, -1)
        np.testing.assert_array_equal(chain.log_emission(all_masked), 0.0)
        partial = obs.copy()
        partial[:, 0] = -1
        emis = chain.log_emission(partial)
        assert np.isfinite(emis).all()


class TestSerialization:
    def roundtrip(self, m, tmp_path):
        path = tmp_path / "m.bien"
        serialize_model(m, path)
        return path, load_model(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = randomize_model(build_model(FIELDS4, OBS2), rng)
        path, again = self.roundtrip(m, tmp_path)
        assert again.fields == m.fields
        assert again.memory == m.memory
        assert again.observables == m.observables
        for name, cpt in m.cpts.items():
            other = again.cpts[name]
            assert np.array_equal(cpt.table, other.table)
            assert np.array_equal(cpt.allowed, other.allowed)

    @pytest.mark.parametrize("version", ["bien-model v1", "bien-model v9"])
    def test_version_mismatch(self, tmp_path, version):
        m = small_model()
        path = tmp_path / "m.bien"
        serialize_model(m, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("bien-model v2", version, 1))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_checksum_mismatch(self, tmp_path):
        m = small_model()
        path = tmp_path / "m.bien"
        serialize_model(m, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("memory 1", "memory 0", 1))
        with pytest.raises(ChecksumMismatch):
            load_model(path)

    def test_row_sum_validation_on_load(self, tmp_path):
        import hashlib

        m = small_model()
        path = tmp_path / "m.bien"
        serialize_model(m, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        body = "".join(lines[2:]).replace("row - 0.5 0.5", "row - 0.5 0.75", 1)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        path.write_text(lines[0] + f"checksum {digest}\n" + body)
        with pytest.raises(ModelFormatError):
            load_model(path)
