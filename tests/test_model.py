import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assignment_log_prob,
    joint_log_prob,
    random_obs,
    randomize_model,
    states_of_assignment,
    tag_name,
)

from bien.errors import InvalidSpec
from bien.model import (
    LT_NONE,
    ROLE_BACKGROUND,
    Cpt,
    TagSpace,
    TimeMajor,
    build_model,
    compile_chain,
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
        names = [tag_name(tags, t) for t in range(tags.size)]
        assert names == ["background"] + [
            f"{role}:{field}" for field in FIELDS4 for role in ("begin", "inside", "end", "single")
        ]
        assert names[tags.begin(0)] == "begin:speaker"
        assert names[tags.single(3)] == "single:etime"

    def test_roles_and_fields(self):
        tags = TagSpace(FIELDS4)
        assert tags.role_of[tags.inside(2)] == "inside"
        assert tags.fields[tags.field_index_of[tags.end(1)]] == "location"
        assert tags.field_index_of[0] is None

    @pytest.mark.parametrize("n_fields", [1, 2, 4])
    def test_role_and_field_tuples_follow_the_layout(self, n_fields):
        tags = TagSpace(FIELDS4[:n_fields])
        assert len(tags.role_of) == len(tags.field_index_of) == tags.size
        assert (tags.role_of[0], tags.field_index_of[0]) == (ROLE_BACKGROUND, None)
        for fi in range(n_fields):
            for role in ("begin", "inside", "end", "single"):
                tag = getattr(tags, role)(fi)
                assert (tags.role_of[tag], tags.field_index_of[tag]) == (role, fi)

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

    @pytest.mark.parametrize("make, match", [
        (lambda: TagSpace(()), "^fields must name at least one field$"),
        (lambda: TagSpace(("x", "x")), "^fields name 'x' twice$"),
    ], ids=["no-fields", "repeated-field"])
    def test_rejects_bad_fields(self, make, match):
        with pytest.raises(InvalidSpec, match=match):
            make()


def unnormalized_row(m):
    m.cpts["ds_init"].table[0] += 0.25


def negative_cell(m):
    m.cpts["ds_init"].table[:] = [1.5, -0.5]  # the row still sums to 1


def nan_row(m):
    m.cpts["emit:lemma"].table[1, 0, 2] = np.nan  # an allowed cell; no cell is negative


def mass_off_support(m):
    # after background, inside a field is off the support; the row still sums to 1
    row = m.cpts["tag_trans"].table[0, LT_NONE, 0]
    row[m.tags.inside(0)], row[0] = row[0], 0.0


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

    @pytest.mark.parametrize("memory", [True, False])
    def test_next_lt_is_the_memory_rule(self, memory):
        m = build_model(FIELDS4, OBS2, memory=memory)
        tags = m.tags
        assert m.next_lt.shape == (m.lt_card, tags.size)
        assert m.copy().next_lt is m.next_lt
        for lt in range(m.lt_card):
            for tag in range(tags.size):
                fi = tags.field_index_of[tag]
                if not memory:
                    expect = LT_NONE
                elif fi is None:
                    expect = lt
                else:
                    expect = fi + 1
                assert m.next_lt[lt, tag] == expect
        # the compiled states, enumerated longhand: background carries any
        # memory, a field tag only its own field's, and no memory carries 0
        states = []
        for tag in range(tags.size):
            fi = tags.field_index_of[tag]
            if not memory:
                lts = [LT_NONE]
            else:
                lts = range(m.lt_card) if fi is None else [fi + 1]
            states += [(tag, lt, ds) for lt in lts for ds in (0, 1)]
        chain = compile_chain(m)
        assert chain.states == tuple(sorted(states))
        assert chain.n_states == (42 if memory else 34)

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
        assert m.next_lt[0, m.tags.begin(1)] == 0

    @pytest.mark.parametrize("fault, match", [
        (unnormalized_row, "ds_init: a row sums to 1.25$"),
        (negative_cell, "ds_init: negative probability"),
        (mass_off_support, "tag_trans: mass outside allowed support"),
        (nan_row, "emit:lemma: a row sums to nan$"),
    ], ids=["unnormalized-row", "negative-cell", "off-support", "nan-row"])
    def test_validate_catches_unnormalized_rows(self, fault, match):
        m = small_model()
        fault(m)
        with pytest.raises(InvalidSpec, match=match):
            m.validate()

    @pytest.mark.parametrize("card", [0, 2.5, "3", None, True, np.bool_(True)])
    def test_bad_observable(self, card):
        with pytest.raises(
            InvalidSpec,
            match=re.escape(f"observable 'lemma': cardinality must be an int >= 1, got {card!r}"),
        ):
            build_model(("a",), {"lemma": card})

    @pytest.mark.parametrize("observables", [[("a", 3), ("a", 5)], (("a", 3),), None],
                             ids=["pairs", "tuple-of-pairs", "none"])
    def test_observables_must_be_a_dict(self, observables):
        with pytest.raises(InvalidSpec, match="observables must be a dict"):
            build_model(("stime",), observables)

    @pytest.mark.parametrize("fields", ["ab", "speaker", ""], ids=["letters", "one-name", "empty"])
    def test_fields_given_as_one_string_are_a_typed_error(self, fields):
        """A string is a sequence of its letters: ``"ab"`` would build the
        fields ``("a", "b")``."""
        with pytest.raises(InvalidSpec, match="^fields must be a sequence, not the str "):
            build_model(fields, {"lemma": 3})

    def test_copy_keeps_every_attribute_and_owns_its_tables(self):
        m = small_model()
        m.cpts["ds_init"].note = m.note = object()  # attributes added later are kept
        dup = m.copy()
        assert vars(dup).keys() == vars(m).keys() and dup.note is m.note
        assert dup.cpts.keys() == m.cpts.keys()
        for name, cpt in m.cpts.items():
            twin = dup.cpts[name]
            assert vars(twin).keys() == vars(cpt).keys()
            assert twin.table is not cpt.table and twin.allowed is not cpt.allowed
            assert (twin.table == cpt.table).all() and (twin.allowed == cpt.allowed).all()
        dup.cpts["ds_init"].table[:] = [1.0, 0.0]
        assert m.cpts["ds_init"].table.tolist() == [0.5, 0.5]


class TestCptRenormalize:
    """``Cpt.renormalize`` is the one writer of a table: the constructor,
    EM's M-step and its start jitter all call it."""

    def cpt(self):
        allowed = np.array([[[1, 0, 1], [1, 1, 1]], [[0, 1, 0], [0, 1, 1]]])
        return Cpt("c", ("a", "b"), (2, 2, 3), allowed=allowed)

    def test_a_fresh_table_is_uniform_over_the_support_bit_for_bit(self):
        for cpt in [self.cpt(), *small_model().cpts.values()]:
            want = cpt.allowed / cpt.allowed.sum(axis=-1, keepdims=True)
            assert cpt.table.tobytes() == want.tobytes(), cpt.name

    @given(weights=st.lists(st.floats(0, 1e6), min_size=12, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_cells_off_the_support_are_exactly_zero(self, weights):
        cpt = self.cpt()
        cpt.renormalize(np.reshape(weights, cpt.shape))
        assert (cpt.table[~cpt.allowed] == 0.0).all()
        np.testing.assert_allclose(cpt.table.sum(axis=-1), 1.0, atol=1e-12)

    def test_a_row_of_zero_weight_keeps_its_values(self):
        cpt = self.cpt()
        before = cpt.table.copy()
        weights = np.full(cpt.shape, 2.0)
        weights[0, 1] = 0.0  # a row with no weight on its support
        weights[1, 0] = [5.0, 0.0, 5.0]  # weight only off the support
        cpt.renormalize(weights)
        assert cpt.table[0, 1].tobytes() == before[0, 1].tobytes()
        assert cpt.table[1, 0].tobytes() == before[1, 0].tobytes()
        assert cpt.table[0, 0].tolist() == [0.5, 0.0, 0.5]
        assert cpt.table[1, 1].tolist() == [0.0, 0.5, 0.5]


class TestCptChecks:
    def test_a_parent_count_that_does_not_fit_the_shape_raises(self):
        with pytest.raises(InvalidSpec, match="1 parents for shape"):
            Cpt("c", ("a",), (2, 2, 3))

    def test_a_row_with_no_allowed_cell_raises(self):
        with pytest.raises(InvalidSpec, match="a row has no allowed cell"):
            Cpt("c", (), (2,), allowed=np.zeros(2, bool))


class TestCompiledChain:
    @pytest.mark.parametrize("n_fields", [1, 2, 3, 4])
    @pytest.mark.parametrize("memory, per_field", [(True, 10), (False, 8)])
    def test_state_count_follows_the_structure(self, n_fields, memory, per_field):
        """Background carries F + 1 memories with memory on and one
        without; each of the 4F field tags one; two segments each."""
        chain = compile_chain(build_model(FIELDS4[:n_fields], OBS2, memory=memory))
        assert chain.n_states == per_field * n_fields + 2

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
            fi = tags.field_index_of[tag]
            if fi is not None:
                assert lt == fi + 1

    def test_initial_mass_respects_memory_and_roles(self):
        chain = compile_chain(small_model())
        tags = chain.model.tags
        for s, (tag, lt, ds) in enumerate(chain.states):
            finite = np.isfinite(chain.log_init[s])
            if tag == 0:
                assert finite == (lt == LT_NONE)
            elif tags.role_of[tag] in ("begin", "single"):
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


class TestMask:
    """A model's mask names its own observables, and its chain adds
    nothing for their columns."""

    OBS = {"u": 3, "v": 2}

    def test_a_masked_observable_is_left_out_of_the_chains_scores(self):
        rng = np.random.default_rng(21)
        m = randomize_model(build_model(("a", "b"), self.OBS), rng)
        obs = random_obs(m, 6, rng)
        without_v, u_only = obs.copy(), np.full_like(obs, -1)
        without_v[:, 1] = -1
        u_only[:, 0] = obs[:, 0]
        masked = compile_chain(m.masked(("v",)))
        got = masked.log_emission(obs)
        assert got.tobytes() == compile_chain(m).log_emission(without_v).tobytes()
        assert got.tobytes() == masked.log_emission(u_only).tobytes()
        assert got.tobytes() != compile_chain(m).log_emission(obs).tobytes()
        assert (got != 0).any()  # u still scores
        # the masked column's codes are still range-checked
        bad = obs.copy()
        bad[0, 1] = 2
        with pytest.raises(InvalidSpec, match="cardinality"):
            masked.log_emission(bad)

    @pytest.mark.parametrize("mask", [("lemma",), ("u", "lemma")])
    def test_a_name_that_is_not_an_observable_raises(self, mask):
        m = build_model(("a",), self.OBS)
        with pytest.raises(InvalidSpec, match=r"\['lemma'\].*\['u', 'v'\]"):
            m.masked(mask)
        with pytest.raises(InvalidSpec, match="^mask must be a sequence, not the str 'u'$"):
            m.masked("u")

    def test_masked_is_a_copy_that_keeps_its_mask(self):
        m = randomize_model(build_model(("a",), self.OBS), np.random.default_rng(22))
        tables = {name: cpt.table.copy() for name, cpt in m.cpts.items()}
        masked = m.masked(iter(["v"]))  # a one-pass iterator is read once
        assert masked.mask == ("v",) and m.mask == ()
        assert masked.copy().mask == ("v",)
        masked.cpts["emit:u"].table[:] = 0.0
        for name, cpt in m.cpts.items():
            assert cpt.table.tobytes() == tables[name].tobytes(), name
        # a mask replaces the one before, and lists names in column order
        assert masked.masked(["v", "u", "v"]).mask == ("u", "v")
        assert masked.masked(()).mask == ()



class TestTimeMajor:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_layout(self, lengths):
        layout = TimeMajor(lengths)
        token_rows = layout.rows()
        D, N = len(lengths), sum(lengths)
        # stable, longest first
        assert layout.order.tolist() == sorted(range(D), key=lambda i: -lengths[i])
        # live counts never rise, and each step holds the documents longer than it
        live = layout.live.tolist()
        assert live == sorted(live, reverse=True)
        assert live == [sum(n > t for n in lengths) for t in range(max(lengths, default=0))]
        assert layout.starts.tolist() == [0, *np.cumsum(live).tolist()]
        # the packed rows are a permutation of the token rows
        assert sorted(token_rows.tolist()) == list(range(N))
        # token t of each document is a row of step t, at the same place in
        # step t as token t - 1 is in the previous-step slice
        rank = {int(d): r for r, d in enumerate(layout.order)}
        assert len(layout.steps) == len(live)
        offsets = np.cumsum([0, *lengths]).tolist()
        for d, n in enumerate(lengths):
            rows = token_rows[offsets[d] : offsets[d] + n].tolist()
            for t, row in enumerate(rows):
                cur, prev = layout.steps[t]
                assert cur.start <= row < cur.stop and row - cur.start == rank[d]
                if t == 0:
                    assert prev is None
                else:
                    assert prev.start <= rows[t - 1] < prev.stop
                    assert rows[t - 1] - prev.start == row - cur.start
                    assert prev.stop - prev.start == cur.stop - cur.start

    def test_all_empty(self):
        for lengths in ([], [0, 0, 0]):
            layout = TimeMajor(lengths)
            assert layout.steps == [] and layout.rows().size == layout.live.size == 0
            assert layout.starts.tolist() == [0]
            assert layout.order.tolist() == list(range(len(lengths)))
