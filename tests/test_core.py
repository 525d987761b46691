"""Unit tests for domain types, overlap measures, and basic operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblist.core import (
    ConcaveOverlap,
    FDivergenceOverlap,
    HellingerSquared,
    Instance,
    ItemPositionSet,
    PositionWeights,
    PowerOverlap,
    Sequence,
    Subdistribution,
    ValidationError,
    earliest,
    fg_set,
    hatfg_set,
    induced_distribution,
    seq_objective,
    validate_instance,
)


def make_instance(weights=(0.5, 0.3, 0.2)):
    """The two-genre, four-item catalog used throughout these tests."""
    return validate_instance(Instance(
        genres=("g1", "g2"),
        target=Subdistribution({"g1": 0.5, "g2": 0.5}),
        items=(
            ("i1", Subdistribution({"g1": 0.4, "g2": 0.6})),
            ("i2", Subdistribution({"g1": 0.8, "g2": 0.2})),
            ("i3", Subdistribution({"g1": 1.0})),
            ("i4", Subdistribution({"g2": 1.0})),
        ),
        weights=PositionWeights(weights),
        mode="distributional",
    ))


class TestSubdistribution:
    def test_zero_entries_dropped(self):
        d = Subdistribution({"a": 0.3, "b": 0.0})
        assert d.weights.keys() == {"a"}
        assert d.get("b") == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            Subdistribution({"a": -0.1})

    def test_mass_above_one_rejected(self):
        with pytest.raises(ValidationError):
            Subdistribution({"a": 0.7, "b": 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        # a NaN used to be dropped silently, as if it were a zero entry
        with pytest.raises(ValidationError):
            Subdistribution({"a": bad, "b": 1.0})

    def test_is_full(self):
        assert Subdistribution({"a": 1.0}).is_full()
        assert not Subdistribution({"a": 0.5}).is_full()

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_normalized_vector_is_full(self, raw):
        total = sum(raw)
        d = Subdistribution({f"g{n}": v / total for n, v in enumerate(raw)})
        assert d.is_full()


class TestPositionWeights:
    def test_increasing_rejected(self):
        with pytest.raises(ValidationError):
            PositionWeights((0.3, 0.7))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            PositionWeights((1.5, -0.5))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            PositionWeights((0.6, 0.3))

    @pytest.mark.parametrize("w", [
        (math.nan,), (0.5, math.nan, 0.5), (math.inf,), (1.0, -math.inf)])
    def test_non_finite_rejected(self, w):
        with pytest.raises(ValidationError, match="finite"):
            PositionWeights(w)

    def test_small_drift_renormalized(self):
        w = PositionWeights((0.5 + 5e-7, 0.5))
        assert abs(sum(w.w) - 1.0) <= 1e-12

    def test_indexing_is_one_based_and_zero_padded(self):
        w = PositionWeights((0.6, 0.4))
        assert w[1] == 0.6
        assert w[2] == 0.4
        assert w[3] == 0.0
        with pytest.raises(IndexError):
            w[0]

    def test_trailing_zero_weights_accepted(self):
        w = PositionWeights((0.7, 0.3, 0.0))
        assert w.k == 3
        assert w[3] == 0.0


class TestValidateInstance:
    def test_valid_instance_passes(self):
        make_instance()

    def test_duplicate_item_rejected(self):
        inst = Instance(
            genres=("g1",),
            target=Subdistribution({"g1": 1.0}),
            items=(("i1", Subdistribution({"g1": 1.0})),
                   ("i1", Subdistribution({"g1": 1.0}))),
            weights=PositionWeights((1.0,)),
        )
        with pytest.raises(ValidationError, match="duplicate item"):
            validate_instance(inst)

    def test_undeclared_genre_rejected(self):
        inst = Instance(
            genres=("g1",),
            target=Subdistribution({"g1": 1.0}),
            items=(("i1", Subdistribution({"g9": 1.0})),),
            weights=PositionWeights((1.0,)),
        )
        with pytest.raises(ValidationError, match="undeclared"):
            validate_instance(inst)

    def test_partial_item_mass_rejected(self):
        inst = Instance(
            genres=("g1", "g2"),
            target=Subdistribution({"g1": 1.0}),
            items=(("i1", Subdistribution({"g1": 0.5})),),
            weights=PositionWeights((1.0,)),
        )
        with pytest.raises(ValidationError, match="mass"):
            validate_instance(inst)

    def test_discrete_mode_requires_point_masses(self):
        inst = Instance(
            genres=("g1", "g2"),
            target=Subdistribution({"g1": 0.5, "g2": 0.5}),
            items=(("i1", Subdistribution({"g1": 0.5, "g2": 0.5})),),
            weights=PositionWeights((1.0,)),
            mode="discrete",
        )
        with pytest.raises(ValidationError, match="point mass"):
            validate_instance(inst)

    def test_universe_by_mode(self):
        inst = make_instance()
        assert inst.universe() == ("i1", "i2", "i3", "i4")


class TestInducedDistribution:
    def test_hand_computed_mixture(self):
        # [DERIVED] 0.5*i3 + 0.3*i1 + 0.2*i2 = (0.5 + 0.12 + 0.16, 0.18 + 0.04)
        inst = make_instance()
        q = induced_distribution(Sequence(("i3", "i1", "i2")), inst)
        assert q.get("g1") == pytest.approx(0.78, abs=1e-12)
        assert q.get("g2") == pytest.approx(0.22, abs=1e-12)

    def test_partial_list_uses_leading_weights(self):
        inst = make_instance()
        q = induced_distribution(Sequence(("i3",)), inst)
        assert q.get("g1") == pytest.approx(0.5, abs=1e-12)
        assert q.total() == pytest.approx(0.5, abs=1e-12)

    def test_too_long_rejected(self):
        inst = make_instance()
        with pytest.raises(ValidationError):
            induced_distribution(Sequence(("i1",) * 4), inst)

    def test_full_list_is_full_distribution(self):
        inst = make_instance()
        q = induced_distribution(Sequence(("i1", "i2", "i4")), inst)
        assert q.is_full()


class TestHellinger:
    def test_value_at_self_is_one(self):
        p = np.array([0.3, 0.7])
        assert HellingerSquared().value(p, p) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        # [DERIVED] sqrt(0.5*0.78) + sqrt(0.5*0.22)
        expected = math.sqrt(0.39) + math.sqrt(0.11)
        inst = make_instance()
        val = seq_objective(HellingerSquared(), Sequence(("i3", "i1", "i2")), inst)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        G = HellingerSquared()
        p = rng.uniform(0.1, 1, 4)
        p /= p.sum()
        Q = rng.uniform(0, 1, (8, 4))
        batch = G.value_batch(p, Q)
        for row, expect in zip(Q, batch):
            assert G.value(p, row) == expect

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_one(self, seed):
        # Cauchy-Schwarz: sum sqrt(p q) <= sqrt(|p| |q|) <= 1.
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 1, 5)
        p /= p.sum()
        q = rng.uniform(0, 1, 5)
        q *= rng.uniform(0, 1) / max(q.sum(), 1e-12)
        assert HellingerSquared().value(p, q) <= 1 + 1e-12


class TestPower:
    def test_beta_range_enforced(self):
        for beta in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                PowerOverlap(beta)

    def test_half_equals_hellinger(self):
        rng = np.random.default_rng(1)
        G, H = PowerOverlap(0.5), HellingerSquared()
        for _ in range(100):
            p = rng.uniform(0.01, 1, 4)
            p /= p.sum()
            q = rng.uniform(0, 1, 4)
            q /= q.sum()
            assert G.value(p, q) == pytest.approx(H.value(p, q), abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        G = PowerOverlap(0.25)
        p = rng.uniform(0.1, 1, 3)
        p /= p.sum()
        Q = rng.uniform(0, 1, (6, 3))
        assert G.value_batch(p, Q).tolist() == [G.value(p, q) for q in Q]


def _target_and_rows(seed, n_genres, n_rows):
    """A target and subdistribution rows, each with some zero masses."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0, 1, n_genres) * (rng.random(n_genres) > 0.2)
    p[rng.integers(n_genres)] += 0.1
    Q = rng.uniform(0, 1, (n_rows, n_genres)) * (rng.random((n_rows, n_genres)) > 0.2)
    Q *= rng.uniform(0.1, 1, (n_rows, 1)) / np.maximum(Q.sum(1, keepdims=True), 1e-9)
    return p / p.sum(), Q


batch_measures = st.sampled_from([HellingerSquared(), PowerOverlap(0.25),
                                  PowerOverlap(0.5), PowerOverlap(0.75)])


class TestValueBatch:
    """``value_batch`` must equal ``value`` on every row, bit for bit, so
    that batched solvers make the same choices and report the same values
    as one call per candidate."""

    @given(st.integers(0, 10_000), st.integers(1, 40), batch_measures)
    @settings(max_examples=120, deadline=None)
    def test_every_row_equals_value(self, seed, n_genres, G):
        p, Q = _target_and_rows(seed, n_genres, 300)
        assert G.value_batch(p, Q).tolist() == [G.value(p, q) for q in Q]

    @pytest.mark.parametrize("n_genres", [5, 8, 12, 20])
    @pytest.mark.parametrize("G", [HellingerSquared(), PowerOverlap(0.3)],
                             ids=["hellinger", "power"])
    def test_values_do_not_depend_on_the_batch_layout(self, n_genres, G):
        p, Q = _target_and_rows(n_genres, n_genres, 8192)
        repeated = G.value_batch(p, np.tile(Q[0], (30_000, 1)))
        assert np.unique(repeated).tolist() == [G.value(p, Q[0])]
        blocks = np.concatenate([G.value_batch(p, Q[s:s + 4096])
                                 for s in range(0, len(Q), 4096)])
        assert blocks.tolist() == G.value_batch(p, Q).tolist()


class TestFDivergence:
    def test_diverging_generator_rejected(self):
        # f(t) = (t-1)^2 has f(t)/t -> infinity, so the divergence is unbounded.
        with pytest.raises(ValidationError, match="diverges"):
            FDivergenceOverlap(lambda t: (t - 1) ** 2, 1.0)

    def test_half_hellinger_generator_recovers_hellinger(self):
        # f(t) = (sqrt(t)-1)^2 / 2 with d* = 1 gives exactly the
        # square-root overlap on full distributions:
        # 1 - sum q (sqrt(p/q)-1)^2 / 2 = 1 - (|p| + |q|)/2 + sum sqrt(pq).
        G = FDivergenceOverlap(lambda t: 0.5 * (math.sqrt(t) - 1) ** 2, 1.0)
        H = HellingerSquared()
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = rng.uniform(0.01, 1, n)
            p /= p.sum()
            q = rng.uniform(0.01, 1, n)
            q /= q.sum()
            assert G.value(p, q) == pytest.approx(H.value(p, q), abs=1e-12)

    def test_zero_q_term_uses_slope_limit(self):
        G = FDivergenceOverlap(lambda t: 0.5 * (math.sqrt(t) - 1) ** 2, 1.0)
        # slope of f(t)/t at infinity is 1/2, so the q=0 term is p/2; the
        # slope is probed numerically, hence the modest tolerance
        val = G.value(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        expected = 1.0 - (0.5 * (math.sqrt(0.5 / 1.0) - 1) ** 2 + 0.5 * 0.5)
        assert val == pytest.approx(expected, abs=1e-6)


class TestConcave:
    def test_sqrt_family_is_twice_hellinger(self):
        # h = sqrt gives h(q)/h'(p) = 2 sqrt(p q) per genre.
        G = ConcaveOverlap(math.sqrt, lambda x: 0.5 / math.sqrt(x))
        H = HellingerSquared()
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.uniform(0.01, 1, 4)
            p /= p.sum()
            q = rng.uniform(0, 1, 4)
            assert G.value(p, q) == pytest.approx(2 * H.value(p, q), abs=1e-12)

    def test_negative_h_rejected(self):
        with pytest.raises(ValidationError):
            ConcaveOverlap(lambda x: -x, lambda x: 1.0)

    def test_nonincreasing_h_rejected(self):
        with pytest.raises(ValidationError):
            ConcaveOverlap(lambda x: 1.0, lambda x: 0.0)

    def test_infinite_derivative_at_zero_target_drops_term(self):
        G = ConcaveOverlap(math.sqrt,
                           lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf)
        assert G.value(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == \
            pytest.approx(2 * math.sqrt(0.5), abs=1e-12)


class TestSetExtensions:
    def test_fg_uses_earliest_occurrence_only(self):
        inst = make_instance()
        G = HellingerSquared()
        R = ItemPositionSet(frozenset({("i3", 1), ("i3", 3), ("i1", 2)}))
        # i3 contributes w_1 = 0.5 only; i1 contributes w_2 = 0.3.
        expected = G.value(
            np.array([0.5, 0.5]),
            np.array([0.5 + 0.3 * 0.4, 0.3 * 0.6]),
        )
        assert fg_set(G, R, inst) == pytest.approx(expected, abs=1e-12)

    def test_hatfg_counts_every_occurrence(self):
        inst = make_instance()
        G = HellingerSquared()
        R = ItemPositionSet(frozenset({("i3", 1), ("i3", 3)}))
        expected = G.value(np.array([0.5, 0.5]), np.array([0.7, 0.0]))
        assert hatfg_set(G, R, inst) == pytest.approx(expected, abs=1e-12)

    def test_mass_above_one_is_allowed_for_sets(self):
        # Three items stacked on position 1 give total mass 1.5; the set
        # extension must evaluate it rather than reject it.
        inst = make_instance()
        R = ItemPositionSet(frozenset({("i1", 1), ("i2", 1), ("i3", 1)}))
        assert fg_set(HellingerSquared(), R, inst) > 0

    def test_unknown_item_rejected(self):
        inst = make_instance()
        with pytest.raises(ValidationError):
            fg_set(HellingerSquared(),
                   ItemPositionSet(frozenset({("i9", 1)})), inst)

    def test_position_beyond_k_rejected(self):
        inst = make_instance()
        with pytest.raises(ValidationError):
            fg_set(HellingerSquared(),
                   ItemPositionSet(frozenset({("i1", 4)})), inst)

    def test_fg_matches_sequence_objective_without_repeats(self):
        inst = make_instance()
        G = HellingerSquared()
        seq = Sequence(("i4", "i2", "i1"))
        R = ItemPositionSet(frozenset((item, j + 1)
                                      for j, item in enumerate(seq)))
        assert fg_set(G, R, inst) == pytest.approx(
            seq_objective(G, seq, inst), abs=1e-14)


class TestItemPositionSet:
    def test_earliest_positions(self):
        R = ItemPositionSet(frozenset({("a", 3), ("a", 1), ("b", 2)}))
        assert earliest(R) == {"a": 1, "b": 2}

    def test_bad_position_rejected(self):
        with pytest.raises(ValidationError):
            ItemPositionSet(frozenset({("a", 0)}))
