"""Unit tests for matroids, continuous greedy, rounding, and sequencing."""

import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from caliblist.core import (
    HellingerSquared,
    ItemPositionSet,
    Sequence,
    ValidationError,
    earliest,
    fg_set,
    hatfg_set,
    seq_objective,
)
from caliblist.matroid import (
    FractionalPoint,
    LaminarMatroid,
    PartitionMatroid,
    continuous_greedy,
    fg_function,
    hatfg_function,
    max_weight_basis,
    pipage_round,
    set_to_sequence,
    solve_continuous,
)
from caliblist.oracle import exhaustive_opt
from caliblist.repro import GenParams, generate_instances

from test_core import make_instance

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _in_subprocess(call: str, timeout: float = 60.0) -> None:
    """Run ``call``, an expression over this module, in a new interpreter.

    A rounding loop that never ends then fails its test at the timeout
    instead of stalling the suite.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_matroid; test_matroid.{call}"],
        capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr


class TestIndependence:
    def test_partition_allows_one_item_per_position(self):
        m = PartitionMatroid(("a", "b"), 3)
        assert m.independent({("a", 1), ("b", 2), ("a", 3)})
        assert not m.independent({("a", 1), ("b", 1)})

    def test_laminar_prefix_caps(self):
        m = LaminarMatroid(("a", "b", "c"), 3)
        assert m.independent({("a", 1), ("b", 2), ("c", 3)})
        # Three pairs within the first two positions break |R ∩ D_2| <= 2.
        assert not m.independent({("a", 1), ("b", 2), ("c", 2)})
        assert m.independent({("a", 3), ("b", 3), ("c", 3)})

    def test_laminar_allows_stacked_late_positions(self):
        m = LaminarMatroid(("a", "b"), 2)
        assert m.independent({("a", 2), ("b", 2)})
        assert not m.independent({("a", 1), ("b", 1)})

    def test_out_of_range_pair_rejected(self):
        m = LaminarMatroid(("a",), 2)
        with pytest.raises(ValidationError):
            m.independent({("a", 3)})
        with pytest.raises(ValidationError):
            m.independent({("z", 1)})

    def test_ground_set_is_position_major_with_sorted_items(self):
        # continuous greedy's coordinates and the rounding golden records
        # follow this order
        for cls in (PartitionMatroid, LaminarMatroid):
            assert cls(("c", "a", "b"), 2).ground_set() == [
                ("a", 1), ("b", 1), ("c", 1), ("a", 2), ("b", 2), ("c", 2)]

    def test_ground_set_checked_before_counts(self):
        m = PartitionMatroid(("a", "b"), 2)
        with pytest.raises(ValidationError):
            m.independent([("a", 1), ("b", 1), ("z", 1)])


class TestMaxWeightBasis:
    def test_greedy_picks_heaviest_compatible(self):
        m = PartitionMatroid(("a", "b"), 2)
        weights = {("a", 1): 5.0, ("b", 1): 4.0, ("a", 2): 1.0, ("b", 2): 3.0}
        assert max_weight_basis(m, weights) == frozenset({("a", 1), ("b", 2)})

    def test_laminar_defers_conflicting_pairs(self):
        m = LaminarMatroid(("a", "b"), 2)
        weights = {("a", 1): 5.0, ("b", 1): 4.0, ("a", 2): 0.0, ("b", 2): 0.0}
        basis = max_weight_basis(m, weights)
        assert ("a", 1) in basis and len(basis) == 2
        assert ("b", 1) not in basis

    def test_missing_weights_default_to_zero(self):
        m = PartitionMatroid(("a",), 1)
        assert max_weight_basis(m, {}) == frozenset({("a", 1)})

    @pytest.mark.parametrize("cls", [PartitionMatroid, LaminarMatroid])
    def test_same_basis_as_recounting_each_candidate(self, cls):
        def recounted(m, weights):
            chosen = set()
            for e in sorted(m.ground_set(), key=lambda e: (-weights.get(e, 0.0), e)):
                if m.independent(chosen | {e}):
                    chosen.add(e)
                    if len(chosen) == m.k:
                        break
            return frozenset(chosen)

        rng = np.random.default_rng(7)
        for _ in range(300):
            m = cls(tuple(f"i{n}" for n in range(rng.integers(1, 7))),
                    int(rng.integers(1, 6)))
            # coarse weights tie often; some pairs have none
            weights = {e: float(rng.integers(-1, 4)) for e in m.ground_set()
                       if rng.random() < 0.8}
            assert max_weight_basis(m, weights) == recounted(m, weights)


class TestFractionalPoint:
    def test_coordinates_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            FractionalPoint({("a", 1): 1.5})

    def test_polytope_membership(self):
        m = LaminarMatroid(("a", "b"), 2)
        inside = FractionalPoint({("a", 1): 0.5, ("b", 1): 0.5,
                                  ("a", 2): 0.5, ("b", 2): 0.5})
        outside = FractionalPoint({("a", 1): 0.9, ("b", 1): 0.9})
        assert inside.in_polytope(m)
        assert not outside.in_polytope(m)

    @pytest.mark.parametrize("cls", [PartitionMatroid, LaminarMatroid])
    def test_integral_points_match_independence(self, cls):
        m = cls(("a", "b", "c"), 3)
        ground = m.ground_set()
        seen = set()
        for mask in range(1 << len(ground)):
            S = {e for n, e in enumerate(ground) if mask >> n & 1}
            counts = [sum(j == ell for _, j in S) for ell in (1, 2, 3)]
            fits = (max(counts) <= 1 if cls is PartitionMatroid else
                    all(sum(counts[:ell]) <= ell for ell in (1, 2, 3)))
            x = FractionalPoint({e: float(e in S) for e in ground})
            assert m.independent(S) == x.in_polytope(m, tol=0.0) == fits
            seen.add(fits)
        assert seen == {True, False}

    @pytest.mark.parametrize("cls", [PartitionMatroid, LaminarMatroid])
    @pytest.mark.parametrize("coords", [{("a", 3): 0.5},
                                        {("a", 0): 0.5, ("b", 1): 0.5},
                                        {("z", 1): 0.5, ("a", 2): 1.0}])
    def test_pairs_outside_the_ground_set_rejected(self, cls, coords):
        m, x = cls(("a", "b"), 2), FractionalPoint(coords)
        with pytest.raises(ValidationError, match="outside ground set"):
            x.in_polytope(m)
        with pytest.raises(ValidationError, match="outside ground set"):
            pipage_round(m, x, None, seed=0)


class TestContinuousGreedy:
    def test_empty_matroid_rejected(self):
        inst = make_instance()
        F = hatfg_function(HellingerSquared(), inst)
        with pytest.raises(ValidationError, match="empty"):
            continuous_greedy(F, PartitionMatroid((), 1), 2, 3, 0)

    def test_output_in_polytope_with_unit_mass(self):
        inst = make_instance()
        m = LaminarMatroid(inst.item_ids, inst.k)
        F = fg_function(HellingerSquared(), inst)
        x = continuous_greedy(F, m, steps=10, samples=10, seed=0)
        assert x.in_polytope(m, tol=1e-9)
        assert sum(x.x.values()) == pytest.approx(inst.k, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        inst = make_instance()
        m = LaminarMatroid(inst.item_ids, inst.k)
        F = fg_function(HellingerSquared(), inst)
        a = continuous_greedy(F, m, steps=5, samples=5, seed=7)
        b = continuous_greedy(F, m, steps=5, samples=5, seed=7)
        assert a.x == b.x

    def test_modular_objective_concentrates_on_best_basis(self):
        # With an additive objective whose per-part gap is large, every step
        # picks the same best basis, so the point ends up integral on it.
        m = PartitionMatroid(("a", "b"), 2)
        bonus = {("a", 1): 3.0, ("b", 1): 0.01, ("a", 2): 0.01, ("b", 2): 2.0}
        F = lambda S: sum(bonus[e] for e in S)
        x = continuous_greedy(F, m, steps=8, samples=40, seed=0)
        assert x.x[("a", 1)] == pytest.approx(1.0)
        assert x.x[("b", 2)] == pytest.approx(1.0)


class TestPipageRound:
    def test_integral_point_passes_through(self):
        m = PartitionMatroid(("a", "b"), 2)
        x = FractionalPoint({("a", 1): 1.0, ("b", 2): 1.0,
                             ("b", 1): 0.0, ("a", 2): 0.0})
        R = pipage_round(m, x, None, seed=0)
        assert R.pairs == frozenset({("a", 1), ("b", 2)})

    def test_output_independent_for_random_points(self):
        rng = np.random.default_rng(5)
        for matroid_cls in (PartitionMatroid, LaminarMatroid):
            m = matroid_cls(("a", "b", "c"), 3)
            for trial in range(50):
                raw = {e: rng.uniform(0, 1) for e in m.ground_set()}
                # Scale columns down until the point is inside the polytope.
                for j in range(1, 4):
                    col = [e for e in raw if e[1] == j]
                    total = sum(raw[e] for e in col)
                    if total > 1:
                        for e in col:
                            raw[e] /= total
                x = FractionalPoint(raw)
                assert x.in_polytope(m, tol=1e-9)
                R = pipage_round(m, x, None, seed=trial)
                assert m.independent(R.pairs)

    def test_marginals_preserved_in_expectation(self):
        # Column-sum 1 point on a partition part: each pair must come out
        # with roughly its own probability.
        m = PartitionMatroid(("a", "b"), 1)
        x = FractionalPoint({("a", 1): 0.25, ("b", 1): 0.75})
        counts = Counter()
        n = 4000
        for s in range(n):
            R = pipage_round(m, x, None, seed=s)
            counts.update(R.pairs)
        assert counts[("a", 1)] / n == pytest.approx(0.25, abs=0.03)
        assert counts[("b", 1)] / n == pytest.approx(0.75, abs=0.03)

    def test_laminar_marginals_preserved_across_columns(self):
        # B@1 and A@3 are the fractional columns left after C@2 and D@2 are
        # consolidated; every pair must come out with its own probability.
        m = LaminarMatroid(("A", "B", "C", "D"), 3)
        x = FractionalPoint({("B", 1): 0.5, ("C", 2): 0.3, ("D", 2): 1.0,
                             ("A", 3): 0.6})
        counts = Counter()
        n = 4000
        for s in range(n):
            counts.update(pipage_round(m, x, None, seed=s).pairs)
        for e, v in x.x.items():
            assert counts[e] / n == pytest.approx(v, abs=0.03), e

    def test_laminar_rounding_ends(self):
        _in_subprocess("round_stacked_half_point(seeds=50)")

    def test_averages_of_bases_round_to_bases(self):
        _in_subprocess("round_averages_of_bases(points=300, seed=11)")

    def test_basis_size_preserved_when_point_is_fractional_basis(self):
        m = LaminarMatroid(("a", "b", "c"), 2)
        x = FractionalPoint({("a", 1): 0.5, ("b", 1): 0.5,
                             ("a", 2): 0.5, ("c", 2): 0.5})
        for s in range(30):
            R = pipage_round(m, x, None, seed=s)
            assert len(R) == 2

    def test_point_outside_polytope_rejected(self):
        m = PartitionMatroid(("a", "b"), 1)
        x = FractionalPoint({("a", 1): 0.9, ("b", 1): 0.9})
        with pytest.raises(ValidationError):
            pipage_round(m, x, None, seed=0)


def round_stacked_half_point(seeds: int) -> None:
    """A k = 5 point whose first fractional entries by item id are not in
    its leftmost fractional columns."""
    m = LaminarMatroid(tuple(f"i{n}" for n in range(5)), 5)
    half = [("i2", 1), ("i0", 2), ("i1", 2), ("i3", 2), ("i0", 3), ("i2", 3),
            ("i2", 4), ("i4", 5)]
    x = FractionalPoint({**{e: 0.5 for e in half}, ("i3", 5): 1.0})
    for s in range(seeds):
        R = pipage_round(m, x, None, seed=s)
        assert m.independent(R.pairs) and len(R) == 5


def round_averages_of_bases(points: int, seed: int) -> None:
    """Averages of 2-6 random-weight laminar bases round to bases."""
    rng = np.random.default_rng(seed)
    for t in range(points):
        items = tuple(f"i{n}" for n in range(int(rng.integers(2, 7))))
        m = LaminarMatroid(items, int(rng.integers(2, 6)))
        ground = m.ground_set()
        bases = [max_weight_basis(m, dict(zip(ground, rng.random(len(ground)))))
                 for _ in range(rng.integers(2, 7))]
        x = FractionalPoint({e: sum(e in B for B in bases) / len(bases)
                             for e in ground})
        R = pipage_round(m, x, None, seed=t)
        assert m.independent(R.pairs) and len(R) == m.k, (t, x)


class TestSetToSequence:
    def test_orders_by_earliest_position(self):
        inst = make_instance()
        R = ItemPositionSet(frozenset({("i2", 1), ("i4", 2), ("i1", 3)}))
        seq = set_to_sequence(R, inst, HellingerSquared())
        assert seq.entries == ("i2", "i4", "i1")

    def test_pads_with_smallest_unused_items(self):
        inst = make_instance()
        R = ItemPositionSet(frozenset({("i4", 1), ("i4", 2), ("i4", 3)}))
        seq = set_to_sequence(R, inst, HellingerSquared())
        assert seq.entries == ("i4", "i1", "i2")

    def test_item_never_pushed_later_than_its_earliest_slot(self):
        rng = np.random.default_rng(11)
        G = HellingerSquared()
        insts = generate_instances(GenParams(min_items=4, max_items=6, max_k=4),
                                   "distributional", seed=11, n=100)
        for inst in insts:
            m = LaminarMatroid(inst.item_ids, inst.k)
            pairs = m.ground_set()
            rng.shuffle(pairs)
            basis = set()
            for e in pairs:
                if m.independent(basis | {e}):
                    basis.add(e)
                    if len(basis) == inst.k:
                        break
            R = ItemPositionSet(frozenset(basis))
            seq = set_to_sequence(R, inst, G)
            first = earliest(R)
            for item, pos in first.items():
                assert seq.entries.index(item) + 1 <= pos
            assert seq_objective(G, seq, inst) >= fg_set(G, R, inst) - 1e-12

    def test_non_basis_rejected(self):
        inst = make_instance()
        with pytest.raises(ValidationError):
            set_to_sequence(ItemPositionSet(frozenset({("i1", 1)})),
                            inst, HellingerSquared())

    def test_short_catalog_cannot_fill_the_list(self):
        inst = make_instance()
        inst = dataclasses.replace(inst, items=inst.items[:2])  # i1, i2; k = 3
        R = ItemPositionSet(frozenset({("i1", 1), ("i1", 2), ("i2", 3)}))
        with pytest.raises(ValidationError,
                           match="^not enough items to fill the list$"):
            set_to_sequence(R, inst, HellingerSquared())


class TestSetFunctionClosures:
    def test_fg_closure_matches_reference(self):
        inst = make_instance()
        G = HellingerSquared()
        F = fg_function(G, inst)
        rng = np.random.default_rng(13)
        ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
        for _ in range(100):
            size = int(rng.integers(0, len(ground) + 1))
            picks = rng.choice(len(ground), size=size, replace=False)
            S = frozenset(ground[i] for i in picks)
            assert F(S) == pytest.approx(
                fg_set(G, ItemPositionSet(S), inst), abs=1e-12)

    def test_hatfg_closure_matches_reference(self):
        inst = make_instance()
        G = HellingerSquared()
        F = hatfg_function(G, inst)
        rng = np.random.default_rng(15)
        ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
        for _ in range(100):
            size = int(rng.integers(0, len(ground) + 1))
            picks = rng.choice(len(ground), size=size, replace=False)
            S = frozenset(ground[i] for i in picks)
            assert F(S) == pytest.approx(
                hatfg_set(G, ItemPositionSet(S), inst), abs=1e-12)


class TestEndToEndSolvers:
    def test_solve_continuous_returns_repeat_free_list(self):
        inst = make_instance()
        G = HellingerSquared()
        seq, val = solve_continuous(inst, G, allow_repeats=False,
                                    steps=15, samples=15, seed=1)
        assert len(seq) == inst.k
        assert len(set(seq.entries)) == inst.k
        assert val == pytest.approx(seq_objective(G, seq, inst), abs=1e-12)

    def test_solve_continuous_near_optimal_on_small_instance(self):
        inst = make_instance()
        G = HellingerSquared()
        _, opt = exhaustive_opt(inst, measure=G)
        _, val = solve_continuous(inst, G, allow_repeats=False,
                                  steps=25, samples=25, seed=2)
        assert val >= (1 - 1 / math.e - 0.02) * opt

    def test_solve_continuous_requires_enough_items(self):
        insts = generate_instances(GenParams(min_items=2, max_items=2,
                                             min_k=3, max_k=3),
                                   "distributional", seed=31, n=1)
        # The generator always supplies >= k items, so build the shortage
        # directly by shrinking the catalog.
        inst = insts[0]
        small = type(inst)(
            genres=inst.genres, target=inst.target, items=inst.items[:2],
            weights=inst.weights, mode=inst.mode)
        with pytest.raises(ValidationError):
            solve_continuous(small, HellingerSquared(), allow_repeats=False,
                             steps=100, samples=200, seed=42)

    def test_solve_continuous_with_repeats_returns_full_list(self):
        inst = make_instance()
        G = HellingerSquared()
        seq, val = solve_continuous(inst, G, allow_repeats=True,
                                    steps=15, samples=15, seed=3)
        assert len(seq) == inst.k
        assert val == pytest.approx(seq_objective(G, seq, inst), abs=1e-12)

    def test_solvers_deterministic_for_fixed_seed(self):
        inst = make_instance()
        G = HellingerSquared()
        a = solve_continuous(inst, G, allow_repeats=False,
                             steps=10, samples=10, seed=4)
        b = solve_continuous(inst, G, allow_repeats=False,
                             steps=10, samples=10, seed=4)
        assert a == b
