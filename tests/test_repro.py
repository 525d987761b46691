"""Unit tests for the fixed case studies and the instance generator."""

import math

import pytest

from caliblist.core import HellingerSquared, Sequence, ValidationError, seq_objective
from caliblist.repro import (
    GenParams,
    KL_MMR_TABLE,
    KlMmrInstance,
    generate_instances,
    kl_mmr_objective,
    order_flip_instance,
    repro_appendix_b,
    repro_appendix_c,
)


class TestOrderFlipStudy:
    def test_published_values_reproduced(self):
        rows = repro_appendix_c()
        for row in rows:
            assert row.ok, (row.sequence, row.value, row.expected)

    def test_order_reversal_inequalities(self):
        # Leading with the pure-g1 item favors i1 before i2; leading with
        # the pure-g2 item favors the opposite order.
        by_seq = {r.sequence: r.value for r in repro_appendix_c()}
        assert by_seq[("i3", "i1", "i2")] > by_seq[("i3", "i2", "i1")]
        assert by_seq[("i4", "i1", "i2")] < by_seq[("i4", "i2", "i1")]

    def test_first_row_closed_form(self):
        # [DERIVED] mixture (0.78, 0.22): sqrt(.39) + sqrt(.11) = 0.95621...
        inst = order_flip_instance()
        val = seq_objective(HellingerSquared(), Sequence(("i3", "i1", "i2")), inst)
        assert val == pytest.approx(math.sqrt(0.39) + math.sqrt(0.11), abs=1e-12)


class TestKlMmrStudy:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            KlMmrInstance((0.25,) * 4, eps=0.5, w1=2.0)
        with pytest.raises(ValidationError):
            KlMmrInstance((0.25,) * 4, eps=1e-3, w1=1.0)

    def test_zero_mixture_gives_minus_infinity(self):
        inst = KlMmrInstance((0.25,) * 4, eps=1e-6, w1=2.0)
        assert kl_mmr_objective(inst, Sequence(())) == -math.inf

    def test_six_of_seven_published_rows_match(self):
        # The w1 = 3.5 row of the published table is not reproducible: the
        # two printed values correspond to w1 ≈ 3.59 and w1 ≈ 3.65
        # respectively, so no single parameter setting yields both. Every
        # other row matches to six significant figures.
        rows = repro_appendix_b()
        for row in rows:
            if row.w1 == 3.5:
                assert not row.ok
            else:
                assert row.ok, (row.w1, row.alg, row.alg_expected)

    def test_sign_flip_between_w1_2_and_5(self):
        by_w1 = {r.w1: r for r in repro_appendix_b()}
        assert by_w1[2.0].alg < 0 < by_w1[5.0].alg

    def test_listed_order_always_below_reversed_order(self):
        for row in repro_appendix_b():
            assert row.optimum_starts_i2
            assert row.opt > row.alg

    def test_greedy_first_pick_at_published_epsilon(self):
        # At eps = 1e-10 the single-item scores satisfy f(i1) - f(i2) =
        # p3*ln((1-eps)/(2 eps)) + (p4-p2)*ln 2 ≈ -0.048 < 0, so a greedy
        # first pick prefers i2 for every tabulated w1 (the difference is
        # independent of w1).
        for row in repro_appendix_b():
            assert not row.greedy_picks_i1

    def test_generic_greedy_runs_on_log_heuristic(self):
        # The generic sequence greedy accepts the log heuristic directly;
        # at small eps it walks into the trap, returning (i1, i2) while the
        # exact optimum over both length-2 orders is (i2, i1).
        from caliblist.greedy import greedy_sequence
        inst = KlMmrInstance((0.05, 0.9, 0.025, 0.025), eps=1e-12, w1=5.0)
        obj = lambda seq: kl_mmr_objective(inst, seq)
        seq, _ = greedy_sequence(obj, ["i1", "i2"], k=2)
        assert seq.entries == ("i1", "i2")
        assert obj(Sequence(("i2", "i1"))) > obj(seq)

    def test_greedy_misled_for_small_epsilon(self):
        # For eps below ~1.4e-11 the same construction does exhibit the
        # intended trap: greedy's first pick i1 scores higher alone, yet
        # every full list starting with i1 is strictly worse.
        for w1, _, _ in KL_MMR_TABLE:
            inst = KlMmrInstance((0.05, 0.9, 0.025, 0.025), eps=1e-12, w1=w1)
            f_i1 = kl_mmr_objective(inst, Sequence(("i1",)))
            f_i2 = kl_mmr_objective(inst, Sequence(("i2",)))
            assert f_i1 > f_i2
            assert kl_mmr_objective(inst, Sequence(("i1", "i2"))) < \
                kl_mmr_objective(inst, Sequence(("i2", "i1")))


class TestGenerator:
    def test_instances_are_valid_and_deterministic(self):
        params = GenParams(max_genres=4, max_items=5, max_k=4)
        a = generate_instances(params, "distributional", seed=51, n=30)
        b = generate_instances(params, "distributional", seed=51, n=30)
        assert a == b
        for inst in a:
            assert inst.target.is_full()
            assert len(inst.items) >= inst.k

    def test_different_seeds_differ(self):
        params = GenParams()
        a = generate_instances(params, "distributional", seed=1, n=5)
        b = generate_instances(params, "distributional", seed=2, n=5)
        assert a != b

    def test_discrete_instances_are_point_masses(self):
        for inst in generate_instances(GenParams(max_genres=5, max_k=6),
                                       "discrete", seed=53, n=20):
            assert inst.mode == "discrete"
            for _, dist in inst.items:
                assert len(dist.weights) == 1

    def test_weights_weakly_decreasing(self):
        for inst in generate_instances(GenParams(max_k=5), "distributional",
                                       seed=55, n=20):
            w = inst.weights.w
            assert all(a >= b for a, b in zip(w, w[1:]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            generate_instances(GenParams(), "mystery", seed=0, n=1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            GenParams(min_genres=0)
