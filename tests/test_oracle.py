"""Unit tests for exhaustive search and the randomized property checkers."""

import math
import tracemalloc

import numpy as np
import pytest

from caliblist import oracle
from caliblist.core import (
    CustomMeasure,
    HellingerSquared,
    ItemPositionSet,
    PowerOverlap,
    Sequence,
    ValidationError,
    fg_set,
    seq_objective,
)
from caliblist.greedy import sequence_objective_fn
from caliblist.matroid import LaminarMatroid, max_weight_basis, set_to_sequence
from caliblist.oracle import (
    check_mdr,
    check_ordered_submodular,
    check_overlap_axioms,
    check_set_to_sequence,
    exhaustive_opt,
    ratio_report,
)
from caliblist.repro import GenParams, generate_instances, kl_pseudo_measure

from test_core import make_instance
from test_greedy import discrete_instance


def _twins():
    """Instances whose optimum ties: twin items, and genres under equal weights."""
    base = make_instance()
    twins = type(base)(
        genres=base.genres, target=base.target,
        items=base.items + (("i5", base.items[0][1]), ("i6", base.items[2][1])),
        weights=base.weights, mode="distributional")
    return [twins, discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.5)),
            discrete_instance({"g1": 0.25, "g2": 0.25, "g3": 0.5},
                              (0.25, 0.25, 0.25, 0.25))]


@pytest.fixture(scope="module")
def reference_searches():
    """(instance, measure, allow_repeats, optimum of the objective path)."""
    insts = (generate_instances(GenParams(max_genres=4, max_k=4),
                                "discrete", seed=51, n=6)
             + generate_instances(GenParams(max_items=5, max_k=3),
                                  "distributional", seed=52, n=6)
             + _twins())
    cases = []
    for inst in insts:
        for G in (HellingerSquared(), PowerOverlap(0.5)):
            for repeats in (True, False):
                if not repeats and inst.k > len(inst.universe()):
                    continue
                want = exhaustive_opt(
                    inst, objective=lambda s: seq_objective(G, s, inst),
                    allow_repeats=repeats)
                cases.append((inst, G, repeats, want))
    return cases


class TestExhaustiveOpt:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, None])
    def test_prefix_search_equals_the_objective_path(
            self, monkeypatch, reference_searches, block):
        # The objective path scores each list by seq_objective, one at a
        # time; the measure path builds mixtures from their prefixes in
        # blocks. Lists and values must agree exactly, ties included.
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK", block)
        assert len(reference_searches) > 40
        for inst, G, repeats, (want_seq, want_val) in reference_searches:
            seq, val = exhaustive_opt(inst, measure=G, allow_repeats=repeats)
            assert seq.entries == want_seq.entries
            assert val == want_val

    def test_vectorized_path_matches_generic_path(self):
        # The fast measure path and the plain python objective path are
        # independent implementations; they must agree exactly.
        G = HellingerSquared()
        insts = generate_instances(GenParams(max_items=4, max_k=3),
                                   "distributional", seed=37, n=25)
        for inst in insts:
            fast_seq, fast_val = exhaustive_opt(inst, measure=G)
            slow_seq, slow_val = exhaustive_opt(
                inst, objective=lambda s: seq_objective(G, s, inst))
            assert fast_seq.entries == slow_seq.entries
            assert fast_val == pytest.approx(slow_val, abs=1e-12)

    @pytest.mark.parametrize("mode, params, seed", [
        ("discrete", GenParams(max_genres=5, max_k=8), 7),
        ("distributional", GenParams(max_items=6, max_k=5), 11),
        ("distributional", GenParams(min_items=2, max_items=6, max_k=4), 5),
    ], ids=["criterion-3", "criterion-4", "criterion-5"])
    def test_value_is_the_objective_of_the_returned_list(self, mode, params, seed):
        # the batch adds and sums in the order of seq_objective, so the
        # reported optimum is the list's value to the last bit
        for inst in generate_instances(params, mode, seed=seed, n=60):
            for G in (HellingerSquared(), PowerOverlap(0.25), PowerOverlap(0.75)):
                seq, value = exhaustive_opt(inst, measure=G)
                assert value == seq_objective(G, seq, inst)

    def test_discrete_mode_searches_genres_with_repeats(self):
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.3, 0.2))
        seq, val = exhaustive_opt(inst, measure=HellingerSquared())
        assert set(seq.entries) <= {"g1", "g2"}
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_lexicographic_tie_break(self):
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (1.0,))
        seq, _ = exhaustive_opt(inst, measure=HellingerSquared())
        assert seq.entries == ("g1",)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_first_max_kept_across_block_boundaries(self, monkeypatch, block):
        # Every list of two distinct genres ties under uniform weights; the
        # winner (g1, g2) must survive the ties in later blocks.
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.5))
        twins = type(inst)(  # the permutation path, with tied twin items
            genres=inst.genres, target=inst.target,
            items=(("a", inst.items[0][1]), ("b", inst.items[1][1]),
                   ("c", inst.items[0][1])),
            weights=inst.weights, mode="distributional")
        G = HellingerSquared()
        want = [exhaustive_opt(i, measure=G) for i in (inst, twins)]
        assert [s.entries for s, _ in want] == [("g1", "g2"), ("a", "b")]
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert [exhaustive_opt(i, measure=G) for i in (inst, twins)] == want

    @pytest.mark.parametrize("block", [7, 64])
    def test_blocked_search_equals_one_block(self, monkeypatch, block):
        insts = (generate_instances(GenParams(max_genres=4, max_k=4),
                                    "discrete", seed=43, n=10)
                 + generate_instances(GenParams(max_items=6, max_k=4),
                                      "distributional", seed=44, n=10))
        G = PowerOverlap(0.5)
        want = [exhaustive_opt(inst, measure=G) for inst in insts]
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert [exhaustive_opt(inst, measure=G) for inst in insts] == want

    def test_memory_stays_bounded_on_a_large_search(self):
        # 6 genres, k = 8: 1.68 M candidates, which took ~390 MB in one block
        [inst] = generate_instances(
            GenParams(min_genres=6, max_genres=6, min_k=8, max_k=8),
            "discrete", seed=45, n=1)
        tracemalloc.start()
        try:
            exhaustive_opt(inst, measure=HellingerSquared())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20

    def test_memory_stays_bounded_on_a_permutation_search(self):
        # 11 items, k = 7: 1.66 M lists in blocks of 4 heads x 15,120
        # leaves. One block's mixtures over 4 genres take 1.9 MB; the search
        # holds about three such arrays and the subtree's index arrays.
        [inst] = generate_instances(
            GenParams(min_items=11, max_items=11, min_k=7, max_k=7),
            "distributional", seed=46, n=1)
        assert len(inst.genres) == 4
        G = HellingerSquared()
        tracemalloc.start()
        try:
            seq, value = exhaustive_opt(inst, measure=G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert value == seq_objective(G, seq, inst)

    def test_one_position_over_many_items_is_batched(self, monkeypatch):
        # With k = 1 every list is a head of its own; blocks of heads keep
        # the search from scoring one item per value_batch call.
        class Counting(HellingerSquared):
            calls = 0

            def value_batch(self, p, Q):
                self.calls += 1
                return super().value_batch(p, Q)

        [inst] = generate_instances(
            GenParams(min_items=100, max_items=100, min_k=1, max_k=1),
            "distributional", seed=47, n=1)
        monkeypatch.setattr(oracle, "_BLOCK", 8)
        G = Counting()
        seq, value = exhaustive_opt(inst, measure=G)
        assert 0 < G.calls <= 2 * math.ceil(100 / 8)
        want = exhaustive_opt(
            inst, objective=lambda s: seq_objective(G, s, inst))
        assert (seq.entries, value) == (want[0].entries, want[1])

    def test_requires_exactly_one_objective(self):
        inst = make_instance()
        with pytest.raises(ValidationError):
            exhaustive_opt(inst)
        with pytest.raises(ValidationError):
            exhaustive_opt(inst, measure=HellingerSquared(),
                           objective=lambda s: 0.0)

    def test_search_limit_enforced(self):
        inst = discrete_instance(
            {f"g{n}": 1 / 30 for n in range(30)},
            tuple([0.2] * 5),
        )
        with pytest.raises(ValidationError, match="too large"):
            exhaustive_opt(inst, measure=HellingerSquared())

    def test_too_few_items_without_repeats(self):
        inst = make_instance()
        small = type(inst)(
            genres=inst.genres, target=inst.target, items=inst.items[:2],
            weights=inst.weights, mode=inst.mode)
        with pytest.raises(ValidationError):
            exhaustive_opt(small, measure=HellingerSquared())

    def test_optimum_dominates_greedy(self):
        G = HellingerSquared()
        insts = generate_instances(GenParams(max_items=5, max_k=3),
                                   "distributional", seed=41, n=25)
        from caliblist.greedy import greedy_sequence
        for inst in insts:
            obj = sequence_objective_fn(G, inst)
            seq, _ = greedy_sequence(obj, list(inst.universe()), inst.k)
            _, opt = exhaustive_opt(inst, measure=G)
            assert opt >= obj(seq) - 1e-12


class TestAxiomChecker:
    def test_genuine_measures_pass(self):
        for G in (HellingerSquared(), PowerOverlap(0.25), PowerOverlap(0.75)):
            assert check_overlap_axioms(G, trials=300, seed=0).passed

    def test_log_heuristic_fails(self):
        # The log-of-mixture heuristic takes negative values, violating
        # nonnegativity on most sampled pairs.
        res = check_overlap_axioms(kl_pseudo_measure(), trials=300, seed=0)
        assert not res.passed
        assert res.counterexample is not None

    def test_result_is_deterministic(self):
        a = check_overlap_axioms(HellingerSquared(), trials=100, seed=5)
        b = check_overlap_axioms(HellingerSquared(), trials=100, seed=5)
        assert (a.passed, a.violations) == (b.passed, b.violations)


class TestMdrChecker:
    def test_hellinger_and_power_pass(self):
        for G in (HellingerSquared(), PowerOverlap(0.3)):
            res = check_mdr(G, trials=200, seed=1)
            assert res.passed
            assert res.mdr.violations == 0
            assert res.smdr.violations == 0

    def test_decreasing_measure_fails_smdr(self):
        from caliblist.core import CustomMeasure
        import numpy as np
        # A measure strictly decreasing in q must trip the coordinatewise
        # monotonicity probe.
        G = CustomMeasure("anti", lambda p, q: float(-np.sum(q)))
        res = check_mdr(G, trials=200, seed=2)
        assert not res.smdr.passed
        assert res.smdr.counterexample is not None


class TestSetToSequenceChecker:
    def test_hellinger_and_power_pass(self):
        for G in (HellingerSquared(), PowerOverlap(0.5)):
            res = check_set_to_sequence(G, trials=100, seed=6)
            assert (res.passed, res.trials, res.violations) == (True, 100, 0)

    def test_decreasing_measure_fails(self):
        from caliblist.core import CustomMeasure
        import numpy as np
        # Moving items forward and padding the list adds mass, which a
        # measure decreasing in q penalizes.
        G = CustomMeasure("anti", lambda p, q: float(-np.sum(q)))
        res = check_set_to_sequence(G, trials=50, seed=7)
        assert not res.passed
        ce = res.counterexample
        assert len(ce["basis"]) == len(ce["sequence"])


class TestOrderedSubmodularChecker:
    def test_hellinger_objective_passes(self):
        inst = make_instance()
        f = sequence_objective_fn(HellingerSquared(), inst)
        res = check_ordered_submodular(f, list(inst.universe()), inst.k,
                                       trials=300, seed=3)
        assert res.passed

    def test_adjacent_pair_bonus_fails(self):
        # Counting adjacent equal entries is not ordered submodular:
        # substituting the middle of (a, a, a) destroys two pairs while the
        # prefix gain of that slot was only one.
        def f(seq):
            return float(sum(x == y for x, y in zip(seq, seq[1:])))

        res = check_ordered_submodular(f, ["a", "b"], k=3, trials=200, seed=4)
        assert not res.passed
        assert res.counterexample is not None


class TestRatioReport:
    def test_report_statistics_are_consistent(self):
        from caliblist.greedy import greedy_sequence

        G = HellingerSquared()

        def alg(inst):
            obj = sequence_objective_fn(G, inst)
            seq, _ = greedy_sequence(obj, list(inst.universe()), inst.k)
            return seq, obj(seq)

        gen = lambda seed, n: generate_instances(
            GenParams(max_items=5, max_k=3), "distributional", seed, n)
        report = ratio_report(alg, G, gen, n=50, seed=6)
        assert report.instances == 50
        assert report.min_ratio <= report.median_ratio <= 1 + 1e-12
        assert report.min_ratio <= report.mean_ratio
        assert report.worst_instance is not None
        assert report.worst_instance["ratio"] == pytest.approx(
            report.min_ratio, abs=1e-15)


# Measures that pass some probes and fail others: an overlap shifted below
# zero on near-disjoint pairs, and one that oscillates in the mass of q.
_SHIFTED = CustomMeasure("shifted", lambda p, q: float(np.sum(np.sqrt(p * q)) - 0.6))
_WIGGLY = CustomMeasure("wiggly", lambda p, q: float(np.sin(9 * np.sum(q)) + 2))
_ANTI = CustomMeasure("anti", lambda p, q: float(-np.sum(q)))


def _tallied(per_trial):
    """(violations, first counterexample) of per-trial counterexamples or None."""
    found = [ce for ce in per_trial if ce is not None]
    return len(found), (found[0] if found else None)


def _axiom_trials(G, trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        genres, p, q = oracle._random_pair(rng)
        self_val, val = float(G.value(p, p)), float(G.value(p, q))
        yield ({"p": dict(zip(genres, p.tolist())),
                "q": dict(zip(genres, q.tolist())),
                "value": val, "value_at_p": self_val}
               if val < 0 or not val < self_val - 1e-12 else None)


def _mdr_trials(G, trials, seed):
    """The MDR then the SMDR per-trial results, from one generator."""
    rng = np.random.default_rng(seed)
    insts = generate_instances(GenParams(max_genres=4, max_items=5, max_k=4),
                               "distributional", seed=seed + 1, n=trials)
    mdr = []
    for inst in insts:
        ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
        R, T, e = oracle._random_nested_sets(rng, ground)
        f = lambda S: fg_set(G, ItemPositionSet(frozenset(S)), inst)
        fR, fT, fRe, fTe = f(R), f(T), f(R | {e}), f(T | {e})
        ok = fT >= fR - 1e-9 and fRe - fR >= fTe - fT - 1e-9
        mdr.append(None if ok else {"R": sorted(R), "T": sorted(T), "e": e,
                                    "F(R)": fR, "F(T)": fT,
                                    "F(R+e)": fRe, "F(T+e)": fTe})
    smdr = []
    for _ in range(trials):
        genres, p, q = oracle._random_pair(rng)
        g = int(rng.integers(0, len(genres)))
        bumped = q.copy()
        bumped[g] += 1e-6
        hi, lo = float(G.value(p, bumped)), float(G.value(p, q))
        smdr.append({"p": dict(zip(genres, p.tolist())),
                     "q": dict(zip(genres, q.tolist())),
                     "genre": genres[g], "before": lo, "after": hi}
                    if hi < lo - 1e-9 else None)
    return mdr, smdr


def _ordered_trials(f, universe, k, trials, seed):
    rng = np.random.default_rng(seed)
    elems = sorted(universe)
    for _ in range(trials):
        s = [elems[int(r)] for r in rng.integers(0, len(elems), size=k)]
        i = int(rng.integers(1, k + 1))
        s_bar = elems[int(rng.integers(0, len(elems)))]
        lhs = f(Sequence(tuple(s[:i]))) - f(Sequence(tuple(s[:i - 1])))
        rhs = (f(Sequence(tuple(s)))
               - f(Sequence(tuple(s[:i - 1] + [s_bar] + s[i:]))))
        yield ({"sequence": s, "index": i, "substitute": s_bar,
                "lhs": lhs, "rhs": rhs} if lhs < rhs - 1e-9 else None)


def _set_to_sequence_trials(G, trials, seed):
    rng = np.random.default_rng(seed)
    for inst in generate_instances(GenParams(min_items=4, max_items=6, max_k=4),
                                   "distributional", seed=seed, n=trials):
        m = LaminarMatroid(inst.item_ids, inst.k)
        pairs = m.ground_set()
        rng.shuffle(pairs)
        R = ItemPositionSet(max_weight_basis(
            m, {e: -rank for rank, e in enumerate(pairs)}))
        seq = set_to_sequence(R, inst, G)
        yield ({"basis": sorted(R.pairs), "sequence": list(seq.entries)}
               if seq_objective(G, seq, inst) < fg_set(G, R, inst) - 1e-12
               else None)


class TestFailingChecksMatchReferenceLoops:
    """Counts and first counterexamples equal those of a per-trial loop."""

    @staticmethod
    def _same(res, trials, per_trial):
        violations, ce = _tallied(per_trial)
        assert (res.trials, res.violations, res.counterexample) == (
            trials, violations, ce)
        assert res.passed == (violations == 0)

    @pytest.mark.parametrize("G", [kl_pseudo_measure(), _SHIFTED, _WIGGLY],
                             ids=lambda G: G.name)
    def test_axioms(self, G):
        res = check_overlap_axioms(G, trials=120, seed=8)
        assert res.violations > 0
        self._same(res, 120, _axiom_trials(G, 120, 8))

    @pytest.mark.parametrize("G", [_ANTI, _WIGGLY], ids=lambda G: G.name)
    def test_mdr_and_smdr(self, G):
        res = check_mdr(G, trials=80, seed=9)
        mdr, smdr = _mdr_trials(G, 80, 9)
        assert res.mdr.violations > 0 and res.smdr.violations > 0
        self._same(res.mdr, 80, mdr)
        self._same(res.smdr, 80, smdr)
        assert not res.passed

    def test_ordered_submodular(self):
        def f(seq):  # adjacent equal entries: not ordered submodular
            return float(sum(x == y for x, y in zip(seq, seq[1:])))

        res = check_ordered_submodular(f, ["a", "b", "c"], k=4, trials=150, seed=10)
        assert 0 < res.violations < 150
        self._same(res, 150, _ordered_trials(f, ["a", "b", "c"], 4, 150, 10))

    @pytest.mark.parametrize("G", [_ANTI, _WIGGLY], ids=lambda G: G.name)
    def test_set_to_sequence(self, G):
        res = check_set_to_sequence(G, trials=40, seed=11)
        assert res.violations > 0
        self._same(res, 40, _set_to_sequence_trials(G, 40, 11))
