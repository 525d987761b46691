"""Unit tests for the generic and discrete greedy solvers."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblist.core import (
    HellingerSquared,
    Instance,
    PositionWeights,
    Sequence,
    Subdistribution,
    ValidationError,
    seq_objective,
    validate_instance,
)
from caliblist.greedy import (
    GreedyStep,
    GreedyTrace,
    best_length_solve,
    discrete_greedy,
    discrete_objective,
    greedy_sequence,
    sequence_objective_fn,
    truncate_instance,
)
from caliblist.oracle import exhaustive_opt
from caliblist.repro import GenParams, generate_instances

from test_dense import GENRE_COUNT, instances, measures


def discrete_instance(target, weights):
    genres = tuple(sorted(target))
    return validate_instance(Instance(
        genres=genres,
        target=Subdistribution(target),
        items=tuple((f"i{n + 1}", Subdistribution({g: 1.0}))
                    for n, g in enumerate(genres)),
        weights=PositionWeights(weights),
        mode="discrete",
    ))


class TestDiscreteGreedy:
    def test_balanced_two_genre_example(self):
        # [DERIVED] p = (1/2, 1/2), w = (0.5, 0.3, 0.2): the greedy packs
        # g1 then g2 twice, landing both genres on weight 1/2 each, which
        # is the unique objective maximum sqrt(.25) + sqrt(.25) = 1.
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.3, 0.2))
        seq, trace = discrete_greedy(inst)
        assert seq.entries == ("g1", "g2", "g2")
        value = discrete_objective(inst)(seq)
        assert value == pytest.approx(1.0, abs=1e-12)
        _, opt = exhaustive_opt(inst, measure=HellingerSquared())
        assert value == pytest.approx(opt, abs=1e-12)

    def test_trace_gains_match_closed_form(self):
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.3, 0.2))
        _, trace = discrete_greedy(inst)
        # First pick: sqrt(0.5) * sqrt(0.5) with zero prior load.
        assert trace.gains[0] == pytest.approx(0.5, abs=1e-12)
        # Third pick: g2 at load 0.3 beats g1 at load 0.5.
        expected = math.sqrt(0.5) * (math.sqrt(0.5) - math.sqrt(0.3))
        assert trace.gains[2] == pytest.approx(expected, abs=1e-12)

    def test_point_mass_target_fills_one_genre(self):
        inst = discrete_instance({"g1": 1.0, "g2": 0.0}, (0.6, 0.4))
        seq, _ = discrete_greedy(inst)
        assert seq.entries == ("g1", "g1")

    def test_ties_break_lexicographically(self):
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.5))
        seq, _ = discrete_greedy(inst)
        assert seq.entries == ("g1", "g2")

    def test_requires_discrete_mode(self):
        inst = validate_instance(Instance(
            genres=("g1",),
            target=Subdistribution({"g1": 1.0}),
            items=(("i1", Subdistribution({"g1": 1.0})),),
            weights=PositionWeights((1.0,)),
            mode="distributional",
        ))
        with pytest.raises(ValidationError):
            discrete_greedy(inst)

    def test_closed_form_matches_measure_objective(self):
        # The closed-form value must equal the squared-Hellinger objective
        # of the same genre sequence.
        from caliblist.core import seq_objective
        for inst in generate_instances(GenParams(max_genres=4, max_k=5),
                                       "discrete", seed=13, n=50):
            seq, _ = discrete_greedy(inst)
            assert discrete_objective(inst)(seq) == pytest.approx(
                seq_objective(HellingerSquared(), seq, inst), abs=1e-12)


class TestGreedySequence:
    def test_matches_optimum_on_tiny_instance(self):
        insts = generate_instances(GenParams(max_items=4, max_k=2),
                                   "distributional", seed=17, n=20)
        G = HellingerSquared()
        for inst in insts:
            obj = sequence_objective_fn(G, inst)
            seq, _ = greedy_sequence(obj, list(inst.universe()), inst.k)
            _, opt = exhaustive_opt(inst, measure=G)
            assert obj(seq) >= 0.5 * opt - 1e-9

    def test_no_repeats_by_default(self):
        insts = generate_instances(GenParams(min_items=3, max_items=5,
                                             min_k=3, max_k=3),
                                   "distributional", seed=19, n=10)
        G = HellingerSquared()
        for inst in insts:
            obj = sequence_objective_fn(G, inst)
            seq, _ = greedy_sequence(obj, list(inst.universe()), inst.k)
            assert len(set(seq.entries)) == len(seq)

    def test_universe_exhaustion_raises(self):
        inst = generate_instances(GenParams(), "distributional", seed=23, n=1)[0]
        obj = sequence_objective_fn(HellingerSquared(), inst)
        with pytest.raises(ValidationError):
            greedy_sequence(obj, [inst.universe()[0]], k=2)

    def test_empty_universe_raises(self):
        with pytest.raises(ValidationError):
            greedy_sequence(lambda s: 0.0, [], k=1)

    def test_trace_rejects_nonfinite_gain(self):
        with pytest.raises(ValidationError):
            greedy_sequence(lambda s: math.inf if len(s) else 0.0,
                            ["a", "b"], k=1)


def _scan(objective, universe, k, allow_repeats):
    """The sequence greedy as a plain scan of the candidates not yet picked,
    keeping ``if v > best`` / ``elif v > runner``."""
    seq, trace, current = Sequence(), GreedyTrace(), objective(Sequence())
    for pos in range(1, k + 1):
        candidates = [e for e in sorted(universe)
                      if allow_repeats or e not in seq.entries]
        if not candidates:
            raise ValidationError(f"universe exhausted at position {pos}")
        best = runner = None
        best_val = runner_val = -math.inf
        for e in candidates:
            val = objective(seq.append(e))
            if val > best_val:
                runner, runner_val = best, best_val
                best, best_val = e, val
            elif val > runner_val:
                runner, runner_val = e, val
        base = current if math.isfinite(current) else 0.0
        trace.record(GreedyStep(pos, best, best_val - base, runner, runner_val - base))
        seq, current = seq.append(best), best_val
    return seq, trace


def _outcome(objective, universe, k, allow_repeats, solve=greedy_sequence):
    """The list and steps of a greedy run, or the message it raised."""
    try:
        return solve(objective, universe, k, allow_repeats)
    except ValidationError as exc:
        return str(exc)


@st.composite
def tied_instances(draw, n_genres):
    """Instances, some of whose items are exact copies of others."""
    inst = draw(instances(n_genres=n_genres))
    copies = draw(st.lists(st.sampled_from(inst.items), max_size=4))
    items = inst.items + tuple((f"{i}-copy{n}", d) for n, (i, d) in enumerate(copies))
    return Instance(inst.genres, inst.target, items, inst.weights, inst.mode)


class TestBatchedGreedy:
    """The batched path must make the loop's choices with the loop's values."""

    @given(st.one_of(tied_instances((1, 7)), tied_instances((8, 14))),
           st.one_of(measures, st.just(GENRE_COUNT)), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_list_and_steps_as_one_call_per_candidate(
            self, inst, G, allow_repeats, data):
        # k one past the instance's own reaches its length error
        k = data.draw(st.integers(1, inst.k + 1))
        universe = list(inst.universe())
        # strict sub-universes and repeated entries pin the masking of picked
        # elements against a scan of the candidates not yet picked
        if len(universe) > 1 and data.draw(st.booleans()):
            universe = data.draw(st.lists(st.sampled_from(universe), min_size=1,
                                          max_size=len(universe) - 1, unique=True))
        universe += data.draw(st.lists(st.sampled_from(universe), max_size=3))
        by_call = lambda s: seq_objective(G, s, inst)
        batched = _outcome(sequence_objective_fn(G, inst), universe, k, allow_repeats)
        assert batched == _outcome(by_call, universe, k, allow_repeats)
        assert batched == _outcome(by_call, universe, k, allow_repeats, _scan)

    def test_length_and_exhaustion_errors_match(self):
        inst = generate_instances(GenParams(min_items=3, max_items=3, min_k=2,
                                            max_k=2), "distributional",
                                  seed=31, n=1)[0]
        G = HellingerSquared()
        universe = list(inst.universe())
        for elements, allow_repeats, message in (
                (universe, True, "sequence longer than k=2"),
                (universe[:2], False, "universe exhausted at position 3")):
            for objective in (sequence_objective_fn(G, inst),
                              lambda s: seq_objective(G, s, inst)):
                with pytest.raises(ValidationError, match=message):
                    greedy_sequence(objective, elements, 3, allow_repeats)

    def test_empty_id_runner_up_keeps_its_gain(self):
        _, trace = greedy_sequence(lambda s: {"": 0.25, "a": 0.5}[s[-1]] if s else 0.0,
                                   ["", "a"], k=1)
        assert trace.steps == [GreedyStep(1, "a", 0.5, "", 0.25)]

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tie_rule_is_the_scan_with_strict_comparisons(self, n, k, data):
        # the reference is a scan keeping ``if v > best`` / ``elif v > runner``
        values = [0.0, 0.25, 0.5, -math.inf, math.nan, math.inf]
        table = data.draw(st.lists(st.sampled_from(values), min_size=n * k,
                                   max_size=n * k))
        elements = [f"e{i}" for i in range(n)]
        f = lambda s: table[(len(s) - 1) * n + elements.index(s[-1])] if s else 0.0
        assert _outcome(f, elements, k, True) == _outcome(f, elements, k, True, _scan)


class TestBestLength:
    def test_truncate_renormalizes(self):
        inst = discrete_instance({"g1": 0.5, "g2": 0.5}, (0.5, 0.3, 0.2))
        short = truncate_instance(inst, 2)
        assert short.weights.w == pytest.approx((0.625, 0.375), abs=1e-12)

    @pytest.mark.parametrize("mode", ["distributional", "discrete"])
    def test_truncate_shares_the_dense_core(self, mode):
        inst = generate_instances(GenParams(min_k=3, max_k=5), mode, seed=3, n=1)[0]
        short = truncate_instance(inst, 2)
        fresh = dataclasses.replace(short).dense  # built from scratch
        for name in ("genres", "p", "Q", "item_row", "row"):
            assert getattr(short.dense, name) is getattr(inst.dense, name)
        assert short.dense.w.tolist() == fresh.w.tolist()
        assert not short.dense.w.flags.writeable

    def test_truncate_bounds(self):
        inst = discrete_instance({"g1": 1.0}, (1.0,))
        with pytest.raises(ValidationError):
            truncate_instance(inst, 2)
        with pytest.raises(ValidationError):
            truncate_instance(inst, 0)

    def test_best_length_never_worse_than_full_length(self):
        G = HellingerSquared()
        insts = generate_instances(GenParams(max_items=5, max_k=4),
                                   "distributional", seed=29, n=20)
        for inst in insts:
            def solver(sub):
                obj = sequence_objective_fn(G, sub)
                seq, _ = greedy_sequence(obj, list(sub.universe()), sub.k)
                return seq, obj(seq)

            length, seq, value = best_length_solve(inst, solver)
            assert 1 <= length <= inst.k
            assert len(seq) == length
            assert value >= solver(inst)[1] - 1e-12

    def test_ties_prefer_shortest(self):
        # A single-genre target is solved perfectly at every length.
        inst = discrete_instance({"g1": 1.0, "g2": 0.0}, (0.6, 0.4))

        def solver(sub):
            seq, _ = discrete_greedy(sub)
            return seq, discrete_objective(sub)(seq)

        length, _, value = best_length_solve(inst, solver)
        assert length == 1
        assert value == pytest.approx(1.0, abs=1e-12)
