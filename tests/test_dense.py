"""The dense instance core against a dict-based reference evaluation.

The reference below builds a per-genre dict mixture from a linear item
scan, as the original implementation did, and evaluates G over the
instance's sorted genres. The dense path must agree with it exactly
(``==``), not approximately, so that every solver output stays
bit-identical.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caliblist.core import (
    CustomMeasure,
    HellingerSquared,
    Instance,
    ItemPositionSet,
    PositionWeights,
    PowerOverlap,
    Sequence,
    Subdistribution,
    earliest,
    fg_set,
    hatfg_set,
    induced_distribution,
    seq_objective,
    truncate_instance,
    validate_instance,
)
from caliblist import matroid
from caliblist.greedy import sequence_objective_fn
from caliblist.io import instance_from_dict, instance_to_dict
from caliblist.matroid import (
    LaminarMatroid,
    PartitionMatroid,
    _mean_gains_by_call,
    continuous_greedy,
    fg_function,
    hatfg_function,
)
from caliblist.oracle import exhaustive_opt
from caliblist.repro import GenParams, generate_instances

from test_core import make_instance

# ---------------------------------------------------------------------------
# Reference: dict mixtures, linear scans, evaluation over every genre
# ---------------------------------------------------------------------------


def ref_item_dist(inst, item_id):
    for i, d in inst.items:
        if i == item_id:
            return d
    raise KeyError(item_id)


def ref_eval(G, inst, q):
    genres = sorted(inst.genres)
    pa = np.array([inst.target.get(g) for g in genres])
    qa = np.array([q.get(g, 0.0) for g in genres])
    return float(G.value(pa, qa))


def ref_seq_objective(G, seq, inst):
    out = {}
    for j, elem in enumerate(seq, start=1):
        wj = inst.weights[j]
        if elem in inst.genres and inst.mode == "discrete":
            out[elem] = out.get(elem, 0.0) + wj
            continue
        for g, v in ref_item_dist(inst, elem).items():
            out[g] = out.get(g, 0.0) + wj * v
    return ref_eval(G, inst, Subdistribution(out).weights)


def ref_mixture(inst, contributions):
    out = {}
    for item_id, weight in contributions:
        if weight == 0.0:
            continue
        for g, v in ref_item_dist(inst, item_id).items():
            out[g] = out.get(g, 0.0) + weight * v
    return out


def _by_position(pairs):
    # set extensions add their pairs in (position, item) order
    return sorted(pairs, key=lambda e: (e[1], e[0]))


def ref_fg(G, R, inst):
    first = earliest(R)
    return ref_eval(G, inst, ref_mixture(
        inst, ((i, inst.weights[j]) for i, j in _by_position(first.items()))))


def ref_hatfg(G, R, inst):
    return ref_eval(G, inst, ref_mixture(
        inst, ((i, inst.weights[j]) for i, j in _by_position(R))))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


def _normalized(raw):
    if sum(raw) == 0:
        raw = [1.0] + list(raw[1:])
    total = sum(raw)
    return [v / total for v in raw]


@st.composite
def instances(draw, modes=("distributional", "discrete"), n_genres=(1, 12)):
    mode = draw(st.sampled_from(modes))
    genres = tuple(f"g{n}" for n in range(draw(st.integers(*n_genres))))
    target = _normalized(draw(st.lists(_mass, min_size=len(genres),
                                       max_size=len(genres))))
    if mode == "discrete":
        items = tuple((f"i{n}", Subdistribution({g: 1.0}))
                      for n, g in enumerate(genres))
    else:
        n_items = draw(st.integers(1, 8))
        items = tuple(
            (f"i{n}", Subdistribution(dict(zip(genres, _normalized(draw(
                st.lists(_mass, min_size=len(genres), max_size=len(genres))))))))
            for n in range(n_items))
    raw_w = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    weights = sorted(_normalized(raw_w), reverse=True)
    return validate_instance(Instance(
        genres=genres,
        target=Subdistribution(dict(zip(genres, target))),
        items=items,
        weights=PositionWeights(tuple(weights)),
        mode=mode,
    ))


def reversed_items(inst):
    return Instance(inst.genres, inst.target, inst.items[::-1], inst.weights,
                    inst.mode)


measures = st.one_of(st.just(HellingerSquared()),
                     st.sampled_from([0.25, 0.5, 0.75]).map(PowerOverlap))

# counts the genres it is given, so it sees any objective that evaluates G
# over fewer than all of the instance's genres; it has no value_batch
GENRE_COUNT = CustomMeasure("genre-count",
                            lambda p, q: len(p) + np.sum(np.sqrt(p * q)))


def _elements(inst):
    ids = list(inst.item_ids)
    return ids + list(inst.genres) if inst.mode == "discrete" else ids


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------


@given(instances(), measures, st.data())
@settings(max_examples=300, deadline=None)
def test_seq_objective_is_exact(inst, G, data):
    length = data.draw(st.integers(0, inst.k))
    seq = Sequence(tuple(data.draw(
        st.lists(st.sampled_from(_elements(inst)),
                 min_size=length, max_size=length))))
    want = ref_seq_objective(G, seq, inst)
    assert seq_objective(G, seq, inst) == want
    assert seq_objective(G, seq, reversed_items(inst)) == want


@given(instances(), measures, st.data())
@settings(max_examples=300, deadline=None)
def test_set_extensions_are_exact(inst, G, data):
    pairs = data.draw(st.frozensets(st.tuples(
        st.sampled_from(inst.item_ids), st.integers(1, inst.k)), max_size=10))
    R = ItemPositionSet(pairs)
    for i in (inst, reversed_items(inst)):
        assert fg_set(G, R, i) == ref_fg(G, R, inst)
        assert hatfg_set(G, R, i) == ref_hatfg(G, R, inst)
        assert fg_function(G, i)(pairs) == ref_fg(G, R, inst)
        assert hatfg_function(G, i)(pairs) == ref_hatfg(G, R, inst)


@given(instances(modes=("distributional",), n_genres=(8, 14)), measures,
       st.data())
@settings(max_examples=300, deadline=None)
def test_lists_sets_and_closures_share_one_formula(inst, G, data):
    assume(len(inst.target.weights) < len(inst.genres))  # partial support
    s = data.draw(st.lists(st.sampled_from(inst.item_ids), max_size=inst.k))
    pairs = [(e, j) for j, e in enumerate(s, start=1)]
    assert inst.dense.pairs_value(G, pairs, first_only=False) == seq_objective(
        G, Sequence(tuple(s)), inst)
    S = data.draw(st.frozensets(st.tuples(
        st.sampled_from(inst.item_ids), st.integers(1, inst.k)), max_size=14))
    R = ItemPositionSet(S)
    assert fg_function(G, inst)(S) == fg_set(G, R, inst)
    assert hatfg_function(G, inst)(S) == hatfg_set(G, R, inst)


def test_every_objective_evaluates_over_the_instance_genres():
    # the target and the items miss g2 and g3; G counts the genres it sees
    G = CustomMeasure("genre-count", lambda p, q: len(p))
    inst = validate_instance(Instance(
        genres=("g1", "g2", "g3"), target=Subdistribution({"g1": 1.0}),
        items=(("a", Subdistribution({"g1": 1.0})),
               ("b", Subdistribution({"g1": 1.0}))),
        weights=PositionWeights((0.6, 0.4))))
    seq = Sequence(("a",))
    R = ItemPositionSet({("a", 1), ("b", 2)})
    got = [seq_objective(G, seq, inst), fg_set(G, R, inst), hatfg_set(G, R, inst),
           fg_function(G, inst)(R.pairs), hatfg_function(G, inst)(R.pairs),
           *sequence_objective_fn(G, inst).extension_scorer(["a", "b"])(Sequence()),
           exhaustive_opt(inst, measure=G)[1]]
    assert got == [3.0] * 9


@given(instances(n_genres=(1, 14)), measures)
@settings(max_examples=150, deadline=None)
def test_exhaustive_value_is_the_objective_of_its_list(inst, G):
    inst = truncate_instance(inst, min(inst.k, 3))
    assume(inst.mode == "discrete" or len(inst.items) >= inst.k)
    seq, value = exhaustive_opt(inst, measure=G)
    assert value == seq_objective(G, seq, inst)


# ---------------------------------------------------------------------------
# Batched continuous-greedy gains
# ---------------------------------------------------------------------------


def _sampled_sets(ground, samples, seed):
    rng = np.random.default_rng(seed)
    return rng.random((samples, len(ground))) < rng.random(len(ground))


@given(instances(), measures, st.booleans(), st.integers(1, 12),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_batched_gains_match_the_per_call_loop(inst, G, first_only, samples, seed):
    F = (fg_function if first_only else hatfg_function)(G, inst)
    m = PartitionMatroid(inst.item_ids, inst.k)
    ground = m.ground_set()
    S = _sampled_sets(ground, samples, seed)
    np.testing.assert_allclose(F.mean_gains(m)(S),
                               _mean_gains_by_call(F, ground, S),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("function", [fg_function, hatfg_function])
def test_batched_gains_with_a_custom_measure(function):
    G = GENRE_COUNT
    inst = validate_instance(Instance(
        genres=("g1", "g2", "g3", "g4"),
        target=Subdistribution({"g1": 0.5, "g2": 0.5}),
        items=(("a", Subdistribution({"g1": 1.0})),
               ("b", Subdistribution({"g3": 1.0})),
               ("c", Subdistribution({"g2": 0.5, "g4": 0.5}))),
        weights=PositionWeights((0.5, 0.3, 0.2))))
    F = function(G, inst)
    m = PartitionMatroid(inst.item_ids, inst.k)
    ground = m.ground_set()
    S = _sampled_sets(ground, 10, 50)
    np.testing.assert_allclose(F.mean_gains(m)(S),
                               _mean_gains_by_call(F, ground, S),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("function", [fg_function, hatfg_function])
def test_gains_do_not_depend_on_the_chunk_size(monkeypatch, function):
    inst = generate_instances(GenParams(min_items=6, max_items=6, max_k=4),
                              "distributional", seed=51, n=1)[0]
    F = function(PowerOverlap(0.5), inst)
    m = PartitionMatroid(inst.item_ids, inst.k)
    ground = m.ground_set()
    S = _sampled_sets(ground, 9, 52)
    whole = F.mean_gains(m)(S)
    monkeypatch.setattr(matroid, "_CHUNK_BYTES", 1)  # one sample per chunk
    np.testing.assert_allclose(F.mean_gains(m)(S), whole, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", ["distributional", "discrete"])
def test_continuous_greedy_same_point_from_closure_and_plain_callable(mode):
    # A plain callable takes the per-call path; the closure the batched one.
    insts = generate_instances(GenParams(max_items=6, max_k=4), mode,
                               seed=53, n=6)
    for inst, G in zip(insts, [HellingerSquared(), PowerOverlap(0.5)] * 3):
        cases = [(PartitionMatroid, hatfg_function)]
        if mode == "distributional":
            cases.append((LaminarMatroid, fg_function))
        for cls, function in cases:
            m = cls(inst.item_ids, inst.k)
            F = function(G, inst)
            batched = continuous_greedy(F, m, steps=6, samples=8, seed=54)
            by_call = continuous_greedy(lambda S: F(S), m, steps=6, samples=8,
                                        seed=54)
            assert batched.x == by_call.x


@given(instances())
@settings(max_examples=100, deadline=None)
def test_induced_distribution_is_exact(inst):
    seq = Sequence(tuple(_elements(inst)[:inst.k]))
    q = induced_distribution(seq, inst)
    for g in inst.genres:
        want = 0.0
        for j, e in enumerate(seq, start=1):
            unit = inst.mode == "discrete" and e in inst.genres
            want += inst.weights[j] * (
                float(e == g) if unit else ref_item_dist(inst, e).get(g))
        assert q.get(g) == want


def test_empty_list_and_empty_set():
    inst = make_instance()
    G = HellingerSquared()
    empty = ItemPositionSet(frozenset())
    assert seq_objective(G, Sequence(), inst) == 0.0
    assert seq_objective(G, Sequence(), inst) == ref_seq_objective(
        G, Sequence(), inst)
    assert fg_set(G, empty, inst) == ref_fg(G, empty, inst) == 0.0
    assert hatfg_set(G, empty, inst) == ref_hatfg(G, empty, inst) == 0.0


def test_single_genre_long_list_adds_in_position_order():
    # one column: a pairwise or blocked sum over the list would differ here
    w = _normalized([math.pi / n for n in range(1, 13)])
    inst = validate_instance(Instance(
        genres=("g",), target=Subdistribution({"g": 1.0}),
        items=(("a", Subdistribution({"g": 1.0})),),
        weights=PositionWeights(tuple(w))))
    seq = Sequence(("a",) * 12)
    q = induced_distribution(seq, inst)
    total = 0.0
    for v in inst.weights.w:
        total += v
    assert q.get("g") == total
    G = PowerOverlap(0.5)
    assert seq_objective(G, seq, inst) == ref_seq_objective(G, seq, inst)


# fg, hatfg and the fg closure on random sets of 8-14 genres, where numpy's
# pairwise sum would expose a change in the order pairs are added
_SET_VALUES = """
import numpy as np
from caliblist.core import HellingerSquared, ItemPositionSet, fg_set, hatfg_set
from caliblist.matroid import fg_function
from caliblist.repro import GenParams, generate_instances
G = HellingerSquared()
rng = np.random.default_rng(0)
out = []
for inst in generate_instances(GenParams(min_genres=8, max_genres=14),
                               "distributional", seed=61, n=200):
    ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
    R = ItemPositionSet(frozenset(e for e in ground if rng.random() < 0.5))
    out += [fg_set(G, R, inst), hatfg_set(G, R, inst),
            fg_function(G, inst)(R.pairs)]
print([v.hex() for v in out])
"""


def test_set_values_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH":
               os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _SET_VALUES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


class TestItemDist:
    def test_unknown_list_element_raises_key_error(self):
        with pytest.raises(KeyError):
            seq_objective(HellingerSquared(), Sequence(("nope",)),
                          make_instance())

    def test_core_is_built_once_and_read_only(self):
        inst = make_instance()
        assert "dense" not in vars(inst)  # not built at construction
        core = inst.dense
        assert inst.dense is core
        with pytest.raises(ValueError):
            core.Q[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Loaded instances: the flat loader against Subdistribution-built instances
# ---------------------------------------------------------------------------

# a mass as a document may write it: zeros, -0.0 and integers included
_doc_mass = st.one_of(st.just(0.0), st.just(-0.0), st.just(0), st.floats(0.01, 1.0))


@st.composite
def documents(draw):
    """A valid instance document. Half of them write only positive floats;
    in the others masses may be 0, -0.0 or integers, and dists may carry
    zero masses on undeclared genres."""
    mode = draw(st.sampled_from(["distributional", "discrete"]))
    genres = [f"g{n}" for n in range(draw(st.integers(1, 6)))]
    messy = draw(st.booleans())
    mass = _doc_mass if messy else st.floats(0.01, 1.0)

    def dist(point=False):
        if point or draw(st.booleans()) and draw(st.booleans()):
            g = draw(st.sampled_from(genres))
            d = {g: draw(st.sampled_from([1, 1.0] if messy else [1.0]))}
        else:
            raw = draw(st.lists(mass, min_size=len(genres), max_size=len(genres)))
            if not any(raw):
                raw[0] = 1
            d = {g: v / sum(raw) if v else v for g, v in zip(genres, raw)}
        for g in draw(st.lists(st.sampled_from(genres + ["zz"]), max_size=2 * messy)):
            d.setdefault(g, draw(st.sampled_from([0, 0.0, -0.0])))
        return dict(sorted(d.items(), key=lambda _: draw(st.integers(0, 9))))

    n_items = len(genres) if mode == "discrete" else draw(st.integers(0, 8))
    raw_w = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    return {"genres": genres, "target": dist(),
            "items": [{"id": f"i{n}", "dist": dist(point=mode == "discrete")}
                      for n in range(n_items)],
            "weights": sorted((v / sum(raw_w) for v in raw_w), reverse=True),
            "mode": mode}


def ref_Q(inst):
    """The item matrix written one mass at a time over the sorted genres."""
    genres = sorted(inst.genres)
    unit = len(genres) if inst.mode == "discrete" else 0
    Q = np.zeros((len(inst.items) + unit, len(genres)))
    for r, (_, d) in enumerate(inst.items):
        for g, v in d.items():
            Q[r, genres.index(g)] = v
    Q[len(inst.items):] = np.eye(len(genres))[:unit]
    return Q


def _same_array(a, b):
    return a.shape == b.shape and (a == b).all() and (np.signbit(a) == np.signbit(b)).all()


@given(documents())
@settings(max_examples=300, deadline=None)
def test_loaded_instance_equals_the_subdistribution_built_one(doc):
    inst = instance_from_dict(doc)
    built = validate_instance(Instance(
        genres=tuple(doc["genres"]), target=Subdistribution(doc["target"]),
        items=tuple((e["id"], Subdistribution(e["dist"])) for e in doc["items"]),
        weights=PositionWeights(tuple(doc["weights"])), mode=doc["mode"]))
    assert inst == built
    # == takes 1 for 1.0; the documents they write must match too
    assert repr(instance_to_dict(inst)) == repr(instance_to_dict(built))
    core, fresh = inst.dense, replace(inst).dense
    for name in ("p", "Q", "w"):
        assert _same_array(getattr(core, name), getattr(fresh, name))
    for name in ("genres", "item_row", "row"):
        assert getattr(core, name) == getattr(fresh, name)
    assert _same_array(core.Q, ref_Q(inst))
    assert not np.signbit(core.Q).any() and not np.signbit(core.p).any()
