"""The items of a loaded instance against those of an eagerly built one.

A loaded instance may keep its item masses only in the rows of its dense
core's ``Q`` and build ``Instance.items`` from them on first access. Whatever
it keeps, its items must be those of the instance built from the same
document with one ``Subdistribution`` per item: the same ids, the same dict
key order, the same float bits. Equality, ``dataclasses.replace``,
``instance_to_dict`` and the file ``save_instance`` writes go through the
items, so they must agree too. Each check starts from a fresh load, so it is
the first to touch the items.
"""

import copy
import json
import random
from dataclasses import replace

import numpy as np
from hypothesis import given, settings

from caliblist.cli import main
from caliblist.core import (
    Instance,
    PositionWeights,
    Subdistribution,
    ValidationError,
    ordered_sum,
)
from caliblist.io import instance_from_dict, instance_to_dict, load_instance, save_instance
from caliblist.repro import GenParams, generate_instances

from test_golden import CORPUS
from test_loaded_core import built, documents


def _entries(inst):
    """Each item's id and its masses in key order, floats as their bits."""
    return [(i, [(g, v.hex()) for g, v in d.weights.items()]) for i, d in inst.items]


def filled_at_load(inst):
    """True when a load wrote the masses into ``Q``: the dense core is built
    and the items are not."""
    return "dense" in vars(inst) and "items" not in vars(inst)


def assert_items_as_built(load, ref, path):
    """Instances from ``load()`` have the items of ``ref``, and so give what it
    gives under ``==``, ``replace``, ``instance_to_dict`` and ``save_instance``."""
    inst = load()
    assert inst.item_ids == ref.item_ids
    assert inst.universe() == ref.universe()
    assert _entries(inst) == _entries(ref)
    assert load() == ref
    assert ref == load()
    inst = load()
    flipped = replace(inst, items=inst.items[::-1])
    assert flipped == replace(ref, items=ref.items[::-1])
    assert _entries(flipped) == _entries(ref)[::-1]
    want = json.dumps(instance_to_dict(ref))  # key order and float reprs
    assert json.dumps(instance_to_dict(load())) == want
    save_instance(ref, path)
    expected = path.read_bytes()
    save_instance(load(), path)
    assert path.read_bytes() == expected


def layouts():
    """Documents by layout, as a file may write them. ``same keys``,
    ``partial supports`` (each item's keys in sorted genre order, key sets
    differing) and ``unsorted same keys`` (every item's keys in one unsorted
    order) write their masses into ``Q``'s rows, as ``point masses`` does;
    ``shuffled keys`` and ``ints and zeros`` are wrapped dict by dict."""
    rng = random.Random(21)
    inst = generate_instances(GenParams(min_genres=6, max_genres=8, min_items=5,
                                        max_items=8, max_k=4), "distributional", 21, 1)[0]
    same = instance_to_dict(inst)
    genres = sorted(inst.genres)

    def with_dists(doc, dist):
        return {**doc, "items": [{"id": e["id"], "dist": dist(e["dist"])}
                                 for e in doc["items"]]}

    def partial(d):
        keep = sorted(rng.sample(genres, rng.randint(1, len(genres) - 1)))
        total = ordered_sum(d[g] for g in keep)
        return {g: d[g] / total for g in keep}

    def shuffled(d):
        return {g: d[g] for g in rng.sample(list(d), len(d))}

    def reversed_keys(d):
        return {g: d[g] for g in genres[::-1]}

    points = instance_to_dict(generate_instances(GenParams(max_k=4), "discrete", 22, 1)[0])
    return {"same keys": same,
            "partial supports": with_dists(same, partial),
            "unsorted same keys": with_dists(same, reversed_keys),
            "point masses": points,
            "shuffled keys": with_dists(same, shuffled),
            "ints and zeros": with_dists(points, lambda d: {"zz": 0, **{g: 1 for g in d}})}


def test_golden_corpus_files_load_the_items_as_built(tmp_path):
    path, copy_path = tmp_path / "inst.json", tmp_path / "copy.json"
    for mode, params, seed, count, _, *edit in CORPUS:
        insts = generate_instances(params, mode, seed, count)
        for inst in map(edit[0], insts) if edit else insts:
            for variant in (inst, replace(inst, items=inst.items[::-1])):
                save_instance(variant, path)
                doc = json.loads(path.read_text())
                assert_items_as_built(lambda: load_instance(path), built(doc), copy_path)
    for name in ("partial supports", "unsorted same keys"):
        doc = layouts()[name]
        for variant in (doc, {**doc, "items": doc["items"][::-1]}):
            path.write_text(json.dumps(variant))
            assert filled_at_load(load_instance(path)), name
            assert_items_as_built(lambda: load_instance(path), built(variant), copy_path)


def test_a_loaded_instance_keeps_nothing_of_the_document():
    """Changing every dist of a document after loading it changes nothing of
    the instance, its items or its dense core, on either loader route."""
    for name, doc in layouts().items():  # layouts share a target dict
        doc, fresh = copy.deepcopy(doc), copy.deepcopy(doc)
        inst = instance_from_dict(doc)
        assert filled_at_load(inst) == (name not in ("shuffled keys", "ints and zeros"))
        for d in [doc["target"]] + [e["dist"] for e in doc["items"]]:
            for g in list(d):
                d[g] = 0.125
            d["zz"] = 0.5
        want = instance_from_dict(fresh)
        assert _entries(inst) == _entries(want), name
        assert inst == want, name
        for field in ("p", "Q", "w"):
            assert np.array_equal(getattr(inst.dense, field), getattr(want.dense, field))
        assert inst.dense.row == want.dense.row


def _arrays(value):
    """The numpy arrays ``value`` is or holds in its tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


def _broken(doc):
    """``doc``, then copies of it that each fail one check (or none, where
    the edit leaves the document valid)."""
    def edited(field, fn, n=-1):
        items = copy.deepcopy(doc["items"])
        items[n][field] = fn(items[n][field])
        return {**doc, "items": items}

    two = sorted(doc["genres"])[:2]
    yield doc
    yield edited("dist", lambda d: {g: 2 * v for g, v in d.items()}, n=0)  # mass > 1
    yield edited("dist", lambda d: {g: v / 2 for g, v in d.items()})  # mass < 1
    yield edited("dist", lambda d: {"zz" if n == 0 else g: v  # an undeclared genre
                                    for n, (g, v) in enumerate(d.items())})
    yield edited("dist", lambda d: dict.fromkeys(two, 0.5))  # no point mass
    yield edited("id", lambda _: doc["items"][0]["id"])  # a duplicate id


def _of_rows(doc):
    """``Instance.of_rows`` on the document's parts, its masses as positive floats."""
    dists = [{g: float(v) for g, v in e["dist"].items() if v} for e in doc["items"]]
    masses = np.array([v for d in dists for v in d.values()])
    return Instance.of_rows(tuple(doc["genres"]), Subdistribution(doc["target"]),
                            [e["id"] for e in doc["items"]], dists, masses,
                            PositionWeights(tuple(doc["weights"])), doc["mode"])


def _instance_or_error(build, doc):
    try:
        return build(copy.deepcopy(doc))
    except ValidationError as exc:
        return str(exc)


def test_a_loaded_instance_holds_its_masses_once():
    """A loaded instance holds no array outside its dense core, on any route,
    and ``Instance.of_rows`` gives the instance or error ``instance_from_dict``
    gives, for every layout and for each one broken."""
    for name, doc in layouts().items():
        for variant in _broken(doc):
            want = _instance_or_error(instance_from_dict, variant)
            got = _instance_or_error(_of_rows, variant)
            assert type(got) is type(want), (name, got, want)
            if isinstance(want, str):
                assert got == want, name
                continue
            for inst in (got, want):
                held = [v for k, v in vars(inst).items() if k != "dense"]
                assert _arrays(held) == [], name
            assert got == want, name
            for field in ("p", "Q", "w"):
                assert np.array_equal(getattr(got.dense, field), getattr(want.dense, field))


@given(documents())
@settings(max_examples=200, deadline=None)
def test_loaded_documents_have_the_items_as_built(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "lazy_items.json"
    assert_items_as_built(lambda: instance_from_dict(copy.deepcopy(doc)), built(doc), path)


# ---------------------------------------------------------------------------
# Solving a file builds no item Subdistribution
# ---------------------------------------------------------------------------

ALGORITHMS = ("greedy", "discrete-greedy", "exhaustive", "continuous",
              "continuous-repeats")


def test_no_solve_path_builds_the_items(tmp_path, monkeypatch, capsys):
    """Every algorithm, with each argument list of the golden corpus
    (``--best-length`` and ``--k-override`` among them), solves a corpus file
    reading only the ids and the dense core: the target is the one
    ``Subdistribution`` a solve constructs."""
    built_dists = []
    post_init, from_positive = Subdistribution.__post_init__, Subdistribution.from_positive

    def counted_init(self):
        built_dists.append(self.weights)
        post_init(self)

    def counted_positive(weights):
        built_dists.append(weights)
        return from_positive(weights)

    monkeypatch.setattr(Subdistribution, "__post_init__", counted_init)
    monkeypatch.setattr(Subdistribution, "from_positive", counted_positive)
    solved = set()
    for group, (mode, params, seed, _, argvs, *edit) in enumerate(CORPUS):
        inst = generate_instances(params, mode, seed, 1)[0]
        inst = edit[0](inst) if edit else inst
        path = tmp_path / f"{group}.json"
        save_instance(inst, path)
        for argv in argvs:
            solved.add(argv[argv.index("--algorithm") + 1])
            built_dists.clear()
            assert main(["solve", str(path), *argv, "--machine"]) == 0
            assert capsys.readouterr().out
            assert len(built_dists) == 1, (argv, built_dists)
            assert built_dists[0] == inst.target.weights
    assert solved == set(ALGORITHMS)


def test_no_solve_of_other_layouts_builds_the_items(tmp_path, monkeypatch, capsys):
    """Files whose items write partial supports in sorted genre order, or the
    same keys in one unsorted order, also solve with every distributional
    argument list of the golden corpus building no item ``Subdistribution``."""
    built_dists = []
    from_positive = Subdistribution.from_positive
    post_init = Subdistribution.__post_init__
    monkeypatch.setattr(Subdistribution, "__post_init__",
                        lambda self: built_dists.append(self.weights) or post_init(self))
    monkeypatch.setattr(Subdistribution, "from_positive",
                        lambda w: built_dists.append(w) or from_positive(w))
    path = tmp_path / "inst.json"
    for name in ("partial supports", "unsorted same keys"):
        doc = layouts()[name]
        path.write_text(json.dumps(doc))
        for argv in CORPUS[0][4]:
            built_dists.clear()
            assert main(["solve", str(path), *argv, "--machine"]) == 0
            assert capsys.readouterr().out
            assert built_dists == [doc["target"]], (name, argv)
