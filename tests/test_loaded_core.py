"""The dense core of a loaded instance against one built from its dicts.

``instance_from_dict`` may write a document's masses straight into the rows
of ``Instance.dense.Q``. That core must equal the one ``Instance.dense``
builds lazily from the same instance's dicts, bit for bit, with its columns
in sorted genre order whatever order a document declares genres or writes
keys in. An error that quotes an item's total quotes ``ordered_sum`` of its
masses in document order: the int 0 for an empty dist.
"""

import copy
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblist.core import (
    Instance,
    PositionWeights,
    Subdistribution,
    ValidationError,
    ordered_sum,
    validate_instance,
)
from caliblist.io import instance_from_dict, load_instance, save_instance
from caliblist.repro import generate_instances

from test_golden import CORPUS


def _same_array(a, b):
    return (a.shape == b.shape and (a == b).all()
            and (np.signbit(a) == np.signbit(b)).all())


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


def assert_lazy_core(inst):
    """``inst.dense`` equals a core built from the dicts of a fresh copy."""
    core, lazy = inst.dense, replace(inst).dense
    assert core.genres == lazy.genres == tuple(sorted(inst.genres))
    for name in ("p", "Q", "w"):
        assert _same_array(getattr(core, name), getattr(lazy, name)), name
    assert core.item_row == lazy.item_row
    assert core.row == lazy.row
    # the same row and column for every mass, not merely the same set of them
    assert list(core.item_row.items()) == list(lazy.item_row.items())
    assert list(core.row.items()) == list(lazy.row.items())
    assert _same_array(core.Q, ref_Q(inst))
    for a in (core.p, core.Q, core.w):
        assert not a.flags.writeable


def test_golden_corpus_files_load_with_the_lazy_core(tmp_path):
    path = tmp_path / "inst.json"
    for mode, params, seed, count, _, *edit in CORPUS:
        insts = generate_instances(params, mode, seed, count)
        for inst in map(edit[0], insts) if edit else insts:
            for variant in (inst, replace(inst, items=inst.items[::-1])):
                save_instance(variant, path)
                loaded = load_instance(path)
                assert loaded == variant
                assert "dense" in vars(loaded)  # filled at load
                assert_lazy_core(loaded)
                core, built = loaded.dense, variant.dense
                for name in ("p", "Q", "w"):
                    assert _same_array(getattr(core, name), getattr(built, name))


# ---------------------------------------------------------------------------
# Documents: shuffled keys, partial supports, ints and zeros, 1-40 genres
# ---------------------------------------------------------------------------

_ZEROS = [0, 0.0, -0.0]


@st.composite
def documents(draw):
    """A valid instance document.

    Genres are declared in a shuffled order; each dist writes its keys in a
    shuffled order over a random part of the genres. In a messy document
    masses may be integers, and zeros (``0``, ``0.0``, ``-0.0``) sit on
    declared and undeclared genres; the loader drops them.
    """
    mode = draw(st.sampled_from(["distributional", "discrete"]))
    n_genres = draw(st.integers(1, 40))
    genres = draw(st.permutations([f"g{n}" for n in range(n_genres)]))
    messy = draw(st.booleans())

    def shuffled(d):
        keys = draw(st.permutations(list(d)))
        return {g: d[g] for g in keys}

    def zeros(d):
        if messy:
            for g in draw(st.lists(st.sampled_from(genres + ["zz"]), max_size=3)):
                d.setdefault(g, draw(st.sampled_from(_ZEROS)))
        return shuffled(d)

    def dist(point=False):
        if point:
            return zeros({draw(st.sampled_from(genres)):
                          draw(st.sampled_from([1, 1.0] if messy else [1.0]))})
        support = draw(st.lists(st.sampled_from(genres), min_size=1,
                                max_size=n_genres, unique=True))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                            max_size=len(support)))
        total = sum(raw)
        return zeros({g: v / total for g, v in zip(support, raw)})

    discrete = mode == "discrete"
    n_items = draw(st.integers(0, 8))
    raw_w = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    items = [{"id": f"i{n}", "dist": dist(point=discrete)} for n in range(n_items)]
    if draw(st.booleans()):
        items.reverse()
    return {"genres": genres, "target": dist(),
            "items": items,
            "weights": sorted((v / sum(raw_w) for v in raw_w), reverse=True),
            "mode": mode}


def unchecked(doc):
    """The instance of ``doc`` built from ``Subdistribution`` dicts."""
    return Instance(
        genres=tuple(doc["genres"]), target=Subdistribution(doc["target"]),
        items=tuple((e["id"], Subdistribution(e["dist"])) for e in doc["items"]),
        weights=PositionWeights(tuple(doc["weights"])), mode=doc["mode"])


def built(doc):
    """``unchecked(doc)`` checked by ``validate_instance`` over its dicts: the
    reference for loaded instances and errors."""
    return validate_instance(unchecked(doc))


def _error(make, doc):
    try:
        make(doc)
    except ValidationError as exc:
        return str(exc)
    return None


def _catalog_documents():
    """Documents of a 40-genre wide item and an empty item, of the same with
    30 point masses, of three empty items and of two wide items, each with
    sorted keys and with one shared unsorted key order, and the message each
    gives (None if valid), ``{t}`` standing for the first item's total. The
    wide item is scaled so that it passes, falls short of 1 or exceeds it."""
    genres = [f"g{n:02}" for n in range(40)]
    raw = np.random.default_rng(5).random(40)
    shared = np.random.default_rng(6).permutation(genres).tolist()
    for scale, fault in ((1.0, None), (0.9, "item 'i0' mass {t} != 1"),
                         (1.1, "mass {t} exceeds 1")):
        wide = dict(zip(genres, (raw / raw.sum() * scale).tolist()))
        for dists in ([wide, {}], [wide, {}] + [{"g07": 1.0}] * 30, [{}] * 3,
                      [wide, wide]):
            if not dists[0]:
                message = "item 'i0' mass 0 != 1"
            elif fault or dists[1]:
                message = fault
            else:
                message = "item 'i1' mass 0 != 1"
            for order in (genres, shared):
                items = [{"id": f"i{n}", "dist": {g: d[g] for g in order if g in d}}
                         for n, d in enumerate(dists)]
                yield ({"genres": genres, "target": {"g07": 1.0}, "items": items,
                        "weights": [1.0], "mode": "distributional"}, message)


def test_wide_ragged_and_empty_items_quote_ordered_sums():
    """Whether a catalog's masses go through ``Q``'s rows (sorted keys, or
    one key order that every item shares) or its dicts (an unsorted wide item
    among others), a quoted total is ``ordered_sum``'s of the masses in key
    order, in bits and type: the int 0 for an empty item."""
    for doc, message in _catalog_documents():
        total = ordered_sum(doc["items"][0]["dist"].values())
        want = message and message.format(t=total)
        assert _error(lambda d: instance_from_dict(copy.deepcopy(d)), doc) == want
        assert _error(built, doc) == want


@given(documents())
@settings(max_examples=300, deadline=None)
def test_loaded_documents_have_the_lazy_core(doc):
    inst = instance_from_dict(copy.deepcopy(doc))
    assert inst == built(doc)
    assert_lazy_core(inst)


# ---------------------------------------------------------------------------
# Broken items: the first failing check, at the first item it flags
# ---------------------------------------------------------------------------


def _total(dist):
    """An item's total as its message quotes it: zeros dropped, ints as floats."""
    return ordered_sum(float(v) for v in dist.values() if v > 0)


@given(documents(), st.data())
@settings(max_examples=300, deadline=None)
def test_item_errors_quote_the_ordered_total(doc, data):
    items = doc["items"]
    if not items:
        items.append({"id": "i0", "dist": {}})
    faults = data.draw(st.lists(st.tuples(
        st.integers(0, len(items) - 1),
        st.sampled_from(["empty", "scale", "undeclared", "duplicate", "spread"])),
        min_size=1, max_size=3))
    for n, fault in faults:
        d = items[n]["dist"]
        if fault == "empty":
            items[n]["dist"] = {}
        elif fault == "scale":
            c = data.draw(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 3.0]))
            items[n]["dist"] = {g: v * c for g, v in d.items()}
        elif fault == "undeclared":
            items[n]["dist"] = {**d, "zz": 1e-3}
        elif fault == "duplicate":
            items[n]["id"] = items[0]["id"]
        elif len(doc["genres"]) > 1:  # spread: no point mass in discrete mode
            g, h = doc["genres"][:2]
            items[n]["dist"] = {g: 0.5, h: 0.5}
    got = _error(lambda doc: instance_from_dict(copy.deepcopy(doc)), doc)
    assert got == _error(built, doc)
    if got is not None and got.endswith(("exceeds 1", "!= 1")):
        quoted = {f"mass {_total(e['dist'])} exceeds 1" for e in items}
        quoted |= {f"item {e['id']!r} mass {_total(e['dist'])} != 1" for e in items}
        assert got in quoted
