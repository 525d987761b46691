"""The items of a loaded instance against those of an eagerly built one.

A loaded instance may keep its item masses as flat arrays and build
``Instance.items`` from them on first access. Whatever it keeps, its items
must be those of the instance built from the same document with one
``Subdistribution`` per item: the same ids, the same dict key order, the same
float bits. Equality, ``dataclasses.replace``, ``instance_to_dict`` and the
file ``save_instance`` writes go through the items, so they must agree too.
Each check starts from a fresh load, so it is the first to touch the items.
"""

import copy
import json
from dataclasses import replace

from hypothesis import given, settings

from caliblist.cli import main
from caliblist.core import Subdistribution
from caliblist.io import instance_from_dict, instance_to_dict, load_instance, save_instance
from caliblist.repro import generate_instances

from test_golden import CORPUS
from test_loaded_core import built, documents


def _entries(inst):
    """Each item's id and its masses in key order, floats as their bits."""
    return [(i, [(g, v.hex()) for g, v in d.weights.items()]) for i, d in inst.items]


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


def test_golden_corpus_files_load_the_items_as_built(tmp_path):
    path, copy_path = tmp_path / "inst.json", tmp_path / "copy.json"
    for mode, params, seed, count, _, *edit in CORPUS:
        insts = generate_instances(params, mode, seed, count)
        for inst in map(edit[0], insts) if edit else insts:
            for variant in (inst, replace(inst, items=inst.items[::-1])):
                save_instance(variant, path)
                doc = json.loads(path.read_text())
                assert_items_as_built(lambda: load_instance(path), built(doc), copy_path)


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
