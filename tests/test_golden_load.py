"""Golden `instance_from_dict` outcomes for single-fault instance documents.

One small valid document per mode is broken at every location by every op
of the CLI fuzz test (`tests/test_cli.py::perturbed_documents`), one op at a
time, and a list of edge cases is added: empty and all-zero dists, zero
and ``-0.0`` masses on declared and undeclared genres, integer masses,
NaN, infinities, masses just past the tolerance, non-point items in
discrete mode, duplicate ids and genres. Each document must give the
stored error message exactly, or load to the stored `instance_to_dict`.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_load.py
"""

import copy
import json
import math
import sys
from pathlib import Path

from caliblist.core import ValidationError
from caliblist.io import instance_from_dict, instance_to_dict

from test_cli import _BAD_VALUES, _NON_STRINGS, _locations

GOLDEN = Path(__file__).with_name("golden_load_records.json")

BASE = {
    "distributional": {
        "genres": ["g1", "g2", "g3"],
        "target": {"g1": 0.5, "g2": 0.25, "g3": 0.25},
        "items": [{"id": "a", "dist": {"g1": 0.75, "g2": 0.25}},
                  {"id": "b", "dist": {"g2": 0.5, "g3": 0.5}},
                  {"id": "c", "dist": {"g3": 1.0}}],
        "weights": [0.5, 0.3, 0.2], "k": 3, "mode": "distributional"},
    "discrete": {
        "genres": ["g1", "g2"],
        "target": {"g1": 0.625, "g2": 0.375},
        "items": [{"id": "a", "dist": {"g1": 1.0}},
                  {"id": "b", "dist": {"g2": 1.0}}],
        "weights": [0.75, 0.25], "k": 2, "mode": "discrete"},
}

# (name, path, value) edge cases; a path ending in a new key adds it
EDGES = [
    ("empty dist", ("items", 0, "dist"), {}),
    ("zero dist", ("items", 0, "dist"), {"g1": 0.0}),
    ("zeros dist", ("items", 0, "dist"), {"g1": 0.0, "g2": 0.0}),
    ("int zero dist", ("items", 0, "dist"), {"g1": 0}),
    ("minus zero dist", ("items", 0, "dist"), {"g1": -0.0}),
    ("zero undeclared", ("items", 0, "dist", "zz"), 0.0),
    ("int zero undeclared", ("items", 0, "dist", "zz"), 0),
    ("minus zero undeclared", ("items", 0, "dist", "zz"), -0.0),
    ("zero declared", ("items", 1, "dist", "g1"), 0.0),
    ("minus zero declared", ("items", 1, "dist", "g1"), -0.0),
    ("positive undeclared", ("items", 1, "dist"), {"zz": 1.0}),
    ("zero undeclared target", ("target", "zz"), 0.0),
    ("minus zero target", ("target", "g3"), -0.0),
    ("int mass", ("items", 1, "dist"), {"g2": 1}),
    ("int masses", ("items", 1, "dist"), {"g1": 0, "g2": 1}),
    ("int target", ("target",), {"g1": 1, "g2": 0}),
    ("int weights", ("weights",), [1, 0, 0]),
    ("float k", ("k",), 3.0),
    ("nan mass", ("items", 1, "dist", "g2"), math.nan),
    ("inf mass", ("items", 1, "dist", "g2"), math.inf),
    ("minus inf mass", ("items", 1, "dist", "g2"), -math.inf),
    ("nan target", ("target", "g1"), math.nan),
    ("past tolerance", ("items", 1, "dist"), {"g2": 1 + 2e-9}),
    ("within tolerance", ("items", 1, "dist"), {"g2": 1 + 5e-10}),
    ("short of tolerance", ("items", 1, "dist"), {"g2": 1 - 2e-9}),
    ("half mass", ("items", 1, "dist"), {"g2": 0.5}),
    ("two genres", ("items", 1, "dist"), {"g1": 0.5, "g2": 0.5}),
    ("point with a zero", ("items", 1, "dist"), {"g1": 0.0, "g2": 1.0}),
    ("big int mass", ("items", 1, "dist"), {"g2": 2}),
    ("duplicate id", ("items", 1, "id"), "a"),
    ("duplicate genre", ("genres", 1), "g1"),
    ("no items", ("items",), []),
    ("empty target", ("target",), {}),
]


def _set(doc, path, value):
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value


def _mutations(doc):
    """Yield (name, document) for every single op at every location."""
    for path in _locations(doc):
        *where, key = path
        parent = doc
        for step in where:
            parent = parent[step]
        value = parent[key]
        ops = [(f"replace {v!r}", v) for v in _BAD_VALUES]
        ops.append(("delete", None))
        if isinstance(value, dict):
            ops.append(("extra key", None))
        if isinstance(value, list):
            ops += [(f"duplicate {n}", n) for n in range(len(value))]
        if isinstance(value, float):
            ops += [(f"nudge {d!r}", d) for d in (1e-3, -1e-3)]
        if isinstance(value, str):
            ops += [(f"non-string {v!r}", v) for v in _NON_STRINGS]
        for name, arg in ops:
            out = copy.deepcopy(doc)
            parent = out
            for step in where:
                parent = parent[step]
            if name == "delete":
                del parent[key]
            elif name == "extra key":
                parent[key]["extra"] = 1.0
            elif name.startswith("duplicate"):
                parent[key].append(copy.deepcopy(value[arg]))
            elif name.startswith("nudge"):
                parent[key] = value + arg
            else:
                parent[key] = copy.deepcopy(arg)
            yield f"{'/'.join(map(str, path))} {name}", out


def documents():
    """Yield (name, document), always in the same order."""
    for mode, base in BASE.items():
        yield f"{mode} valid", copy.deepcopy(base)
        for name, doc in _mutations(base):
            yield f"{mode} {name}", doc
        for name, path, value in EDGES:
            doc = copy.deepcopy(base)
            try:
                _set(doc, path, copy.deepcopy(value))
            except (IndexError, KeyError):  # the path is not in this mode
                continue
            yield f"{mode} {name}", doc


def record(name, doc) -> dict:
    try:
        return {"case": name, "instance": instance_to_dict(instance_from_dict(doc))}
    except ValidationError as exc:
        return {"case": name, "error": str(exc)}


def test_load_records_match_golden():
    got = [record(name, doc) for name, doc in documents()]
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [r["case"] for r in got] == [r["case"] for r in want]
    for g, w in zip(got, want):
        assert g == w
        # ints stay ints and floats floats: 1 and 1.0 are equal in python
        assert json.dumps(g) == json.dumps(w)


if __name__ == "__main__":
    lines = [json.dumps(record(name, doc)) for name, doc in documents()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} records to {GOLDEN}", file=sys.stderr)
