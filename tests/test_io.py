"""Unit tests for the JSON instance format."""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caliblist.io
from caliblist.core import Instance, PositionWeights, Subdistribution, ValidationError
from caliblist.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from caliblist.repro import GenParams, generate_instances

from test_core import make_instance
from test_golden_load import GOLDEN, documents


def test_round_trip_preserves_instance(tmp_path):
    inst = make_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst


def test_dict_round_trip():
    inst = make_instance()
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_unknown_field_rejected():
    data = instance_to_dict(make_instance())
    data["surprise"] = 1
    with pytest.raises(ValidationError, match="unknown instance fields"):
        instance_from_dict(data)


def test_unknown_item_field_rejected():
    data = instance_to_dict(make_instance())
    data["items"][0]["score"] = 0.5
    with pytest.raises(ValidationError, match="unknown item fields"):
        instance_from_dict(data)


def test_missing_field_rejected():
    data = instance_to_dict(make_instance())
    del data["weights"]
    with pytest.raises(ValidationError, match="missing"):
        instance_from_dict(data)


def test_k_mismatch_rejected():
    data = instance_to_dict(make_instance())
    data["k"] = 7
    with pytest.raises(ValidationError, match="does not match"):
        instance_from_dict(data)


def test_k_field_is_optional():
    data = instance_to_dict(make_instance())
    del data["k"]
    assert instance_from_dict(data) == make_instance()


def test_invalid_payload_rejected():
    data = instance_to_dict(make_instance())
    data["target"] = {"g1": 0.9}  # mass != 1
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="cannot parse"):
        load_instance(path)


@pytest.mark.parametrize("field, value", [
    ("id", None), ("id", 7), ("id", ["a"]), ("genre", 1), ("genre", None),
    ("mode", 0), ("mode", None)])
def test_non_string_ids_rejected(field, value):
    # they used to load as the strings "None", "7", "['a']", ...
    data = instance_to_dict(make_instance())
    if field == "id":
        data["items"][0]["id"] = value
    elif field == "genre":
        data["genres"][0] = value
    else:
        data["mode"] = value
    with pytest.raises(ValidationError, match="expected a string"):
        instance_from_dict(data)


# ---------------------------------------------------------------------------
# One outcome whichever parser reads the file
# ---------------------------------------------------------------------------


def _outcome(path):
    """The instance in ``path``, or the ``error:`` line the CLI would print."""
    try:
        return load_instance(path)
    except ValidationError as exc:
        return f"error: {exc}"


def _both_parsers(path):
    """Outcomes with ``orjson`` (when installed) and with ``json`` alone."""
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(caliblist.io, "_orjson", lambda: None)
        slow = _outcome(path)
    return fast, slow


def _write(path, content):
    if isinstance(content, str):
        content = content.encode("utf-8", "surrogatepass")
    path.write_bytes(content)
    return path


def test_golden_documents_load_alike(tmp_path):
    path = tmp_path / "doc.json"
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    for (name, doc), record in zip(documents(), records, strict=True):
        fast, slow = _both_parsers(_write(path, json.dumps(doc)))
        assert fast == slow, name
        if "instance" in record:
            assert instance_to_dict(fast) == record["instance"], name


def _text(**changes):
    """The round-trip document of ``make_instance`` with raw JSON text values."""
    data = {key: json.dumps(value) for key, value in
            instance_to_dict(make_instance()).items()}
    data.update(changes)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in data.items()) + "}"


_ITEMS = instance_to_dict(make_instance())["items"]


def _nested(depth):
    return "[" * depth + "]" * depth


_DEEP = _nested(100_000)
_LIMIT = sys.getrecursionlimit()

LOAD_CASES = {
    "valid": _text(),
    "NaN mass": _text(target='{"g1": NaN, "g2": 0.5}'),
    "Infinity weight": _text(weights="[Infinity, 0.3, 0.2]"),
    "1e400 mass": _text(target='{"g1": 1e400, "g2": 0.5}'),
    "30-digit k": _text(k="1" * 30),
    "30-digit id": _text(items=json.dumps(_ITEMS).replace('"i1"', "1" * 30)),
    "deep document": _DEEP,
    "deep genres": _text(genres=_DEEP),
    "genres below the recursion limit": _text(genres=_nested(_LIMIT - 10)),
    "genres past the recursion limit": _text(genres=_nested(_LIMIT + 10)),
    "deep unknown field": _text(extra=_DEEP),
    "lone surrogate id": _text(items=json.dumps(_ITEMS).replace('"i1"', '"\\ud800"')),
    "lone surrogate raw": _text(items=json.dumps(_ITEMS).replace('"i1"', '"\ud800"')),
    "BOM": "\ufeff" + _text(),
    "invalid UTF-8": _text().encode().replace(b'"i1"', b'"i\xff"'),
    "CRLF": _text().replace(", ", ",\r\n"),
    "malformed CRLF": _text().replace(", ", ",\r\n").replace('"mode"', "mode"),
    "duplicate keys": _text(k="2, \"k\": 3"),
    "duplicate genre keys": _text(target='{"g1": 0.25, "g2": 0.5, "g1": 0.5}'),
    "empty": "",
    "trailing data": _text() + " []",
}
VALID_CASES = {"valid", "lone surrogate id", "CRLF", "duplicate keys",
               "duplicate genre keys"}


@pytest.mark.parametrize("case", LOAD_CASES)
def test_each_parser_gives_the_same_outcome(tmp_path, case):
    fast, slow = _both_parsers(_write(tmp_path / "doc.json", LOAD_CASES[case]))
    assert fast == slow
    if case in VALID_CASES:
        assert isinstance(fast, Instance)
    else:
        assert fast.startswith("error: ")


def test_directory_gives_the_same_error(tmp_path):
    fast, slow = _both_parsers(tmp_path)
    assert fast == slow == f"error: cannot read {tmp_path}: Is a directory"


def test_a_valid_file_is_read_without_json(tmp_path, monkeypatch):
    pytest.importorskip("orjson")
    path = _write(tmp_path / "doc.json", LOAD_CASES["valid"])
    monkeypatch.setattr(caliblist.io.json, "load", None)
    assert load_instance(path) == make_instance()


@given(st.lists(st.floats(min_value=5e-324, max_value=1.0), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_float_masses_load_back_bit_equal(xs):
    total = math.fsum(xs)
    masses = sorted((x / total for x in xs), reverse=True)
    genres = [f"g{n}" for n in range(len(masses))]
    dist = dict(zip(genres, masses))
    doc = {"genres": genres, "target": dist, "items": [{"id": "a", "dist": dist}],
           "weights": masses, "mode": "distributional"}
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = _both_parsers(_write(Path(tmp) / "doc.json", json.dumps(doc)))
    assert fast == slow
    if isinstance(fast, Instance):
        for inst in (fast, slow):
            assert inst.items[0][1].weights == {g: m for g, m in dist.items() if m > 0}
            assert inst.target.weights == {g: m for g, m in dist.items() if m > 0}


# ---------------------------------------------------------------------------
# One document whichever module writes the file
# ---------------------------------------------------------------------------


def _both_writers(inst, tmp_path):
    """Files of ``inst`` written with ``orjson`` (when installed) and with ``json`` alone."""
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    save_instance(inst, fast)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(caliblist.io, "_orjson", lambda: None)
        save_instance(inst, slow)
    return fast, slow


# indent, then an optional key, a value or bracket, and an optional comma
_LINE = re.compile(r'( *)("(?:[^"\\]|\\.)*": )?(.*?)(,?)')


def _token(text):
    """A line's key or value as JSON reads it; a bracket as itself."""
    return text if text in (None, "", "{", "}", "[", "]", "{}", "[]") else (
        type(v := json.loads(text.removesuffix(": "))), v)


def _assert_indented_sorted(path):
    """The file is ``json.dump(indent=2, sort_keys=True)`` plus a newline, line for
    line, up to how each string or number is spelled."""
    text = path.read_bytes().decode("utf-8", "surrogatepass")
    want = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text.endswith("\n")
    lines, want_lines = text.split("\n"), want.split("\n")
    assert len(lines) == len(want_lines)
    for line, want_line in zip(lines, want_lines):
        got, ref = _LINE.fullmatch(line).groups(), _LINE.fullmatch(want_line).groups()
        assert (got[0], got[3]) == (ref[0], ref[3]), (line, want_line)
        assert list(map(_token, got[1:3])) == list(map(_token, ref[1:3])), (
            line, want_line)


def _hexes(inst):
    """Every mass and weight of ``inst`` as ``float.hex``, masses by genre."""
    hexed = lambda d: {g: v.hex() for g, v in d.items()}
    return (hexed(inst.target), [[i, hexed(d)] for i, d in inst.items],
            [v.hex() for v in inst.weights.w])


def _two_genres(*items, target=None, weights=(0.9, 0.1)):
    """An unchecked two-genre instance with items ``(id, g1 mass, g2 mass)``."""
    return Instance(
        genres=("g1", "g2"),
        target=Subdistribution.from_positive(target or {"g1": 0.1, "g2": 0.9}),
        items=tuple((i, Subdistribution.from_positive({"g1": a, "g2": b}))
                    for i, a, b in items),
        weights=PositionWeights(weights))


WRITE_CASES = {
    "small floats": _two_genres(("a", 5e-324, 1.0), ("b", 2.6e-05, 1 - 2.6e-05),
                                ("c", 0.1, 0.9)),
    "non-ASCII ids": _two_genres(("é", 0.5, 0.5), ("雪", 0.25, 0.75),
                                 ("🎬", 0.75, 0.25)),
    "lone surrogate id": _two_genres(("\ud800", 0.5, 0.5), ("b\udfff", 0.1, 0.9)),
    **{f"generated {mode} seed={seed}": inst
       for mode in ("distributional", "discrete") for seed in range(3)
       for inst in generate_instances(GenParams(max_genres=12), mode, seed, 4)[-1:]},
    "generated 1000x20 k=20": generate_instances(
        GenParams(20, 20, 1000, 1000, 20, 20), "distributional", 5, 1)[0],
}


@pytest.mark.parametrize("case", WRITE_CASES)
def test_each_writer_gives_the_same_document(tmp_path, case):
    inst = WRITE_CASES[case]
    fast, slow = _both_writers(inst, tmp_path)
    assert json.loads(fast.read_bytes()) == json.loads(slow.read_bytes())
    assert slow.read_text() == json.dumps(instance_to_dict(inst), indent=2,
                                          sort_keys=True) + "\n"
    for path in (fast, slow):
        _assert_indented_sorted(path)
        for loaded in _both_parsers(path):
            assert loaded == inst
            assert _hexes(loaded) == _hexes(inst)


def test_floats_no_instance_holds_are_written_alike(tmp_path):
    inst = _two_genres(("a", 0.5, 0.5), target={"g1": 1e16, "g2": 1e22})
    fast, slow = _both_writers(inst, tmp_path)
    got = json.loads(fast.read_bytes())
    assert got == json.loads(slow.read_bytes())
    assert [v.hex() for v in got["target"].values()] == [(1e16).hex(), (1e22).hex()]
    for path in (fast, slow):
        _assert_indented_sorted(path)
    assert _both_parsers(fast) == _both_parsers(slow)


def test_a_file_is_written_without_json(tmp_path, monkeypatch):
    pytest.importorskip("orjson")
    monkeypatch.setattr(caliblist.io.json, "dump", None)
    save_instance(make_instance(), tmp_path / "inst.json")
    assert load_instance(tmp_path / "inst.json") == make_instance()
