"""Instance (de)serialization for the CLI file format.

Instances are stored as a single JSON document with explicit mode; unknown
fields are rejected so that typos fail loudly.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from pathlib import Path

from .core import (
    Instance,
    PositionWeights,
    Subdistribution,
    ValidationError,
    validate_instance,
)

__all__ = ["instance_to_dict", "instance_from_dict", "load_instance", "save_instance"]

_FIELDS = {"genres", "target", "items", "weights", "k", "mode"}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "genres": list(inst.genres),
        "target": {g: v for g, v in sorted(inst.target.items())},
        "items": [
            {"id": i, "dist": {g: v for g, v in sorted(d.items())}}
            for i, d in inst.items
        ],
        "weights": list(inst.weights.w),
        "k": inst.k,
        "mode": inst.mode,
    }


_JSON_TYPES = {"a number": (int, float), "a string": str,
               "a list": (list, tuple), "an object": Mapping}


def _typed(v, kind: str, where: str):
    """Return ``v`` if it has the JSON type ``kind``.

    Booleans are not numbers, and neither are integers beyond float range.
    """
    if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[kind]) or (
            kind == "a number" and abs(v) > sys.float_info.max):
        raise ValidationError(f"{where}: expected {kind}, got {v!r}")
    return v


def _numbers(values, where: str):
    """Return ``values`` once each is checked to be a JSON number."""
    if not set(map(type, values)) <= {float}:  # all floats: one pass in C
        for v in values:
            _typed(v, "a number", where)
    return values


def _strings(values, where: str):
    """Return ``values`` once each is checked to be a JSON string."""
    if not set(map(type, values)) <= {str}:  # one pass in C
        for v in values:
            _typed(v, "a string", where)
    return values


def _masses(v, where: str) -> Subdistribution:
    masses = _typed(v, "an object", where)
    _numbers(masses.values(), where)
    return Subdistribution(masses)


def instance_from_dict(data: dict) -> Instance:
    data = _typed(data, "an object", "instance")
    unknown = set(data) - _FIELDS
    if unknown:
        raise ValidationError(f"unknown instance fields: {sorted(unknown)}")
    missing = _FIELDS - set(data) - {"k"}
    if missing:
        raise ValidationError(f"missing instance fields: {sorted(missing)}")
    weights = PositionWeights(tuple(
        _numbers(_typed(data["weights"], "a list", "weights"), "weights")))
    if "k" in data and _typed(data["k"], "a number", "k") != weights.k:
        raise ValidationError(
            f"k={data['k']} does not match {weights.k} weights")
    items = []
    for entry in _typed(data["items"], "a list", "items"):
        entry = _typed(entry, "an object", "item")
        if entry.keys() != {"id", "dist"}:
            extra = set(entry) - {"id", "dist"}
            raise ValidationError(f"unknown item fields: {sorted(extra)}" if extra
                                  else f"item needs an id and a dist: {entry!r}")
        items.append((entry["id"], _masses(entry["dist"], "dist")))
    _strings([i for i, _ in items], "item id")
    inst = Instance(
        genres=tuple(_strings(_typed(data["genres"], "a list", "genres"), "genre id")),
        target=_masses(data["target"], "target"),
        items=tuple(items),
        weights=weights,
        mode=_typed(data["mode"], "a string", "mode"),
    )
    return validate_instance(inst)


def load_instance(path: str | Path) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    # not UTF-8, not JSON, or nested past the decoder's recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot parse {path}: {exc}") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
