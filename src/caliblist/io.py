"""Instance (de)serialization for the CLI file format.

Instances are stored as a single JSON document with explicit mode; unknown
fields are rejected so that typos fail loudly. Files are parsed and written
with ``orjson`` when it is installed, with the same outcome as ``json``.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from .core import (
    DenseCore,
    Instance,
    PositionWeights,
    Subdistribution,
    ValidationError,
    validate_instance,
)

__all__ = ["instance_to_dict", "instance_from_dict", "load_instance", "save_instance"]

_FIELDS = {"genres", "target", "items", "weights", "k", "mode"}
_ITEM_FIELDS = frozenset({"id", "dist"})


def _document(inst: Instance, dist) -> dict:
    """The file's document of ``inst``, each of its dists given as ``dist(d)``."""
    return {"genres": list(inst.genres), "target": dist(inst.target),
            "items": [{"id": i, "dist": dist(d)} for i, d in inst.items],
            "weights": list(inst.weights.w), "k": inst.k, "mode": inst.mode}


def instance_to_dict(inst: Instance) -> dict:
    return _document(inst, lambda d: dict(sorted(d.items())))


_JSON_TYPES = {"a number": (float, int), "a string": (str,),
               "a list": (list, tuple), "an object": (dict, Mapping)}


def _typed(v, kind: str, where: str):
    """Return ``v`` if it has the JSON type ``kind``.

    Booleans are not numbers, and neither are integers beyond float range.
    """
    if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[kind]) or (
            kind == "a number" and abs(v) > sys.float_info.max):
        raise ValidationError(f"{where}: expected {kind}, got {v!r}")
    return v


def _all(values, kind: str, where: str) -> bool:
    """Check that each of ``values`` has the JSON type ``kind``; True if all have
    its usual (first) type, which one pass in C shows without a per-value check."""
    if set(map(type, values)) <= {_JSON_TYPES[kind][0]}:
        return True
    for v in values:
        _typed(v, kind, where)
    return False


def instance_from_dict(data: dict) -> Instance:
    """The checked instance of a JSON document; one type pass per kind of value.

    When every mass is a positive float and the items all write the same keys,
    or each writes its declared keys in sorted genre order (as ``save_instance``
    writes them), the masses go straight into the rows of the dense core's
    ``Q`` in one slice assignment or one scatter, and the instance keeps only
    ``Q`` and its keys' column order (:meth:`Instance.of_rows`). Any other
    document (an undeclared key, keys in no shared order, an int, zero or
    negative mass) wraps each dist as a ``Subdistribution``, which converts
    ints, drops zeros and rejects negative masses, and is checked over its
    dicts; its core is scattered from them when first used. Every route gives
    the same checks, messages and outcome.
    """
    data = _typed(data, "an object", "instance")
    unknown = set(data) - _FIELDS
    if unknown:
        raise ValidationError(f"unknown instance fields: {sorted(unknown)}")
    missing = _FIELDS - set(data) - {"k"}
    if missing:
        raise ValidationError(f"missing instance fields: {sorted(missing)}")
    w = _typed(data["weights"], "a list", "weights")
    _all(w, "a number", "weights")
    weights = PositionWeights(tuple(w))
    if "k" in data and _typed(data["k"], "a number", "k") != weights.k:
        raise ValidationError(
            f"k={data['k']} does not match {weights.k} weights")
    entries = _typed(data["items"], "a list", "items")
    if not (_all(entries, "an object", "item")
            and set(map(frozenset, entries)) <= {_ITEM_FIELDS}):
        for entry in entries:
            if entry.keys() != _ITEM_FIELDS:
                extra = set(entry) - _ITEM_FIELDS
                raise ValidationError(f"unknown item fields: {sorted(extra)}" if extra
                                      else f"item needs an id and a dist: {entry!r}")
    dists = [e["dist"] for e in entries]
    _all(dists, "an object", "dist")
    masses = list(chain.from_iterable(d.values() for d in dists))
    # rebound to an array: the list of every mass is not kept through the checks
    masses = (np.fromiter(masses, float, len(masses))
              if _all(masses, "a number", "dist") else None)
    clean = masses is not None and bool((masses > 0).all())
    subs = None if clean else list(map(Subdistribution, dists))
    ids = [e["id"] for e in entries]
    _all(ids, "a string", "item id")
    genres = tuple(_typed(data["genres"], "a list", "genres"))
    _all(genres, "a string", "genre id")
    target = _typed(data["target"], "an object", "target")
    _all(target.values(), "a number", "target")
    target = Subdistribution(target)
    mode = _typed(data["mode"], "a string", "mode")
    if clean:
        inst = Instance.of_rows(genres, target, ids, dists, masses, weights, mode)
        if inst is not None:
            validate_instance(inst)
            vars(inst)["dense"] = DenseCore.of(inst)  # fills the cached property
            return inst
        subs = [Subdistribution.from_positive(dict(d)) for d in dists]
    return validate_instance(Instance(genres, target, tuple(zip(ids, subs)), weights, mode))


@cache
def _orjson():
    """The ``orjson`` module, or None when it is not installed.

    It is imported at the first load or save: it brings in ``uuid`` and
    ``zoneinfo`` (≈8 ms), which a process that touches no file does not need.
    """
    try:
        import orjson
    except ImportError:  # optional: ``json`` alone gives the same outcomes
        return None
    return orjson


def load_instance(path: str | Path) -> Instance:
    """The checked instance in the JSON file ``path``.

    ``orjson`` and ``json`` differ only where no valid instance can be:
    ``orjson`` rejects NaN, infinities, lone surrogates and a BOM, reads
    integers past 64 bits as floats, and accepts nesting past the recursion
    limit. So any failure of the fast path reruns ``json``, and its instance
    or error is the outcome.
    """
    fast = _orjson()
    if fast is not None:
        try:
            return instance_from_dict(fast.loads(Path(path).read_bytes()))
        except (OSError, fast.JSONDecodeError, ValidationError, RecursionError):
            pass
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
    """Write ``inst`` as 2-space indented JSON with sorted keys and a final newline.

    ``orjson`` writes the same layout, though a small float may take another
    shortest form (``2.6e-05`` against ``0.000026``) that loads to the same
    bits. It refuses a string with a lone surrogate, which ``json`` writes.
    """
    data = _document(inst, lambda d: d.weights)  # both writers sort the keys
    fast = _orjson()
    if fast is not None:
        try:
            text = fast.dumps(data, option=fast.OPT_INDENT_2 | fast.OPT_SORT_KEYS
                              | fast.OPT_APPEND_NEWLINE)
        except fast.JSONEncodeError:
            pass
        else:
            Path(path).write_bytes(text)
            return
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
