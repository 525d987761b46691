"""Unit tests for the JSON instance format."""

import pytest

from caliblist.core import ValidationError
from caliblist.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)

from test_core import make_instance


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
