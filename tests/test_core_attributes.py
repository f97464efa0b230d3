"""Unit tests for path attributes (immutable invariants)."""

import pytest

from repro.core.attributes import Attributes


def test_basic_access():
    attrs = Attributes(local_port=80, peer_ip="10.0.0.1")
    assert attrs["local_port"] == 80
    assert attrs.get("peer_ip") == "10.0.0.1"
    assert attrs.get("missing") is None
    assert attrs.get("missing", 7) == 7
    assert "local_port" in attrs
    assert len(attrs) == 2
    assert set(attrs) == {"local_port", "peer_ip"}


def test_require_raises_with_context():
    attrs = Attributes(local_port=80)
    assert attrs.require("local_port") == 80
    with pytest.raises(KeyError, match="peer_ip"):
        attrs.require("peer_ip")


def test_immutable():
    attrs = Attributes(x=1)
    with pytest.raises(AttributeError):
        attrs.x = 2
    with pytest.raises(AttributeError):
        attrs.new_field = 3


def test_mapping_constructor_and_kwargs_merge():
    attrs = Attributes({"a": 1, "b": 2}, b=3)
    assert attrs["b"] == 3  # kwargs win
    assert attrs.as_dict() == {"a": 1, "b": 3}
