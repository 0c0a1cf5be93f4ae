"""The one strict registry, under CC_POLICIES."""

import pytest

from repro.util.registry import Registry, UnknownNameError


class UnknownThing(UnknownNameError):
    pass


class DuplicateThing(ValueError):
    pass


def make(**kwargs):
    registry = Registry("thing", UnknownThing, DuplicateThing, **kwargs)
    registry.add("alpha", 1)
    registry.add("beta", 2)
    return registry


def test_add_get_names_all_contains():
    registry = make()
    assert registry.get("alpha") == 1
    assert registry.names() == ["alpha", "beta"]
    assert registry.all() == [1, 2]
    assert "beta" in registry and "gamma" not in registry


def test_duplicate_blames_the_existing_entrys_owner():
    registry = make(owner=lambda entry: f"owner-of-{entry}")
    with pytest.raises(DuplicateThing, match=r"thing 'alpha' is already registered \(by 'owner-of-1'\)"):
        registry.add("alpha", 3)
    registry.remove("alpha")
    registry.remove("alpha")  # unknown names are a no-op
    assert registry.add("alpha", 3) == 3


def test_unknown_suggests_lists_and_is_a_plain_keyerror_message():
    with pytest.raises(UnknownThing) as err:
        make().get("alpah")
    assert str(err.value) == (
        "unknown thing 'alpah'; did you mean 'alpha'? (registered: alpha, beta)"
    )
    assert isinstance(err.value, KeyError)

