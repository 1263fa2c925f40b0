"""The package surface: every exported name, served from the module that defines it."""

import sys

import pytest

import glndep

EXPORTED = [name for name in glndep.__all__ if name != "errors"]


@pytest.mark.parametrize("name", EXPORTED)
def test_an_exported_name_is_its_home_modules(name):
    value = getattr(glndep, name)
    assert value.__module__.startswith("glndep.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from glndep import *", namespace)
    assert set(glndep.__all__) <= set(namespace)
    assert set(glndep.__all__) <= set(dir(glndep))
    assert namespace["errors"] is glndep.errors


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve'"):
        glndep.solve


@pytest.mark.parametrize("name", EXPORTED)
def test_a_name_replaced_at_home_is_what_the_package_returns(monkeypatch, name):
    # The benchmark's tracer wraps functions on their home modules only.
    home = sys.modules[getattr(glndep, name).__module__]
    stand_in = object()
    monkeypatch.setattr(home, name, stand_in)
    assert getattr(glndep, name) is stand_in
