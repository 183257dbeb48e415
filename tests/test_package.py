"""The package's public names: loaded on first use, each the object its
home module defines."""

import importlib

import pytest

import lidarmaps


def test_every_public_name_is_its_home_modules_object():
    assert len(lidarmaps.__all__) == len(set(lidarmaps.__all__)) == 67
    for name in lidarmaps.__all__:
        if name == "using_numba":
            continue
        home = importlib.import_module(f"lidarmaps.{lidarmaps._HOME[name]}")
        value = getattr(lidarmaps, name)
        assert value is getattr(home, name), name
        # The home is where a class or function is defined, not a module
        # that imports it.
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from lidarmaps import *", namespace)
    assert set(lidarmaps.__all__) <= set(namespace)
    for name in lidarmaps.__all__:
        assert namespace[name] is getattr(lidarmaps, name), name


def test_dir_lists_every_public_name():
    assert set(lidarmaps.__all__) <= set(dir(lidarmaps))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lidarmaps.no_such_name


def test_version_and_kernel_path_still_read():
    assert lidarmaps.__version__ == "0.1.0"
    assert lidarmaps.using_numba() is False


def test_submodules_still_import_by_name():
    from lidarmaps import terrain

    assert terrain.derive_terrain is lidarmaps.derive_terrain
