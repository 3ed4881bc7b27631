"""The package's public names: each export resolves and is listed once,
and the names cut from the API stay gone."""

import dataclasses
import importlib
import importlib.util

import pytest

import cirelax

DELETED = (
    ("cirelax", "AtomMeasure"),
    ("cirelax", "atom_measure"),
    ("cirelax", "atoms_of"),
    ("cirelax", "atoms_of_set"),
    ("cirelax", "classify"),
    ("cirelax", "measure_from_table"),
    ("cirelax", "polymatroid_from_atoms"),
    ("cirelax", "read_ci_file"),
    ("cirelax", "reduce_antecedents"),
    ("cirelax", "single_atom_polymatroid"),
    ("cirelax", "VarSet"),
    ("cirelax.atoms", "polymatroid_from_atoms"),
    ("cirelax.atoms", "reduce_antecedents"),
    ("cirelax.core", "classify"),
    ("cirelax.core", "read_ci_file"),
    ("cirelax.core", "VarSet"),
    ("cirelax.distributions", "atom_measure"),
)


def test_every_export_resolves():
    missing = [name for name in cirelax.__all__ if not hasattr(cirelax, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(cirelax.__all__)) == len(cirelax.__all__)


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_name_is_not_importable(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    if importlib.util.find_spec(module) is not None:
        assert not hasattr(importlib.import_module(module), name)


def test_atoms_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cirelax.atoms")


def test_deleted_members_are_gone():
    from helpers import AtomMeasure

    assert not hasattr(cirelax.Universe(("a",)), "full")
    assert not hasattr(AtomMeasure(1, (0, 1)), "exact")
    coin = cirelax.JointDistribution((2,), (1, 0))
    assert not hasattr(coin, "outcome") and not hasattr(coin, "strides")
    fields = {f.name for f in dataclasses.fields(cirelax.ValidationReport)}
    assert "tolerance" not in fields
