"""The package's public names: each submodule's __all__ and nothing else."""
import types

import hftequil
from hftequil import asymptotics, cli, model, simulator, solver, value, verify

SUBMODULES = (model, solver, asymptotics, value, simulator, verify)


def test_package_exports_exactly_the_submodule_names():
    exported = {
        name
        for name, obj in vars(hftequil).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    declared = set().union(*(m.__all__ for m in SUBMODULES))
    assert exported == declared
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(hftequil, name) is getattr(m, name), name


def test_cli_names_exist():
    for name in cli.__all__:
        assert callable(getattr(cli, name)), name
