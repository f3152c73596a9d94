"""Equilibrium pricing and inventory dynamics for high-frequency insider games.

A dealer prices order flow linearly while k inventory-averse traders share
a private signal stream. The package solves the resulting stationary
equilibrium (with or without a quadratic transaction tax c dL^2), expands it
for small period lengths, evaluates each trader's quadratic value
function, and verifies everything by direct simulation.

The public names are the union of the ``__all__`` of ``model``, ``solver``,
``asymptotics``, ``value``, ``simulator`` and ``verify``; this module lists
none of them. A name is found on first use (PEP 562) by searching those
submodules in that order. The analytic layers come first, so
``import hftequil`` and their names do not import numpy. It loads with the
first simulation, verification or DPE-grid function used, and with
``__all__``, which imports every submodule.
"""

__version__ = "0.1.0"

_PUBLIC = ("model", "solver", "asymptotics", "value", "simulator", "verify")
_SUBMODULES = frozenset((*_PUBLIC, "cli"))


def _submodule(name: str):
    from importlib import import_module

    return import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        value = [public for module in _PUBLIC for public in _submodule(module).__all__]
    elif name.startswith("_"):
        # No public name starts with an underscore, so probes such as
        # ``__wrapped__`` are answered without loading any submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in map(_submodule, _PUBLIC):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
