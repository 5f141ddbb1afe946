"""Law-invariant coherent risk measures and elicitability diagnostics.

A lazy package (PEP 562): a name's first use imports the modules in order until
one lists it in its ``__all__``, and keeps it here, so later uses are lookups.
"""

import importlib

__version__ = "0.1.0"
_MODULES = ("distributions", "spectral", "risk", "elicit", "scoring")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in map(__getattr__, _MODULES) for n in m.__all__] + ["__version__"]
    elif mod := next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None):
        value = getattr(mod, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, value)


def __dir__():
    return sorted({*__getattr__("__all__"), *_MODULES, *globals()})
