"""Public-API surface checks: exports exist and are importable."""

import importlib

import pytest


PUBLIC_MODULES = [
    "repro",
    "repro.hw",
    "repro.kernel",
    "repro.kernel.net",
    "repro.dprof",
    "repro.dprof.views",
    "repro.baselines",
    "repro.workloads",
    "repro.fixes",
    "repro.util",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_top_level_version():
    import repro

    assert repro.__version__


def test_errors_hierarchy():
    from repro import errors

    for name in (
        "ConfigError",
        "SimulationError",
        "AllocationError",
        "ResolveError",
        "ProfilingError",
    ):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)


def test_public_entry_points_have_docstrings():
    from repro.api import DProf
    from repro.hw.machine import Machine
    from repro.kernel import Kernel

    for cls in (DProf, Machine, Kernel):
        assert cls.__doc__
        for attr_name in dir(cls):
            if attr_name.startswith("_"):
                continue
            attr = getattr(cls, attr_name)
            if callable(attr):
                assert attr.__doc__, f"{cls.__name__}.{attr_name} lacks a docstring"
