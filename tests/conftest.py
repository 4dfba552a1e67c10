import importlib

import pytest

import prointerp.hill as hill_module


@pytest.fixture
def full_size_hill_calls(monkeypatch):
    """The list of calls, by name, to the full-size Hill routes `lab_map`,
    `choi` and `minimal_hill` through any module the solver or the CLI could
    reach them by; the routes are replaced for the test and return None."""
    calls = []
    for module in ("lyapunov", "hill", "solver", "cli"):
        mod = importlib.import_module(f"prointerp.{module}")
        for name in ("lab_map", "choi", "minimal_hill"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, lambda *args, _name=name, **kw: calls.append(_name))
    return calls


@pytest.fixture
def perturbed_apply_hill(monkeypatch):
    """A Hill evaluation off by 1e-3 in every entry, so the representation
    check of the Hill stage raises RankMismatchError."""
    real = hill_module.apply_hill
    monkeypatch.setattr(hill_module, "apply_hill", lambda rep, v: real(rep, v) + 1e-3)
