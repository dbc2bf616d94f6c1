"""Shared test plumbing.

Tier-1 tests run by default.  Tests marked ``experiments`` execute every
registered scenario through the parallel runner at smoke scale — a
minutes-long sweep kept out of the default run; opt in with
``pytest --run-experiments`` (or ``make experiments``).

The per-PNA DVE of ``tests/core/per_pna_dve.py`` is the differential
oracle of the cohort task engine.  Tests select it by patching the
names of its ``ORACLE`` into :mod:`repro.core.pna`: the ``dve`` fixture
pins either path inside a test, and ``pytest --per-pna-oracle`` runs
the whole session on the oracle.  The runner's worker processes fork
from the patched interpreter (the default start method on Linux up to
Python 3.13) and inherit the choice.
"""

import contextlib
import types

import pytest

import repro.core.pna as pna_module
from tests.core.per_pna_dve import ORACLE

#: the program's values of the names the oracle replaces
COHORT = {name: getattr(pna_module, name) for name in ORACLE}


def pytest_addoption(parser):
    parser.addoption(
        "--run-experiments", action="store_true", default=False,
        help="run full smoke sweeps of every scenario "
             "(experiments marker)")
    parser.addoption(
        "--per-pna-oracle", action="store_true", default=False,
        help="run every PNA on the per-PNA DVE reference instead of "
             "the cohort task engine")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-experiments"):
        return
    skip = pytest.mark.skip(
        reason="scenario sweep: pass --run-experiments to run")
    for item in items:
        # get_closest_marker, not `in item.keywords`: keywords also
        # contain package names, and tests/experiments/ is a package.
        if item.get_closest_marker("experiments") is not None:
            item.add_marker(skip)


@contextlib.contextmanager
def _task_path(names):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in names.items():
            mp.setattr(pna_module, name, value)
        yield


@pytest.fixture(autouse=True, scope="session")
def _per_pna_oracle_session(request):
    if not request.config.getoption("--per-pna-oracle"):
        yield
        return
    with _task_path(ORACLE):
        yield


@pytest.fixture
def dve():
    """Pin a PNA task path for PNAs started inside a ``with`` block:
    ``with dve.per_pna():`` selects the per-PNA DVE oracle, ``with
    dve.cohort():`` the cohort engine (also under --per-pna-oracle)."""
    return types.SimpleNamespace(per_pna=lambda: _task_path(ORACLE),
                                 cohort=lambda: _task_path(COHORT))
