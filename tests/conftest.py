"""Shared test plumbing.

Tier-1 tests run by default.  Tests marked ``experiments`` execute every
registered scenario through the parallel runner at smoke scale — a
minutes-long sweep kept out of the default run; opt in with
``pytest --run-experiments`` (or ``make experiments``).

The per-PNA :class:`~repro.core.dve.DVE` is the differential oracle of
the cohort task engine.  A PNA falls back to it when
``repro.core.pna.engine_for`` returns ``None``, so tests select it by
patching that name: the ``dve`` fixture pins either path inside a test,
and ``pytest --per-pna-oracle`` runs the whole session on the oracle.
The runner's worker processes fork from the patched interpreter (the
default start method on Linux up to Python 3.13) and inherit the
choice.
"""

import contextlib
import types

import pytest

import repro.core.pna as pna_module
from repro.core.taskloop import engine_for as cohort_engine_for


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


def _no_cohort_engine(router, backend_id, instance_id):
    return None


@contextlib.contextmanager
def _task_path(engine_for):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pna_module, "engine_for", engine_for)
        yield


@pytest.fixture(autouse=True, scope="session")
def _per_pna_oracle_session(request):
    if not request.config.getoption("--per-pna-oracle"):
        yield
        return
    with _task_path(_no_cohort_engine):
        yield


@pytest.fixture
def dve():
    """Pin a PNA task path for PNAs started inside a ``with`` block:
    ``with dve.per_pna():`` selects the per-PNA DVE oracle, ``with
    dve.cohort():`` the cohort engine (also under --per-pna-oracle)."""
    return types.SimpleNamespace(
        per_pna=lambda: _task_path(_no_cohort_engine),
        cohort=lambda: _task_path(cohort_engine_for))
