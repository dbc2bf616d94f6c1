"""The committed ``artifacts/`` stay reproducible, byte for byte.

``artifacts/{fig6,fig7,sabotage_sweep,federation_sweep}/`` hold the
records and rendering of ``python -m repro <id> --seed 0 --out
artifacts``.  This
regenerates each through the registry runner, serially and on two
workers, and compares ``records.json`` and ``rendered.txt`` with the
committed bytes.  The per-jobs ``run-jobs<N>.json`` metadata carries
host wall times and is not compared.
"""

import pathlib

import pytest

from repro.runner import ArtifactStore, Runner

ARTIFACTS = pathlib.Path(__file__).resolve().parents[2] / "artifacts"


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("name", ("fig6", "fig7", "sabotage_sweep",
                                  "federation_sweep"))
def test_committed_artifacts_regenerate_byte_for_byte(tmp_path, name, jobs):
    Runner(seed=0, jobs=jobs, store=ArtifactStore(tmp_path)).run(name)
    for filename in ("records.json", "rendered.txt"):
        fresh = (tmp_path / name / filename).read_bytes()
        assert fresh == (ARTIFACTS / name / filename).read_bytes(), filename
