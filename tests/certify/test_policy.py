"""CertifyPolicy: validation and replication selection."""

import pytest

from repro.certify import CertifyPolicy, MODES
from repro.errors import ConfigurationError


def test_modes_cover_the_three_policies():
    assert MODES == ("audit", "static", "adaptive")


def test_defaults_are_static_r3():
    pol = CertifyPolicy()
    assert pol.mode == "static"
    assert pol.r == 3
    assert pol.replication_for(0.0) == 3


@pytest.mark.parametrize("kwargs", [
    {"mode": "bogus"},
    {"r": 0},
    {"r_min": 0},
    {"r_max": 0},
    {"r_min": 3, "r_max": 2},
    {"probe_rate": -0.1},
    {"probe_rate": 1.5},
    {"probe_ref_seconds": 0.0},
    {"trust_threshold": 1.5},
    {"initial_credibility": -0.1},
    {"penalty": 1.0},
    {"quarantine_after": -1},
])
def test_bad_parameters_raise(kwargs):
    with pytest.raises(ConfigurationError):
        CertifyPolicy(**kwargs)


def test_audit_mode_never_replicates():
    pol = CertifyPolicy(mode="audit")
    assert pol.replication_for(0.0) == 1
    assert pol.replication_for(1.0) == 1


def test_static_mode_replicates_regardless_of_credibility():
    pol = CertifyPolicy(mode="static", r=4)
    assert pol.replication_for(0.0) == 4
    assert pol.replication_for(1.0) == 4


def test_adaptive_mode_decays_on_trust():
    pol = CertifyPolicy(mode="adaptive", r_min=1, r_max=3,
                        trust_threshold=0.9)
    assert pol.replication_for(0.5) == 3
    assert pol.replication_for(0.89) == 3
    assert pol.replication_for(0.9) == 1
    assert pol.replication_for(1.0) == 1


def test_quorum_is_strict_majority():
    assert CertifyPolicy.quorum(1) == 1
    assert CertifyPolicy.quorum(2) == 2
    assert CertifyPolicy.quorum(3) == 2
    assert CertifyPolicy.quorum(4) == 3
    assert CertifyPolicy.quorum(5) == 3
