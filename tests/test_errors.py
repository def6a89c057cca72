"""The exception hierarchy: everything is catchable as ReproError."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    CryptoError,
    NetworkError,
    OptimizationError,
    ProtocolError,
    ReproError,
    SimulationError,
    TreeError,
    WorkloadError,
)


def test_all_errors_derive_from_repro_error():
    for error_cls in (ConfigurationError, TreeError, SimulationError,
                      NetworkError, CryptoError, ProtocolError,
                      OptimizationError, WorkloadError):
        assert issubclass(error_cls, ReproError)


def test_specific_parentage():
    assert issubclass(TreeError, ConfigurationError)
    assert issubclass(NetworkError, SimulationError)
    assert issubclass(WorkloadError, ConfigurationError)


def test_library_raises_are_catchable_as_repro_error():
    from repro.core.tree import OverlayTree

    with pytest.raises(ReproError):
        OverlayTree({}, targets=[])
    from repro.optimizer.model import OptimizationInput

    with pytest.raises(ReproError):
        OptimizationInput(targets=(), auxiliaries=(), demand={}).validate()
    from repro.workload.spec import local_uniform

    with pytest.raises(ReproError):
        local_uniform([])
