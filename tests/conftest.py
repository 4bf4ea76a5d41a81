"""Shared fixtures: the default X-band configuration and its seed-0 code."""

import numpy as np
import pytest

from mafh import (AntennaLayout, FeasiblePolytope, ObjectiveEvaluator,
                  RadarConfig, build_grid, generate_fh_code)


@pytest.fixture(scope="session")
def cfg():
    return RadarConfig()


@pytest.fixture(scope="session")
def code8(cfg):
    return generate_fh_code(cfg, 8, seed=0)


@pytest.fixture(scope="session")
def equid8():
    # half-wavelength spacings carried inside a 7-wavelength aperture budget
    return AntennaLayout(d=np.full(7, 0.5), L=7.0)


@pytest.fixture(scope="session")
def poly8():
    return FeasiblePolytope.spacing_bounds(8, 7.0)


@pytest.fixture(scope="session")
def ev8(cfg, code8, equid8):
    # full-grid evaluator of every 8-element, 7-wavelength-budget layout:
    # the grid depends on the layout through M_t and L only
    return ObjectiveEvaluator(build_grid(cfg, equid8), code8, cfg)


@pytest.fixture
def passes(monkeypatch):
    """A one-item list: the evaluator value passes (``_value`` calls) of this test."""
    count = [0]
    value = ObjectiveEvaluator._value

    def counting(self, *args):
        count[0] += 1
        return value(self, *args)

    monkeypatch.setattr(ObjectiveEvaluator, "_value", counting)
    return count
