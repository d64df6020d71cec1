"""Coincidence fringes, fringe fitting, and phase recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitgate import interferometer as itf

PHI = np.linspace(0.0, 4.0 * math.pi, 256, endpoint=False)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_fock_coincidences_frozen_points():
    p1, p2 = itf.fock_coincidences(0.0, 0.0)
    assert p1 == pytest.approx(0.25, abs=1e-15)
    assert p2 == pytest.approx(0.25, abs=1e-15)
    p1, p2 = itf.fock_coincidences(0.0, math.pi)
    assert p1 == pytest.approx(0.0, abs=1e-15)
    assert p2 == pytest.approx(0.25, abs=1e-15)
    # common single-photon shift phi10 - 2 phi00 + phi_plus0 = 0.3
    p1, p2 = itf.fock_coincidences(0.7, 0.5, phi10=0.3, phi00=0.1, phi_plus0=0.2)
    assert p2 == pytest.approx(0.19253778823351747, abs=1e-12)
    assert p1 == pytest.approx(0.13384215020846286, abs=1e-12)


def test_fock_coincidences_range_and_mean():
    p1, p2 = itf.fock_coincidences(PHI, 1.1, phi10=0.4, phi00=-0.2, phi_plus0=0.9)
    for p in (p1, p2):
        assert np.all(p >= -1e-15)
        assert np.all(p <= 0.25 + 1e-15)
        assert np.mean(p) == pytest.approx(0.125, abs=1e-12)


def test_ideal_phase_table():
    table = itf.ideal_eit_phases(0.7, -0.3, 2.9)
    assert table.phi_00 == 0.0
    assert table.phi_pp == 0.0
    assert table.phi_m0 == 0.7
    assert table.phi_mp == 0.7
    assert table.phi_0m == -0.3
    assert table.phi_pm == -0.3
    assert table.phi_mm == pytest.approx(0.7 - 0.3 + 2.9)


@settings(max_examples=50, deadline=None)
@given(finite, finite, finite)
def test_diagonal_alternating_sum_recovers_cps(phi_p, phi_t, cps):
    table = itf.ideal_eit_phases(phi_p, phi_t, cps)
    bars = itf.diagonal_phases(table)
    alt = bars["pp"] - bars["pm"] - bars["mp"] + bars["mm"]
    assert alt == pytest.approx(cps, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite, min_size=9, max_size=9))
def test_diagonal_singles_cancel_for_any_table(values):
    table = itf.PolarizationPhases(*values)
    bars = itf.diagonal_phases(table)
    alt = bars["pp"] - bars["pm"] - bars["mp"] + bars["mm"]
    direct = table.phi_pp - table.phi_pm - table.phi_mp + table.phi_mm
    assert alt == pytest.approx(direct, abs=1e-12)


def test_fit_fringe_recovers_parameters():
    y = 0.3 + 0.07 * np.cos(PHI + 1.234)
    fit = itf.fit_fringe(PHI, y)
    assert fit.offset == pytest.approx(0.3, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.07, abs=1e-12)
    assert fit.phase == pytest.approx(1.234, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_fringe_validation():
    with pytest.raises(ValueError, match="eight"):
        itf.fit_fringe(np.linspace(0.0, 7.0, 7), np.zeros(7))
    short = np.linspace(0.0, 5.0, 16)
    with pytest.raises(ValueError, match="full period"):
        itf.fit_fringe(short, np.cos(short))
    with pytest.raises(ValueError, match="matching"):
        itf.fit_fringe(PHI, np.zeros(10))
    with pytest.raises(ValueError, match="matching"):
        itf.fit_fringe(PHI.reshape(2, -1), np.zeros((2, 128)))


def test_fit_fringe_rejects_distorted_pattern():
    y = 0.125 * (1.0 + np.cos(PHI + 0.4)) + 0.01 * np.cos(2.0 * PHI)
    with pytest.raises(itf.MalformedFringeError):
        itf.fit_fringe(PHI, y)
    assert issubclass(itf.MalformedFringeError, ValueError)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    finite,
    finite,
    finite,
)
def test_fock_fringe_round_trip(cps, phi10, phi00, phi_plus0):
    p1, p2 = itf.fock_coincidences(PHI, cps, phi10, phi00, phi_plus0)
    got = itf.gate_phase_from_fits(itf.fit_fringe(PHI, p1), itf.fit_fringe(PHI, p2))
    assert math.remainder(got - cps, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_gate_phase_wraps_to_principal_branch():
    p1, p2 = itf.fock_coincidences(PHI, 3.5, phi10=1.3)
    got = itf.gate_phase_from_fits(itf.fit_fringe(PHI, p1), itf.fit_fringe(PHI, p2))
    assert got == pytest.approx(3.5 - 2.0 * math.pi, abs=1e-9)


def test_chsh_parameter():
    assert itf.chsh_parameter(0.0) == pytest.approx(2.0)
    assert itf.chsh_parameter(math.pi) == pytest.approx(2.0)
    assert itf.chsh_parameter(math.pi / 2.0) == pytest.approx(2.0 * math.sqrt(2.0))
    assert itf.chsh_parameter(0.3) == pytest.approx(
        2.0 * math.sqrt(1.0 + math.sin(0.3) ** 2), rel=1e-15
    )
    # quantum bound is never exceeded
    grid = np.linspace(-math.pi, math.pi, 101)
    vals = np.array([itf.chsh_parameter(x) for x in grid])
    assert np.all(vals <= 2.0 * math.sqrt(2.0) + 1e-12)
    assert np.all(vals >= 2.0 - 1e-12)
