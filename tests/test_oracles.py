"""Oracles for acceptance criteria whose bands do not fit their own parameter sets.

Each test recomputes a criterion's target from an independent route and
pins the inconsistency, so the red criterion is documented by a green
check: the band cannot be met by any correct implementation of the
printed parameter set. The parameter sets come from the acceptance
battery itself.
"""

import math

import pytest

from eitgate import groupvel, perturbative
from test_acceptance import PULSED, SHORTTIME, TRANSIENT


def test_c4_dark_eigenvalue_pi_time_lies_three_decades_below_its_band():
    # The cross-phase rate of the exact dark eigenvalues puts the first
    # |CPS| = π at 0.0308, against criterion 4's band [35, 65].
    lam_p, lam_t, lam_pt = perturbative.phase_rates(SHORTTIME)
    t_pi = math.pi / abs(lam_pt - lam_p - lam_t)
    assert t_pi == pytest.approx(0.0308, abs=5e-5)
    assert 1e3 * t_pi < 35.0


# Criterion 7's geometry bands: density [cm^-3], diameter [m], length [m].
_PULSED_BANDS = ((7.0e8, 1.3e9), (6.37e-4, 1.183e-3), (2.674e-2, 4.966e-2))
_TRANSIENT_BANDS = ((3.5e10, 6.5e10), (2.31e-4, 4.29e-4), (2.17e-2, 4.03e-2))


def _atom_number_range(bands):
    """(min, max) of N = ρ·π(d/2)²·L over the band corners; N grows in each."""
    (rho_lo, rho_hi), (d_lo, d_hi), (l_lo, l_hi) = bands
    return tuple(1e6 * rho * math.pi * (d / 2.0) ** 2 * l
                 for rho, d, l in ((rho_lo, d_lo, l_lo), (rho_hi, d_hi, l_hi)))


def test_c7_pulsed_geometry_bands_cannot_hold_its_atom_number():
    high = _atom_number_range(_PULSED_BANDS)[1]
    assert high == pytest.approx(7.1e7, rel=2e-3)
    assert high < PULSED.N_a
    low, high = _atom_number_range(_TRANSIENT_BANDS)
    assert low == pytest.approx(3.2e7, rel=1e-2) and high == pytest.approx(3.8e8, rel=1e-2)
    assert low < TRANSIENT.N_a < high


@pytest.mark.parametrize("params, t_int", [(PULSED, 1.0), (TRANSIENT, 0.4)])
def test_c7_cell_geometry_holds_its_atom_number(params, t_int):
    g = groupvel.cell_geometry(params, groupvel.group_velocity_steady(params), t_int)
    assert g.density * math.pi * (g.diameter / 2.0) ** 2 * g.length == pytest.approx(
        params.N_a, rel=1e-12
    )
