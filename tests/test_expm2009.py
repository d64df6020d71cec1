"""groupvel's step exponential against scipy.linalg.expm, bit for bit."""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg._matfuncs_expm import pick_pade_structure

from eitgate import _expm2009, cli, dynamics, groupvel

from _support import fast_gate_config
from test_acceptance import TRANSIENT


def _dissipative(rng, n, norm):
    # An anti-Hermitian matrix less a positive semidefinite one, scaled to
    # the 1-norm norm: its exponential is a contraction, finite at any norm.
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = (X - X.conj().T) / 2 - 0.1 * (X @ X.conj().T) / n
    return A * (norm / np.abs(A).sum(axis=0).max())


def _sweep():
    rng = np.random.default_rng(2009)
    for n in range(2, 26):
        for exponent in np.linspace(-4.0, 4.0, 25):
            yield _dissipative(rng, n, 10.0**exponent)


def test_order_and_scaling_are_scipys():
    seen = set()
    for A in _sweep():
        Am = np.empty((5, *A.shape), dtype=complex)
        Am[0] = A
        m, s, _ = _expm2009._pade_structure(A)
        assert (m, s) == tuple(pick_pade_structure(Am))
        seen.add((m, min(s, 5)))
    assert {m for m, _ in seen} == {3, 5, 7, 9, 13}
    assert (13, 5) in seen


def test_exponential_is_scipys_bit_for_bit():
    # One library after the other: calls that alternate between numpy's
    # OpenBLAS and scipy's hand their thread pools back and forth, 20x slower.
    As = list(_sweep())
    got = [_expm2009.expm(A) for A in As]
    for A, X in zip(As, got):
        want = scipy.linalg.expm(A)
        assert np.isfinite(want).all()
        assert np.array_equal(X, want)


@pytest.mark.parametrize("shape", ["1x1", "diagonal", "upper", "lower"])
@pytest.mark.parametrize("norm", [1e-3, 0.5, 30.0, 1e3])
def test_structured_inputs_are_scipys(shape, norm):
    # scipy exponentiates a 1x1 or diagonal input entry by entry, and
    # squares a triangular one with its diagonal and first off-diagonal
    # recomputed exactly (Al-Mohy & Higham 2009, Code Fragment 2.1).
    rng = np.random.default_rng(31)
    n = 1 if shape == "1x1" else 6
    A = _dissipative(rng, n, 1.0)
    A = {"upper": np.triu(A), "lower": np.tril(A)}.get(shape, np.diag(np.diag(A)))
    A *= norm / np.abs(A).sum(axis=0).max()
    want = scipy.linalg.expm(A)
    assert np.isfinite(want).all()
    assert np.array_equal(_expm2009.expm(A), want)


@pytest.mark.parametrize("bad", ["nan", "1e300"])
def test_non_finite_or_overflowing_input_gives_a_non_finite_result(bad):
    A = _dissipative(np.random.default_rng(7), 4, 1.0)
    if bad == "nan":
        A[1, 2] = np.nan
    else:
        A *= 1e300
    assert not np.isfinite(_expm2009.expm(A)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert not np.isfinite(scipy.linalg.expm(A)).all()


def test_a_non_finite_block_is_named_by_its_time_sample():
    L = groupvel.semiclassical_liouvillian(TRANSIENT, 1e-3, 0.0)
    L = L._replace(data=np.where(L.data != 0, np.nan, 0.0))
    V = np.zeros((25, 1), complex)
    V[groupvel._GROUND * 6, 0] = 1.0
    run = dynamics.propagate_stack(L, V, np.linspace(0.0, 1.0, 5), exponential=_expm2009.expm)
    with pytest.raises(RuntimeError, match="non-finite at time sample 1"):
        run(0)


_GOLDEN = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config(), "t_max": 1.0})
_G_T_ZERO = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config(), "g_t": 0.0})


@pytest.mark.parametrize("params, t_int", [(_GOLDEN, 1.0), (TRANSIENT, 0.4), (_G_T_ZERO, 1.0)],
                         ids=["golden", "criterion-7-transient", "g_t-zero"])
def test_every_block_the_transient_exponentiates_is_scipys(monkeypatch, params, t_int):
    blocks, expm = [], _expm2009.expm

    def recording(A):
        X = expm(A)
        blocks.append((A.copy(), X))
        return X

    monkeypatch.setattr(_expm2009, "expm", recording)
    groupvel.group_velocity_transient(params, t_int, avg_grid=200)
    assert len(blocks) >= 3
    for A, X in blocks:
        assert np.array_equal(X, scipy.linalg.expm(A))


def test_without_the_binding_scipy_computes_it(monkeypatch):
    calls, scipy_expm = [], scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(A) or scipy_expm(A))
    A = _dissipative(np.random.default_rng(3), 5, 2.0)
    # A real input goes to scipy even with the binding.
    assert np.array_equal(_expm2009.expm(A.real), scipy_expm(A.real)) and len(calls) == 1
    monkeypatch.setattr(_expm2009, "_lapack", lambda: None)
    assert np.array_equal(_expm2009.expm(A), scipy_expm(A)) and len(calls) == 2


def _numpy_blas() -> dict:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]


@pytest.mark.skipif(
    sys.platform != "linux" or _numpy_blas().get("name") != "scipy-openblas"
    or "USE64BITINT" not in _numpy_blas().get("openblas configuration", ""),
    reason="numpy's BLAS is not an ILP64 scipy-openblas mapped under /proc/self/maps",
)
def test_numpys_openblas_is_bound():
    assert _expm2009._lapack() is not None
