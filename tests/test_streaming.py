"""Gate runs in time chunks: each chunk is stepped, read out and scored,
then dropped, and the results are the whole run's bit for bit."""

import tracemalloc

import numpy as np
import pytest

from eitgate import cli, dynamics, observables

from _support import fast_gate_config
from test_scan import _assert_same_metrics

LADDER = dict(
    n_atoms=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, ladder_gamma21=1.0, ladder_gamma32=1.0,
    ladder_convention="absorptive", n_max=3, t_max=0.25, n_samples=26,
)
# Both media, the ladder with its truncation guard; the gate with the
# adaptive engine, whose solver hands back the whole grid at once.
RUNS = {
    "five-level": ("run_gate_analysis", {**fast_gate_config(), "n_samples": 41}),
    "five-level adaptive-rk": ("run_gate_analysis", {
        **fast_gate_config(), "t_max": 0.1, "n_samples": 14, "method": "adaptive-rk",
    }),
    "ladder": ("run_ladder_analysis", LADDER),
}


def _scoring_calls(monkeypatch) -> list:
    """The number of samples each call of the two fidelities scores."""
    calls = []
    for name in ("average_fidelity_from_blocks", "haar_conditional_fidelity"):
        score = getattr(observables, name)

        def counted(lam, *args, score=score, name=name):
            calls.append((name, lam.shape[0]))
            return score(lam, *args)

        monkeypatch.setattr(observables, name, counted)
    return calls


def _sizes(T: int, chunk: int) -> list[int]:
    return [stop - start for start, stop in dynamics._spans(T, chunk)]


def test_chunk_spans_leave_no_sample_alone():
    assert _sizes(41, 4) == [4] * 9 + [5]
    assert _sizes(26, 12) == [12, 12, 2]
    assert _sizes(33, 32) == [33] and _sizes(32, 32) == [32] and _sizes(2, 32) == [2]
    assert _sizes(65, 32) == [32, 33] and _sizes(95, 32) == [32, 32, 31]


# Chunk lengths that divide none of the grids. They are multiples of four:
# OpenBLAS's gemv sums the rows of the exact conditional fidelity's
# quadrature in blocks of four, and a row rounds otherwise in a shorter
# block, as it would in chunks of one or seven samples.
@pytest.mark.parametrize("chunk", [4, 12])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_chunked_runs_are_the_whole_run_bit_for_bit(monkeypatch, run, chunk):
    analysis, overrides = RUNS[run]
    cfg = {**cli.DEFAULTS, **overrides}
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", cli._MAX_SAMPLES)
    whole = getattr(cli, analysis)(cfg)
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    calls = _scoring_calls(monkeypatch)
    _assert_same_metrics(getattr(cli, analysis)(cfg), whole)
    # Scored chunk by chunk, both maps, and not again as one chunk.
    sizes = _sizes(cfg["n_samples"], chunk)
    assert len(sizes) > 1
    assert calls == [("average_fidelity_from_blocks", n) for n in sizes] + [
        ("haar_conditional_fidelity", n) for n in sizes
    ]


def test_chunked_scan_stack_is_the_whole_scan_bit_for_bit(monkeypatch):
    # Four points of one generator stack, each run in chunks of twelve.
    cfg = {**cli.DEFAULTS, **fast_gate_config()}
    values = np.linspace(0.0022, 0.0030, 4)

    def scan():
        return list(cli._scan_results(cli._scan_points(cfg, "g_p", values)))

    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", cli._MAX_SAMPLES)
    whole = scan()
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", 12)
    calls = _scoring_calls(monkeypatch)
    for got, want in zip(scan(), whole, strict=True):
        _assert_same_metrics(got, want)
    assert len(calls) == 2 * len(values) * len(_sizes(cfg["n_samples"], 12))


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_a_leak_in_a_later_chunk_gives_the_whole_runs_guard_message(monkeypatch, chunk):
    # n_max 2 is too small at this point; the tilted superposition hides
    # the edge population of |10>, which is worst at sample 25.
    cfg = {
        **cli.DEFAULTS, **LADDER, "n_max": 2, "n_samples": 126,
        "c00": 1.0, "c01": 0.01, "c10": 0.01, "c11": 0.01,
    }
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    calls = _scoring_calls(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        cli.run_ladder_analysis(cfg)
    assert str(info.value) == (
        "truncation leakage 9.508e-01 at time sample 25 of input |10> exceeds 1.0e-03; "
        "raise n_max"
    )
    # The guard reads the whole unconditional map before the conditional
    # one is propagated.
    assert {name for name, _ in calls} <= {"average_fidelity_from_blocks"}


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_a_scoring_failure_in_a_later_chunk_names_the_whole_runs_sample(monkeypatch, chunk):
    # Without its pumps the medium absorbs the photons: the qubit
    # coherences fall below the phase threshold at sample 24 of 41.
    decays = {k: 3.0 for k in cli.DEFAULTS if k.startswith("gamma_") and k != "gamma_si"}
    cfg = {
        **cli.DEFAULTS, "g_p": 0.5, "g_t": 0.5, "eps12": 0.1, "eps34": 0.1, **decays,
        "t_max": 400.0, "n_samples": 41,
    }
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    with pytest.raises(observables.UndefinedPhaseError,
                       match="^qubit coherence below threshold at time sample 24; "):
        cli.run_gate_analysis(cfg)


def test_a_runs_traced_peak_grows_with_n_samples_by_its_output_columns():
    # The benchmark's ladder. A whole run's blocks, images and metric
    # temporaries grew the traced peak by about 17 KB a sample; what grows
    # now is the output columns (time, three phases, CPS, F, F_c, p and a
    # population per state) and the (T, 16) edge series of the guard.
    def peak(n_samples: int) -> int:
        cfg = {**cli.DEFAULTS, **LADDER, "n_samples": n_samples}
        tracemalloc.start()
        try:
            res = cli.run_ladder_analysis(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert res["populations"].shape == (n_samples, 48)

    per_sample = 8 * (8 + 48) + 16 * 16
    grown = peak(2001) - peak(126)
    assert grown < 1.5 * per_sample * (2001 - 126), f"{grown / (2001 - 126):.0f} B a sample"
