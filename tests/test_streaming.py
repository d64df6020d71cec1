"""Gate runs in time chunks: each chunk is stepped, read out and scored,
then dropped, and the results are the whole run's bit for bit."""

import re

import numpy as np
import pytest

from eitgate import basis, cli, observables

from _support import fast_gate_config, traced_peak
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

        def counted(lam, *args, score=score, name=name, **kwargs):
            calls.append((name, lam.shape[0]))
            return score(lam, *args, **kwargs)

        monkeypatch.setattr(observables, name, counted)
    return calls


def _sizes(T: int, chunk: int) -> list[int]:
    """The lengths of the chunks of chunk samples a run of T is taken in."""
    return [min(chunk, T - start) for start in range(0, T, chunk)]


# Chunks of one sample, and lengths that divide none of the grids.
@pytest.mark.parametrize("chunk", [1, 2, 4, 7, 12])
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


@pytest.mark.parametrize("chunk", [1, 2, 7, 12])
def test_chunked_scan_stack_is_the_whole_scan_bit_for_bit(monkeypatch, chunk):
    # Four points of one generator stack, each run in chunks.
    cfg = {**cli.DEFAULTS, **fast_gate_config()}
    values = np.linspace(0.0022, 0.0030, 4)

    def scan():
        return list(cli._scan_results(cli._scan_points(cfg, "g_p", values)))

    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", cli._MAX_SAMPLES)
    whole = scan()
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    calls = _scoring_calls(monkeypatch)
    for got, want in zip(scan(), whole, strict=True):
        _assert_same_metrics(got, want)
    assert len(calls) == 2 * len(values) * len(_sizes(cfg["n_samples"], chunk))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_each_readout_map_is_built_once_per_run(monkeypatch, run):
    # In chunks of seven samples; only the ladder's guard reads edge cells.
    analysis, overrides = RUNS[run]
    built = []
    for name in ("qubit_cells", "population_cells", "trace_cells", "edge_cells"):
        def counted(states, build=getattr(basis, name), name=name):
            built.append(name)
            return build(states)

        monkeypatch.setattr(basis, name, counted)
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", 7)
    getattr(cli, analysis)({**cli.DEFAULTS, **overrides})
    edge = ["edge_cells"] if analysis == "run_ladder_analysis" else []
    assert sorted(built) == sorted(["qubit_cells", "population_cells", "trace_cells", *edge])


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


# Without its pumps the medium absorbs the photons: the qubit coherences
# fall below the phase threshold at about t 230.
PUMP_FREE = {
    **cli.DEFAULTS, "g_p": 0.5, "g_t": 0.5, "eps12": 0.1, "eps34": 0.1,
    **{k: 3.0 for k in cli.DEFAULTS if k.startswith("gamma_") and k != "gamma_si"},
    "t_max": 400.0,
}


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_a_scoring_failure_in_a_later_chunk_names_the_whole_runs_sample(monkeypatch, chunk):
    # Sample 24 of 41.
    cfg = {**PUMP_FREE, "n_samples": 41}
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    with pytest.raises(observables.UndefinedPhaseError,
                       match="^qubit coherence below threshold at time sample 24; "):
        cli.run_gate_analysis(cfg)


def test_a_failing_runs_traced_peak_stays_near_a_passing_runs():
    # Sample 1153 of 2001; over t 40 the same run passes. Scored again as
    # one chunk to name its sample, the failing run traced 15.4 MB against
    # the passing run's 1.0 MB.
    cfg = {**PUMP_FREE, "n_samples": 2001}

    def failing():
        with pytest.raises(observables.UndefinedPhaseError, match=" at time sample 1153; "):
            cli.run_gate_analysis(cfg)

    failed = traced_peak(failing)[1]
    passed = traced_peak(cli.run_gate_analysis, {**cfg, "t_max": 40.0})[1]
    assert failed < 1.5 * passed, f"traced peaks {failed} B failing, {passed} B passing"


# Faults put into what a scorer reads at one time sample: (scorer, the
# argument it reads, the fault), each failing one check of the scorer.
FAULTS = {
    "non-finite coherence": ("_phases_after", 1, lambda x: np.nan),
    "vanishing coherence": ("_phases_after", 1, lambda x: 0.0),
    "average fidelity above 1": ("average_fidelity_from_blocks", 0, lambda x: 2.0 * x),
    "non-finite trace": ("haar_conditional_fidelity", 1, lambda x: np.nan),
    "conditional fidelity above 1": ("haar_conditional_fidelity", 0, lambda x: 2.0 * x),
}


def _inject(monkeypatch, fault: str, sample: int) -> None:
    name, argument, change = FAULTS[fault]
    score = getattr(observables, name)

    def faulty(*args, first_sample=0):
        args = list(args)
        if 0 <= sample - first_sample < len(args[argument]):
            args[argument] = args[argument].copy()
            args[argument][sample - first_sample] = change(args[argument][sample - first_sample])
        return score(*args, first_sample=first_sample)

    monkeypatch.setattr(observables, name, faulty)


@pytest.mark.parametrize("chunk", [1, 7, 32])
@pytest.mark.parametrize("faults, message", [
    # The phases are read before the fidelities, so their checks rank first.
    ((("average fidelity above 1", 5), ("vanishing coherence", 30)),
     r"qubit coherence below threshold at time sample 30; phase undefined$"),
    # Within a scorer, its checks rank in the order it runs them.
    ((("vanishing coherence", 10), ("non-finite coherence", 30)),
     r"non-finite qubit coherence at time sample 30$"),
    ((("conditional fidelity above 1", 5), ("non-finite trace", 30)),
     r"non-finite no-jump trace at time sample 30$"),
    # The unconditional map is scored before the conditional one.
    ((("conditional fidelity above 1", 3), ("average fidelity above 1", 20)),
     r"average fidelity \S+ exceeds 1 at time sample 20; "),
    # A check names its first failing sample.
    ((("vanishing coherence", 33), ("vanishing coherence", 12)),
     r"qubit coherence below threshold at time sample 12; "),
])
def test_a_run_raises_the_failure_a_whole_run_raises(monkeypatch, chunk, faults, message):
    cfg = {**cli.DEFAULTS, **fast_gate_config(), "n_samples": 41}
    for fault, sample in faults:
        _inject(monkeypatch, fault, sample)
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", cli._MAX_SAMPLES)
    with pytest.raises(ValueError) as whole:
        cli.run_gate_analysis(cfg)
    assert re.match(message, str(whole.value)), str(whole.value)
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    calls = _scoring_calls(monkeypatch)
    with pytest.raises(type(whole.value)) as chunked:
        cli.run_gate_analysis(cfg)
    assert str(chunked.value) == str(whole.value)
    assert all(n <= chunk for _, n in calls)  # nothing scored again whole


def test_a_runs_traced_peak_grows_with_n_samples_by_its_output_columns():
    # The benchmark's ladder. A whole run's blocks, images and metric
    # temporaries grew the traced peak by about 17 KB a sample; what grows
    # now is the output columns (time, three phases, CPS, F, F_c, p and a
    # population per state) and the (T, 16) edge series of the guard.
    def peak(n_samples: int) -> int:
        res, traced = traced_peak(cli.run_ladder_analysis, {**cli.DEFAULTS, **LADDER,
                                                            "n_samples": n_samples})
        assert res["populations"].shape == (n_samples, 48)
        return traced

    per_sample = 8 * (8 + 48) + 16 * 16
    grown = peak(2001) - peak(126)
    assert grown < 1.5 * per_sample * (2001 - 126), f"{grown / (2001 - 126):.0f} B a sample"
