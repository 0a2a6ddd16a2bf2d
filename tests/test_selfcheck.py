"""The built-in invariant suite as a library call."""

from sircontrol import run_self_check

from conftest import make_baseline_params


def test_an_empty_population_passes_every_check():
    # Nothing to conserve: the drift is absolute, and exactly zero.
    results = run_self_check(make_baseline_params(s0=0.0, i0=0.0, r0=0.0))
    assert [(res.name, res.passed) for res in results] == [
        ("rk4-order", True), ("conservation", True), ("hamiltonian-constancy", True),
    ]
    assert results[1].detail == "max absolute drift 0.000e+00 (tolerance 1e-9)"
    assert run_self_check(make_baseline_params())[1].detail.startswith("max relative drift ")
