"""``bench/spans.py``: the benchmark's tracer finds every name it wraps in the package.

The tracer binds ``fista_minimize``'s arguments through its signature and
marks a metric absent for any name it no longer finds, so a renamed hook
would leave the traced run's per-layer metrics empty without failing it.
"""

import importlib.util
from pathlib import Path

import conceptfit.cli
import conceptfit.estimator
import conceptfit.model
import conceptfit.solvers
from conceptfit import FitConfig, HyperParams, fit, simulate

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
spec = importlib.util.spec_from_file_location("spans", SPANS)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

HOOKS = [(conceptfit.estimator, "fista_minimize"), (conceptfit.cli, "load_archive"),
         (conceptfit.cli, "read_entries_csv"), (conceptfit.cli, "write_predictions_csv"),
         (conceptfit.model, "predict_response_prob")]


def tracer():
    return spans.Tracer(conceptfit.estimator, conceptfit.solvers, conceptfit.cli,
                        conceptfit.model)


def test_install_finds_every_hook_and_uninstall_restores_each():
    originals = [getattr(module, name) for module, name in HOOKS]
    traced = tracer()
    traced.install()
    try:
        assert traced.absent == set()
        assert all(getattr(module, name) is not original
                   for (module, name), original in zip(HOOKS, originals))
    finally:
        traced.uninstall()
    assert all(getattr(module, name) is original
               for (module, name), original in zip(HOOKS, originals))


def test_a_traced_fit_records_every_block_solve():
    Y, B, _ = simulate(6, 8, 5, 2, sparsity=1, tau=2.0, missing_fraction=0.2, seed=0)
    params = HyperParams(lam=0.3, gamma=0.3, eta=0.3, tau=2.0, num_concepts=2)
    traced = tracer()
    traced.install()
    try:
        traced.begin_fit("joint", 0, 0, (6, 8, 5, 2))
        _, report = fit(Y, B, params, FitConfig(max_outer_iterations=3))
        traced.end_fit(0.0, report.outer_iterations)
    finally:
        traced.uninstall()
    solves = [span for span in traced.spans if span["name"] == "solve"]
    assert [span["block"] for span in solves] == ["W", "C", "T"] * report.outer_iterations
    assert all(span["floor_stall"] is not None and span["max_iter_hit"] is not None
               and span["iterations"] >= 1 for span in solves)
