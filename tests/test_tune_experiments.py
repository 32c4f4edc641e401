"""Experiment-level tuner guarantees: identical output, ≥10× fewer runs.

Every experiment that routes configuration decisions through the tuner
must produce **identical rows and metrics** with the tuner and with the
exhaustive reference of ``tests/tune_reference.py`` — its
:class:`GridConsole` injected as ``ctx.console`` and its scalar searches
monkeypatched over fig14/fig15's bisections and fig19's threshold climb —
while the ``tune_*`` telemetry ledger shows the simulated-run reduction on
the decision-heavy experiments.  Also pins the fig16 SLO-search memo: a
hit must be byte-for-byte the cold result and spend zero additional
console runs.
"""

import pytest

from repro.core.console import SmartConsole
from repro.experiments import EXPERIMENTS, ExperimentContext
from repro.experiments import fig14, fig15, fig19
from tests.tune_reference import GridConsole, grid_slo_bisection, grid_thresholds

__all__: list[str] = []

SCALE = 0.15
SEED = 3

#: experiments whose configuration decisions flow through the tuner
TUNED = ["fig08", "fig14", "fig15", "fig16", "fig19", "ablation", "tier_study",
         "cxl_study", "phase_tuning"]

#: experiments reporting the run ledger in their telemetry, with the floor
#: their reduction must clear (fig19's tuner burns a diagonal the grid
#: also prints, so its floor is the surface-to-climb ratio rather than
#: the batching ratio)
REDUCTION_FLOOR = {"phase_tuning": 10.0, "fig19": 5.0}


def _run(name):
    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    return EXPERIMENTS[name](ctx), ctx


def _run_reference(name, monkeypatch):
    """Run ``name`` with every tuner search swapped for its exhaustive
    reference; also returns how often the patched searches were called."""
    calls = []

    def logged(search):
        def wrapper(*args, **kwargs):
            calls.append(search.__name__)
            return search(*args, **kwargs)
        return wrapper

    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    ctx.console = GridConsole()
    with monkeypatch.context() as m:
        m.setattr(fig14, "slo_bisection", logged(grid_slo_bisection))
        m.setattr(fig15, "slo_bisection", logged(grid_slo_bisection))
        m.setattr(fig19, "tuned_thresholds", logged(grid_thresholds))
        return EXPERIMENTS[name](ctx), ctx, calls


@pytest.mark.parametrize("name", TUNED)
def test_tuner_reproduces_grid_outputs(name, monkeypatch):
    grid, grid_ctx, calls = _run_reference(name, monkeypatch)
    # the reference really decided: a vacuous comparison proves nothing
    assert calls or grid_ctx.console.scalar_runs > 0
    assert grid_ctx.console.stats.batches == 0
    model, model_ctx = _run(name)
    assert model.rows == grid.rows
    assert model.metrics == grid.metrics
    floor = REDUCTION_FLOOR.get(name)
    if floor is not None:
        ledger = model.telemetry
        assert ledger["tune_runs"] > 0
        reduction = ledger["tune_grid_runs"] / ledger["tune_runs"]
        assert reduction >= floor, (name, ledger)
    # console-mediated experiments: the shared ledger shows the same story
    stats = model_ctx.console.stats
    if stats.grid_runs:
        assert stats.reduction() >= 10.0, stats.snapshot()


def test_console_ledger_counts_grid_reference(monkeypatch):
    # the reference books each scalar run as a grid run: reduction is exactly 1
    _, ctx, _ = _run_reference("fig08", monkeypatch)
    console = ctx.console
    assert console.stats.grid_runs == console.scalar_runs > 0
    assert console.stats.runs == 0


def test_fig16_memo_hit_is_byte_for_byte():
    from repro.experiments.fig16 import _offload_for

    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    # an SLO no other test or experiment uses: the process-wide memo must
    # be cold here so the hit/no-spend assertions actually bite
    cold = _offload_for(ctx, "lg-bfs", 1.43)
    runs_after_cold = ctx.console.stats.runs
    assert runs_after_cold > 0
    warm = _offload_for(ctx, "lg-bfs", 1.43)
    assert warm == cold
    assert ctx.console.stats.runs == runs_after_cold  # hit spends nothing
    # slo=None is a distinct memoized key, not a missing argument
    none_slo = _offload_for(ctx, "lg-bfs", None)
    assert none_slo == (0.0, 1.0)
    assert ctx.console.stats.runs == runs_after_cold
    assert _offload_for(ctx, "lg-bfs", None) == none_slo


def test_fig16_memo_keys_on_console_fingerprint():
    from repro.experiments.fig16 import _offload_for

    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    _offload_for(ctx, "lg-bc", 1.37)  # unique SLO: memo is cold (see above)
    assert ctx.console.stats.runs > 0
    # same args on a console with another SLO hit ratio must NOT alias the memo
    ctx2 = ExperimentContext(scale=SCALE, seed=SEED)
    ctx2.console = SmartConsole(slo_hit_ratio=0.8)
    _offload_for(ctx2, "lg-bc", 1.37)
    assert ctx2.console.stats.runs > 0  # re-ran instead of hitting the memo


def test_phase_tuning_reports_gain_and_validation():
    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    res = EXPERIMENTS["phase_tuning"](ctx)
    # per-phase consoles never offload less on average than whole-trace
    assert res.metrics["mean_phase_offload_gain"] >= 0.0
    assert res.telemetry["tune_replay_runs"] + res.telemetry["tune_replay_cache_hits"] > 0
    # the experiment isolates its ledger from the shared console
    assert ctx.console.stats.runs == 0
    # one "all" row per tenant plus one row per phase
    tenants = {r[0] for r in res.rows}
    for t in tenants:
        phases = [r[1] for r in res.rows if r[0] == t]
        assert phases.count("all") == 1
        assert len(phases) == 5
