"""Exhaustive tuning reference: the scalar grid sweeps the tuner replaced.

The tuner (:mod:`repro.tune.search`) prices whole candidate lattices in
vectorized batches and walks the SLO bisection tree through precomputed
values.  This module keeps the straightforward version of every such
decision — one scalar :class:`~repro.swap.SwapPathModel` run per lattice
point, one lattice sweep per bisection step, the full MBE threshold grid —
so tests and ``benchmarks/perf_smoke.py --suite tune`` can check that the
tuner chooses *identical* configurations and count what it saves:

* :class:`GridConsole` — a :class:`SmartConsole` deciding by scalar sweeps;
  inject it through ``ctx.console``;
* :func:`grid_slo_bisection` — drop-in for ``slo_bisection`` (fig14 and
  fig15 monkeypatch it in);
* :func:`grid_thresholds` — drop-in for ``tuned_thresholds`` built on
  :func:`~repro.cluster.mbe.best_thresholds` (fig19 monkeypatches it in).

Importable without pytest: the ``perf-tune`` CI job puts the repo root on
``sys.path`` and imports it from the benchmark script.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.mbe import best_thresholds, mbe_improvement_grid
from repro.core.config import xdm_config
from repro.core.console import ConfigDecision, SmartConsole
from repro.errors import ConfigurationError
from repro.swap import SwapPathModel

__all__ = ["GridConsole", "grid_slo_bisection", "grid_thresholds"]


def _scalar_select(model, local_pages, g_cands, w_cands, template, objective):
    """Exhaustive argmin, granularity outer, width inner; first minimum wins."""
    best = None
    for g in g_cands:
        for w in w_cands:
            config = replace(template, granularity=g, io_width=w)
            cost = model.cost(local_pages, config)
            if best is None or getattr(cost, objective) < getattr(best[1], objective):
                best = (config, cost)
    return best


def _scalar_bisection(decide, compute_time, budget, max_ratio, steps):
    """Binary search on the ratio axis; ``decide(ratio)`` -> (stall, result).

    Returns ``(ratio, result)`` of the last feasible step, or None.
    """
    found = None
    lo, hi = 0.0, max_ratio
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        stall, result = decide(mid)
        if compute_time + stall <= budget:
            found, lo = (mid, result), mid
        else:
            hi = mid
    return found


class GridConsole(SmartConsole):
    """The smart console deciding by exhaustive scalar sweeps.

    ``scalar_runs`` counts its scalar model runs; each one is also booked
    as a grid-reference run on ``stats``, so its ledger shows a reduction
    of exactly 1.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scalar_runs = 0

    def fingerprint(self) -> tuple:
        # distinct from the tuner console's: fig16's process-wide memo
        # must never serve one console's decisions to the other
        return (*super().fingerprint(), "grid")

    def configure(self, features, device, fault_parallelism=1.0, fm_ratio=None,
                  numa_sensitivity=0.5, objective="sys_time", co_tenants=0):
        if objective not in ("sys_time", "stall_time"):
            raise ConfigurationError(f"unknown objective {objective!r}")
        model = SwapPathModel(device, features, fault_parallelism=fault_parallelism)
        if fm_ratio is None:
            n_pages = max(1, features.mrc.n_pages)
            hot = self.min_fm_ratio_local_pages(features)
            fm_ratio = min(self.limits.max_fm_ratio, max(0.0, 1.0 - hot / n_pages))
        else:
            self.limits.validate_fm_ratio(fm_ratio)
        local_pages = model.local_pages_for(fm_ratio)
        g_cands = self.granularity_candidates(features)
        w_cands = self.io_width_candidates(features, device, fault_parallelism)
        chosen, predicted = _scalar_select(
            model, local_pages, g_cands, w_cands,
            xdm_config(co_tenants=co_tenants), objective,
        )
        self.scalar_runs += len(g_cands) * len(w_cands)
        self.stats.grid_runs += len(g_cands) * len(w_cands)
        return ConfigDecision(
            config=chosen,
            fm_ratio=fm_ratio,
            local_pages=local_pages,
            numa_placement=self.numa_placement(numa_sensitivity),
            predicted=predicted,
        )

    def max_offload_under_slo(self, features, device, compute_time, slo,
                              fault_parallelism=1.0):
        if slo < 1.0:
            raise ConfigurationError(f"slo must be >= 1.0, got {slo}")
        if compute_time <= 0:
            raise ConfigurationError("compute_time must be positive")

        def decide(mid):
            decision = self.configure(
                features, device, fault_parallelism=fault_parallelism, fm_ratio=mid
            )
            return decision.predicted.stall_time, decision

        found = _scalar_bisection(
            decide, compute_time, compute_time * slo, self.limits.max_fm_ratio, 12
        )
        return found if found is not None else (0.0, None)


def grid_slo_bisection(model, template, g_cands, w_cands, compute_time, budget,
                       max_ratio, objective="sys_time", steps=12):
    """Scalar stand-in for :func:`repro.tune.search.slo_bisection`."""

    def decide(mid):
        local_pages = model.local_pages_for(mid)
        config, cost = _scalar_select(
            model, local_pages, g_cands, w_cands, template, objective
        )
        return cost.stall_time, (local_pages, config, cost)

    found = _scalar_bisection(decide, compute_time, budget, max_ratio, steps)
    return None if found is None else (found[0], *found[1])


def grid_thresholds(utilization, alphas, betas, diagonal=None):
    """Full-grid stand-in for :func:`repro.cluster.mbe.tuned_thresholds`.

    Prices the upper triangle twice — once for the contour surface, once
    inside ``best_thresholds`` — and reports those cells minus the
    caller's ``diagonal`` as its evaluations, so a caller adding
    ``len(diagonal)`` books the exhaustive total.  A given ``diagonal``
    must equal the surface's.
    """
    grid = mbe_improvement_grid(utilization, alphas, betas)
    if diagonal is not None:
        np.testing.assert_array_equal(np.diag(grid), np.asarray(diagonal))
    a, b, peak = best_thresholds(utilization, alphas, betas)
    cells = 2 * int(np.count_nonzero(~np.isnan(grid)))
    return a, b, peak, cells - (0 if diagonal is None else len(diagonal))
