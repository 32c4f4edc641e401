"""Fig 14: data throughput (swapped bytes/second), normalized to TMO.

"To assess data throughput enhancement, we measured the amount of data
swapped per second for each workload.  We use the results of TMO on a
single SSD backend as the normalization basis."

Setup mirrors Section V-B's "appropriate local memory ratio": each
workload gets ONE far-memory ratio — the largest the TMO reference can
sustain within a 2x runtime budget (floored at 10% so every workload
swaps something) — and every system runs at that same ratio.  Throughput
is swapped bytes per second of end-to-end runtime; faster swap paths
finish sooner and therefore move more bytes per second.

Devices follow Table IV's envelopes: Linux swap drives a 2 GB/s disk
array, TMO a 7.9 GB/s SSD, Fastswap/XMemPod one 10 GB/s RDMA card, and
the xDM variants their 32 GB/s multi-backend bundles.

This also reproduces the paper's side observation: `stream`/`kmeans` are
memory-intensive with cycling working sets, so their sustainable ratio is
small and throughput hardly differs between disk- and SSD-based paths.
"""

from __future__ import annotations

from repro.baselines import BaselineSystem, FASTSWAP, LINUX_SWAP, TMO, XMEMPOD
from repro.devices import BackendKind, make_device
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.swap import SwapPathModel
from repro.tune.search import slo_bisection
from repro.units import GBps

__all__ = ["run", "SYSTEMS", "RATIO_SLO", "MIN_RATIO"]

SYSTEMS = ("linux-swap", "tmo", "fastswap", "xmempod", "xdm-ssd", "xdm-rdma", "xdm-hetero")
RATIO_SLO = 2.0
MIN_RATIO = 0.1

_BASELINES: dict[str, BaselineSystem] = {
    "linux-swap": LINUX_SWAP,
    "tmo": TMO,
    "fastswap": FASTSWAP,
    "xmempod": XMEMPOD,
}


def _baseline_device(ctx: ExperimentContext, system: str):
    """Table IV hardware for each baseline (memoized on the context)."""
    cache = ctx.__dict__.setdefault("_fig14_devices", {})
    if system not in cache:
        if system == "linux-swap":
            # a striped disk array: 2 GB/s aggregate, sub-ms effective seek
            cache[system] = (make_device(ctx.sim, BackendKind.HDD, bandwidth=GBps(2.0),
                                         seek_cost=0.001), BackendKind.HDD)
        elif system == "tmo":
            cache[system] = (make_device(ctx.sim, BackendKind.SSD,
                                         read_bandwidth=GBps(7.9)), BackendKind.SSD)
        else:  # fastswap / xmempod
            cache[system] = (make_device(ctx.sim, BackendKind.RDMA), BackendKind.RDMA)
    return cache[system]


def _tmo_model(ctx: ExperimentContext, name: str) -> SwapPathModel:
    device, _ = _baseline_device(ctx, "tmo")
    w = ctx.workload(name)
    return SwapPathModel(device, ctx.features(name),
                         fault_parallelism=w.spec.fault_parallelism)


def appropriate_ratio(ctx: ExperimentContext, name: str) -> float:
    """The per-workload ratio every system runs at (TMO-sustainable)."""
    compute = ctx.compute_time(name)
    cfg = TMO.swap_config(BackendKind.SSD)
    # the tuner's bisection on a one-point lattice: TMO's config
    found = slo_bisection(
        _tmo_model(ctx, name), cfg, [cfg.granularity], [cfg.io_width],
        compute_time=compute, budget=compute * RATIO_SLO, max_ratio=0.9, steps=10,
    )
    return max(MIN_RATIO, found[0] if found is not None else 0.0)


def _throughput(ctx: ExperimentContext, name: str, system: str, ratio: float) -> float:
    w = ctx.workload(name)
    features = ctx.features(name)
    if system in _BASELINES:
        baseline = _BASELINES[system]
        device, kind = _baseline_device(ctx, system)
        model = SwapPathModel(device, features, fault_parallelism=w.spec.fault_parallelism)
        cost = model.cost(model.local_pages_for(ratio), baseline.swap_config(kind))
    else:
        mp = ctx.variant(system).multipath(
            features, fault_parallelism=w.spec.fault_parallelism,
            console=ctx.console, fm_ratio=ratio,
        )
        local = max(1, int(features.mrc.n_pages * (1.0 - ratio)))
        cost = mp.cost(local)
    runtime = cost.runtime(ctx.compute_time(name))
    return cost.bytes_total / runtime if runtime > 0 else 0.0


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Normalized throughput per workload and system at the common ratio."""
    rows = []
    best = {s: 0.0 for s in SYSTEMS}
    for name in ctx.all_workloads():
        ratio = appropriate_ratio(ctx, name)
        tmo = _throughput(ctx, name, "tmo", ratio)
        if tmo <= 0:
            continue  # workload has no capacity misses even at the floor ratio
        row = [name, ratio]
        for system in SYSTEMS:
            norm = _throughput(ctx, name, system, ratio) / tmo
            row.append(norm)
            best[system] = max(best[system], norm)
        rows.append(row)
    return ExperimentResult(
        name="fig14",
        title="Data throughput normalized to TMO (single SSD)",
        headers=["workload", "ratio", *SYSTEMS],
        rows=rows,
        metrics={
            "max_xdm_ssd": best["xdm-ssd"],
            "max_xdm_rdma": best["xdm-rdma"],
            "max_xdm_hetero": best["xdm-hetero"],
            "max_fastswap": best["fastswap"],
            "max_linux_swap": best["linux-swap"],
        },
        notes="paper: up to 2.63x (xDM-SSD), 2.82x (xDM-RDMA), 2.76x (xDM-Hetero) over TMO",
    )
