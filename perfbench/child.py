"""One pass of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per pass with a private artifact-cache
directory in ``REPRO_CACHE_DIR`` and writes nothing else into the
environment but ``REPRO_FLEET_JOBS=1``.  The script builds the workload's
inputs from the seed (set-up), then runs the workload's operations one by
one, timing each with the process CPU clock (and the wall clock, for the
log and the tracing overhead), and writes a JSON report::

    python3 perfbench/child.py --workload replay --seed 1 --pass cold \
        --out report.json [--trace SPANS.json] [--size smoke]

Between operations the script times a fixed calibration loop, which reads
the host's speed at that moment; each operation's CPU time is also reported
scaled to the reference speed (``ref_seconds``), and so is the set-up's
(``setup_ref_s``), so that a shared host's drift in speed over a run does
not read as a change of the program.

An operation that raises or fails its check is recorded as failed and the
pass goes on.  Checks that compare the warm pass with the cold pass run
in ``run.py``, which sees both reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: relative sim_time tolerance of every fast path against its reference,
#: as DESIGN.md documents it (float round-off; the equivalence tests use 1e-9)
TIME_RTOL = 1e-9

#: counters every engine must reproduce exactly
COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
            "swap_outs", "clean_drops", "file_skips", "transient_retries",
            "failovers")

#: the event-oracle prefix is this fraction of each replay case, with the
#: resident capacity scaled alike so that the prefix still evicts and faults
ORACLE_FRACTION = 1 / 40

#: scale of ``run all`` in the suite workload
SUITE_SCALE = {"full": 0.2, "smoke": 0.05}

#: CPU seconds of one :func:`calibrate` on the reference host, a 2-vCPU
#: x86-64 virtual machine running CPython 3.11
CALIBRATION_REF_S = 0.18
#: operation CPU seconds between two calibrations, at least
CALIBRATION_EVERY_S = 2.0

#: replay cases: accesses per case at full size; smoke divides by this
REPLAY_ACCESSES = 1_000_000
SMOKE_DIVISOR = 50


class OpFailure(Exception):
    """An operation's output failed its check."""


class Stopwatch:
    """Wall and process-CPU seconds since it was started.

    CPU time is what the metrics use: the host's stolen time, which the
    wall clock of a shared virtual machine counts, is not in it."""

    def __init__(self) -> None:
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed now."""
    start = time.process_time()
    acc = 0
    for i in range(1_400_000):
        acc += i * i % 7
    return time.process_time() - start


class OpLog:
    """A pass's operations, with calibrations taken between them."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        #: (operations done before it, calibration seconds)
        self.samples = [(0, calibrate())]
        self._since = 0.0

    def add(self, op: dict) -> None:
        self.ops.append(op)
        self._since += op["cpu_seconds"]
        if self._since >= CALIBRATION_EVERY_S:
            self.samples.append((len(self.ops), calibrate()))
            self._since = 0.0

    def close(self) -> list[dict]:
        """Scale each operation's CPU time by the calibrations either side."""
        if self.samples[-1][0] < len(self.ops):
            self.samples.append((len(self.ops), calibrate()))
        for i, op in enumerate(self.ops):
            before = [s for done, s in self.samples if done <= i][-1]
            after = next(s for done, s in self.samples if done > i)
            op["ref_seconds"] = (op["cpu_seconds"] * CALIBRATION_REF_S
                                 * 2 / (before + after))
        return self.ops


def _op(name: str, clock: tuple[float, float], error: str | None = None,
        check: dict | None = None) -> dict:
    wall, cpu = clock
    return {"name": name, "seconds": wall, "cpu_seconds": cpu,
            "ok": error is None, "error": error, "check": check or {}}


def _counters(result) -> dict:
    out = {c: int(getattr(result, c)) for c in COUNTERS}
    out["sim_time"] = float(result.sim_time)
    out["stall_time"] = float(result.stall_time)
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TIME_RTOL * max(abs(a), abs(b)) + 1e-15


def _compare(label: str, got, want) -> list[str]:
    """Exact counters, sim/stall time within :data:`TIME_RTOL`."""
    problems = [f"{label}: {c} {getattr(got, c)} != {getattr(want, c)}"
                for c in COUNTERS if getattr(got, c) != getattr(want, c)]
    for field in ("sim_time", "stall_time"):
        a, b = getattr(got, field), getattr(want, field)
        if not _close(a, b):
            problems.append(f"{label}: {field} {a!r} vs {b!r}")
    return problems


def _conservation(result, n_accesses: int, resident: int) -> list[str]:
    """Counter identities every run of a cold anonymous trace obeys."""
    r = result
    problems = []
    if r.accesses != n_accesses:
        problems.append(f"accesses {r.accesses} != trace length {n_accesses}")
    if r.hits + r.faults + r.cold_allocations + r.file_skips != r.accesses:
        problems.append("hits + faults + cold allocations + file skips "
                        "!= accesses")
    if r.swap_ins != r.faults:
        problems.append(f"swap_ins {r.swap_ins} != faults {r.faults}")
    if r.cold_allocations + r.faults - r.swap_outs - r.clean_drops != resident:
        problems.append("pages brought in minus pages evicted != resident "
                        f"pages ({resident})")
    return problems


@contextmanager
def _engine(mode: str):
    """Force ``REPRO_REPLAY`` for an untimed oracle run, then restore it."""
    from repro.swap.replay import REPLAY_ENV

    saved = os.environ.get(REPLAY_ENV)
    os.environ[REPLAY_ENV] = mode
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(REPLAY_ENV, None)
        else:
            os.environ[REPLAY_ENV] = saved


# -- replay ----------------------------------------------------------------------

class ReplayWorkload:
    """Seeded synthetic traces straight through the swap executor.

    Four cases on an NVMe stack: uniform (about half the accesses miss),
    zipf alpha=1.1 (skewed), four uniform tenants contending for one
    device, and the uniform trace again under a sparse three-window fault
    plan placed from the uniform case's simulated span in the same pass.
    """

    def __init__(self, seed: int, size: str) -> None:
        from repro.mem.page import PageOp

        div = SMOKE_DIVISOR if size == "smoke" else 1
        n = REPLAY_ACCESSES // div
        self.seed = seed

        def gen(stream: int, n_acc: int, distinct: int, zipf: float | None):
            rng = np.random.default_rng([seed, stream])
            if zipf is None:
                pages = rng.integers(0, distinct, size=n_acc)
            else:
                pages = (rng.zipf(zipf, size=n_acc) - 1) % distinct
            ops = np.where(rng.random(n_acc) < 0.3,
                           int(PageOp.STORE), int(PageOp.LOAD))
            return pages, ops

        # (pages, ops) per case; local pages scale with the trace
        self.uniform = gen(0, n, 100_000 // div, None)
        self.zipf = gen(1, n, 100_000 // div, 1.1)
        self.tenants = [gen(2 + i, n // 4, 50_000 // div, None)
                        for i in range(4)]
        self.local = {"uniform": 50_000 // div, "zipf": 25_000 // div,
                      "contended": 25_000 // div}

    # stacks ----------------------------------------------------------------
    @staticmethod
    def _trace(arrays, n: int | None = None):
        from repro.trace.schema import make_trace

        pages, ops = arrays
        return make_trace(pages[:n], ops=ops[:n])

    def _executor(self, local: int, windows=None):
        from repro.devices import BackendKind, NVMeSSD
        from repro.faults import FaultPlan, FaultyDevice
        from repro.simcore import Simulator
        from repro.swap.executor import SwapExecutor

        sim = Simulator()
        device = NVMeSSD(sim)
        if windows is not None:
            # a fresh plan per run: its transient-draw RNG is stateful
            device = FaultyDevice(device, FaultPlan(list(windows), seed=self.seed))
        return sim, SwapExecutor(sim, device, BackendKind.SSD, local_pages=local)

    def _tenant_executors(self, local: int):
        from repro.devices import BackendKind, NVMeSSD
        from repro.simcore import Simulator
        from repro.swap.executor import make_contended_executors

        sim = Simulator()
        return make_contended_executors(sim, NVMeSSD(sim), BackendKind.SSD,
                                        4, local_pages=local)

    @staticmethod
    def _windows(t0: float, span: float):
        """Three sparse fault windows at fixed fractions of a clean span."""
        from repro.faults import BandwidthFault, LatencyFault, TransientFault

        width = 0.006 * span
        return [LatencyFault(start=t0 + 0.25 * span, duration=width, factor=8.0),
                TransientFault(start=t0 + 0.50 * span, duration=width,
                               error_rate=0.2),
                BandwidthFault(start=t0 + 0.75 * span, duration=width,
                               fraction=0.5)]

    # runs ------------------------------------------------------------------
    def _single(self, arrays, local: int, n: int | None = None, windows=None):
        """(result, executor, clean-span start) of one default-engine run."""
        sim, ex = self._executor(local, windows)
        t0 = sim.now
        return ex.run(self._trace(arrays, n)), ex, t0

    def _oracle_single(self, arrays, local: int, injected: bool = False) -> list[str]:
        """Fast path vs event loop on a prefix (untimed, cold pass only);
        ``injected`` places the fault windows on the prefix's clean span."""
        n = int(len(arrays[0]) * ORACLE_FRACTION)
        small = max(16, int(local * ORACLE_FRACTION))
        windows = None
        if injected:
            clean, _, t0 = self._single(arrays, small, n)
            windows = self._windows(t0, clean.sim_time)
        fast = self._single(arrays, small, n, windows)[0]
        with _engine("event"):
            event = self._single(arrays, small, n, windows)[0]
        return _compare("prefix oracle", fast, event)

    def _oracle_tenants(self, local: int) -> list[str]:
        from repro.swap.executor import run_tenants
        from repro.swap.replay import replay_run_multi

        n = int(len(self.tenants[0][0]) * ORACLE_FRACTION)
        small = max(16, int(local * ORACLE_FRACTION))
        traces = [self._trace(t, n) for t in self.tenants]
        fluid = run_tenants(self._tenant_executors(small), traces)
        with _engine("event"):
            event = run_tenants(self._tenant_executors(small), traces)
        des = replay_run_multi(self._tenant_executors(small), traces,
                               solver="des")
        problems = []
        for i in range(4):
            problems += [p for p in _compare(f"tenant {i} prefix oracle",
                                             fluid[i], event[i])
                         if "sim_time" not in p and "stall_time" not in p]
            if not _close(fluid[i].sim_time, des[i].sim_time):
                problems.append(f"tenant {i}: fluid sim_time "
                                f"{fluid[i].sim_time!r} vs DES reference "
                                f"{des[i].sim_time!r}")
        return problems

    def run(self, pass_name: str, tracer, log: OpLog) -> None:
        from repro.swap.executor import run_tenants

        cold = pass_name == "cold"
        clean_span = []

        def timed(name, body, oracle):
            watch = Stopwatch()
            try:
                with _traced(tracer):
                    problems, check = body()
                clock = watch.read()
            except Exception as exc:  # a crashing case is a failed op
                log.add(_op(name, watch.read(), repr(exc)))
                return
            if cold and not problems:
                problems = oracle()
            log.add(_op(name, clock, "; ".join(problems) or None, check))

        def single(arrays, local, windows=None):
            def body():
                result, ex, t0 = self._single(arrays, local, windows=windows)
                if windows is None:
                    clean_span[:] = [t0, result.sim_time]
                check = _counters(result)
                if windows is not None:
                    if ex.execution_plan is None:
                        raise OpFailure("fault plan did not take the hybrid "
                                        "planner")
                    check["event_time_fraction"] = \
                        ex.execution_plan.event_time_fraction
                return _conservation(result, len(arrays[0]), len(ex.lru)), check
            return body

        def contended():
            traces = [self._trace(t) for t in self.tenants]
            executors = self._tenant_executors(self.local["contended"])
            results = run_tenants(executors, traces)
            problems, check = [], {}
            for i, (r, ex, tr) in enumerate(zip(results, executors, traces)):
                problems += [f"tenant {i}: {p}"
                             for p in _conservation(r, len(tr), len(ex.lru))]
                check[f"tenant{i}"] = _counters(r)
            return problems, check

        local = self.local
        timed("uniform", single(self.uniform, local["uniform"]),
              lambda: self._oracle_single(self.uniform, local["uniform"]))
        timed("zipf", single(self.zipf, local["zipf"]),
              lambda: self._oracle_single(self.zipf, local["zipf"]))
        timed("contended", contended,
              lambda: self._oracle_tenants(local["contended"]))
        if clean_span:
            windows = self._windows(*clean_span)
            timed("injected", single(self.uniform, local["uniform"], windows),
                  lambda: self._oracle_single(self.uniform, local["uniform"],
                                              injected=True))
        else:
            log.add(_op("injected", (0.0, 0.0), "no clean uniform span to "
                        "place the fault windows"))


# -- suite ---------------------------------------------------------------------

class ExperimentWorkload:
    """Experiments through the runner's registry, serially, sharing one
    :class:`ExperimentContext` as ``run all --jobs 1`` does."""

    def __init__(self, names, scale: float, seed: int) -> None:
        from repro.experiments.context import ExperimentContext

        self.names = list(names)
        self.ctx = ExperimentContext(scale=scale, seed=seed)

    @staticmethod
    def check(name: str, result) -> None:
        """Per-experiment output checks beyond 'it did not raise'."""
        if name == "replay_validation":
            frac = result.metrics["counter_identical_fraction"]
            if frac < 1.0:
                raise OpFailure(f"counter_identical_fraction={frac}")
        if name == "fleet_study":
            from repro.experiments.fleet_study import MBE_TOLERANCE

            err = result.metrics["mbe_abs_err_max"]
            if not err <= MBE_TOLERANCE:
                raise OpFailure(f"MBE gate: |realized - analytic| = {err}")

    def run(self, pass_name: str, tracer, log: OpLog) -> None:
        from repro.experiments.runner import run_experiment

        for name in self.names:
            span = tracer.span(f"experiments.{name}") if tracer else nullcontext()
            watch = Stopwatch()
            try:
                with _traced(tracer), span:
                    result = run_experiment(name, self.ctx)
                    text = result.render()
                clock = watch.read()
                self.check(name, result)
            except Exception as exc:  # a crashing experiment is a failed op
                log.add(_op(name, watch.read(), repr(exc)))
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            log.add(_op(name, clock, check={"render_sha256": digest}))


def make_workload(name: str, seed: int, size: str):
    """Build a workload's inputs: everything before the first timed op."""
    if name == "replay":
        return ReplayWorkload(seed, size)
    if name == "suite":
        from repro.experiments.runner import EXPERIMENTS

        return ExperimentWorkload(EXPERIMENTS, SUITE_SCALE[size], seed)
    raise SystemExit(f"unknown workload {name!r}")


@contextmanager
def _traced(tracer):
    """Record spans only inside timed operations."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_name", choices=("cold", "warm"),
                    default="cold")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", help="write spans here and report layers")
    ap.add_argument("--size", choices=tuple(SUITE_SCALE), default="full")
    args = ap.parse_args(argv)

    import repro
    from repro import cache

    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    private = Path(os.environ.get("REPRO_CACHE_DIR", ""))
    if not private.is_absolute() or cache.cache_dir() != private:
        raise SystemExit("artifact cache is not the private directory")

    workload = make_workload(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from repro.experiments import runner  # noqa: F401 -- bind every layer first
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = {"t_first_op": time.monotonic(), "setup_cpu_s": time.process_time(),
              "pass": args.pass_name,
              "env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")}}
    h0, m0 = cache.cache_stats()
    log = OpLog()
    workload.run(args.pass_name, tracer, log)
    report["ops"] = log.close()
    report["calibration_s"] = [s for _, s in log.samples]
    # the set-up's CPU time since the fork, at the reference speed too
    report["setup_ref_s"] = (report["setup_cpu_s"] * CALIBRATION_REF_S
                             / statistics.median(report["calibration_s"]))
    h1, m1 = cache.cache_stats()
    report["cache_hits"], report["cache_misses"] = h1 - h0, m1 - m0
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["fired"] = sorted({span[0] for span in tracer.spans})
        tracer.write(Path(args.trace), {"workload": args.workload,
                                        "seed": args.seed,
                                        "pass": args.pass_name})
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
