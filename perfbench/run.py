"""The repository benchmark: host time of the simulator, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay|suite --seed N \
        --seconds S --trace 0|1

Each workload runs in rounds.  A round is a *cold* pass with an empty
private artifact cache followed by a *warm* pass that reuses the
directory the cold pass filled; each pass is a fresh single process
(``child.py``) with ``REPRO_FLEET_JOBS=1`` and the product default of
every other ``REPRO_*`` knob.  Rounds repeat until the measured time
reaches ``--seconds``, and there are at least :data:`MIN_ROUNDS` of them.
The seed only feeds input generation: each round runs on inputs of its
own seed, derived from ``--seed`` and the round's index, so that a run's
median is taken over several inputs, not one.

Workloads, and why each is here:

``replay``
    Seeded synthetic traces straight through ``SwapExecutor.run`` /
    ``run_tenants`` on an NVMe stack: uniform and zipf 1M accesses, four
    contending 250k-access tenants, and the uniform trace under a sparse
    fault plan.  The only workload where engine work is not diluted by
    experiment or cache overhead.
``suite``
    Every experiment of ``run all`` at a fixed scale, serially.  Work is
    spread over every layer, so a gain in one experiment that costs
    another shows; it includes ``fleet_study``, so the cluster layers and
    the fleet cache are measured here too.

End-to-end metrics (measured with tracing off): ``setup_s`` (CPU seconds
of a fresh process up to its first timed operation: interpreter, imports
and input generation, median over every pass), ``cold_ref_s`` /
``warm_ref_s`` (CPU seconds of the pass's operations, median over rounds),
``peak_rss_mb`` (largest maximum resident set of any pass) and
``cache_disk_mb`` (bytes the cold pass leaves in the private cache,
median over rounds).

All three times are scaled to a reference host speed.  They are CPU time,
not wall time, because CPU time leaves out what the host steals from a
shared virtual machine.  What stays is the host's own drift in speed,
which on a shared machine reaches tens of percent within a minute;
``child.py`` times a fixed calibration loop between operations and scales
each operation by the calibrations either side of it, and the set-up by
the pass's median calibration (``CALIBRATION_REF_S`` over the measured
calibration).  A faster program still reads faster; a faster host does
not.

With ``--trace 1`` one untraced round and one round with the span tracer
of ``tracer.py`` run, and the per-layer table is printed instead; the
spans are written to ``.perfbench/spans-<workload>-<pass>.json``.

An operation that raises or fails a check counts in ``failed``; the run
goes on.  ``correct`` is false when a pass did not complete, broke cache
hygiene (a cold hit, or a warm miss), or a traced boundary never fired.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHE_KINDS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

WORKLOADS = ("replay", "suite")

#: whole-run deadline; the child of a late pass is killed and the run fails
DEADLINE_S = 170.0
#: untraced rounds per run, whatever ``--seconds`` asks for
MIN_ROUNDS = 2

END_TO_END = {"setup_s": "s", "cold_ref_s": "s", "warm_ref_s": "s",
              "peak_rss_mb": "MB", "cache_disk_mb": "MB"}

TRACED_EXPERIMENTS = ("fig10_11", "fig17", "tenant_scaling", "replay_validation",
                      "failover_study", "phase_tuning", "fleet_study")

#: per-layer metrics: (name without pass prefix, unit, better)
_PASS_LAYERS = (
    [(n, "s", "lower") for n in (
        "mem.lru_replay_s", "swap.classify_s", "swap.batch_s", "swap.multi_s",
        "swap.hybrid_s", "swap.event_s", "workloads.trace_s", "trace.fuse_s",
        "mem.reuse_s", "tune.search_s", "tune.validate_s",
        "cluster.plan_fleet_s", "cluster.simulate_node_s")]
    + [(f"cache.load_s.{k}", "s", "lower") for k in CACHE_KINDS]
    + [(f"experiments.{e}_s", "s", "lower") for e in TRACED_EXPERIMENTS]
    + [("tracing_overhead_s", "s", "lower"),
       ("mem.lru_accesses", "count", "lower"),
       ("swap.classify_calls", "count", "lower"),
       ("swap.classify_distinct", "count", "lower"),
       ("swap.classify_useful_ratio", "ratio", "higher"),
       ("swap.dispatch.batch", "count", "higher"),
       ("swap.dispatch.hybrid", "count", "higher"),
       ("swap.dispatch.multi", "count", "higher"),
       ("swap.dispatch.event", "count", "lower"),
       ("swap.hybrid_event_time_fraction", "ratio", "lower"),
       ("cluster.node_jobs", "count", "lower")]
    + [(f"cache.hits.{k}", "count", "higher") for k in CACHE_KINDS]
    + [(f"cache.misses.{k}", "count", "lower") for k in CACHE_KINDS]
)

#: every per-layer metric as (name, unit, better); a warm pass stores
#: nothing, so stores are reported for the cold pass only
PER_LAYER = (
    [(f"{p}.{n}", u, b) for p in ("cold", "warm") for n, u, b in _PASS_LAYERS]
    + [(f"cold.cache.store_s.{k}", "s", "lower") for k in CACHE_KINDS]
    + [("cache.files", "count", "lower")]
)

#: spans each workload's traced pass must record (smoke size skips the
#: classification cache, whose floor its traces do not reach)
_REQUIRED = {
    "replay": {"cold": ["swap.run", "swap.batch", "swap.hybrid", "swap.tenants",
                        "swap.multi", "swap.classify", "mem.lru_replay"],
               "warm": ["swap.batch", "swap.hybrid", "swap.multi",
                        "swap.classify"]},
    "suite": {"cold": ["swap.run", "swap.batch", "swap.hybrid", "swap.multi",
                       "swap.classify", "mem.lru_replay", "workloads.trace",
                       "trace.fuse", "mem.reuse", "tune.search",
                       "tune.validate", "cluster.plan_fleet",
                       "cluster.simulate_node", "cache.load.trace",
                       "cache.store.trace", "cache.store.features",
                       "cache.store.tune", "cache.store.fleet"],
              "warm": ["swap.classify", "cluster.plan_fleet",
                       "cluster.simulate_node", "cache.load.trace",
                       "cache.load.features", "cache.load.tune",
                       "cache.load.fleet"]},
}
_REQUIRED_FULL = {"replay": {"cold": ["cache.store.replay"],
                             "warm": ["cache.load.replay"]}}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "XDG_CACHE_HOME"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_FLEET_JOBS"] = "1"
    return env


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a run with ``--seed seed``."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _dir_bytes(path: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Runner:
    """Runs passes of one workload inside a private work directory."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.invalid: list[str] = []
        self.n_pass = 0

    def child(self, cache_dir: Path, pass_name: str, seed: int,
              *extra: str) -> dict:
        """One fresh process; returns its report plus ``setup_wall_s``."""
        self.n_pass += 1
        out = self.work / f"pass{self.n_pass}.json"
        log = self.work / f"pass{self.n_pass}.log"
        cmd = [sys.executable, str(CHILD), "--workload", self.args.workload,
               "--seed", str(seed), "--pass", pass_name,
               "--out", str(out), "--size", self.args.size, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next pass")
        t_spawn = time.monotonic()
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(cmd, cwd=self.work, env=_child_env(cache_dir),
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{pass_name} pass overran the deadline") from None
        if proc.returncode != 0 or not out.exists():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{pass_name} pass exited {proc.returncode}:\n{tail}")
        report = json.loads(out.read_text())
        report["setup_wall_s"] = report["t_first_op"] - t_spawn
        return report

    def round(self, index: int, seed: int, traced: bool = False) -> dict:
        """A cold pass on an empty cache, then a warm pass on its contents,
        both on the inputs of ``seed``."""
        cache_dir = self.work / f"cache{index}"
        cache_dir.mkdir()
        out = {}
        for pass_name in ("cold", "warm"):
            extra = []
            if traced:
                spans = ROOT / ".perfbench" / f"spans-{self.args.workload}-{pass_name}.json"
                extra = ["--trace", str(spans)]
            report = self.child(cache_dir, pass_name, seed, *extra)
            report["wall_s"] = sum(op["seconds"] for op in report["ops"])
            report["cpu_s"] = sum(op["cpu_seconds"] for op in report["ops"])
            report["ref_s"] = sum(op["ref_seconds"] for op in report["ops"])
            if pass_name == "cold":
                out["cache_files"], out["cache_bytes"] = _dir_bytes(cache_dir)
            out[pass_name] = report
        self.check_hygiene(index, out)
        self.compare_passes(out)
        shutil.rmtree(cache_dir)
        return out

    def check_hygiene(self, index: int, rnd: dict) -> None:
        cold, warm = rnd["cold"], rnd["warm"]
        if cold["cache_hits"]:
            self.invalid.append(f"round {index}: cold pass saw "
                                f"{cold['cache_hits']} cache hit(s)")
        if warm["cache_misses"]:
            self.invalid.append(
                f"round {index}: warm pass hit {warm['cache_hits']} of "
                f"{warm['cache_hits'] + warm['cache_misses']} lookups")

    @staticmethod
    def compare_passes(rnd: dict) -> None:
        """Warm output must equal cold output, op by op."""
        cold_ops = {op["name"]: op for op in rnd["cold"]["ops"]}
        for op in rnd["warm"]["ops"]:
            ref = cold_ops.get(op["name"])
            if not op["ok"] or ref is None or not ref["ok"]:
                continue
            if op["check"] != ref["check"]:
                diff = sorted(k for k in op["check"]
                              if op["check"][k] != ref["check"].get(k))
                op["ok"] = False
                op["error"] = f"warm output differs from cold in {', '.join(diff)}"


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro package under {ROOT}")
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, Runner(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, runner: Runner) -> dict:
    if args.trace:
        # one untraced round prices the tracing of the same inputs
        seed = round_seed(args.seed, 0)
        rounds = [runner.round(0, seed)]
        traced = runner.round(1, seed, traced=True)
    else:
        rounds, traced = [], None
        measured = 0.0
        while len(rounds) < MIN_ROUNDS or measured < args.seconds:
            rnd = runner.round(len(rounds), round_seed(args.seed, len(rounds)))
            rounds.append(rnd)
            measured += rnd["cold"]["cpu_s"] + rnd["warm"]["cpu_s"]
        setups = [r[p]["setup_ref_s"] for r in rounds for p in ("cold", "warm")]

    passes = [r[p] for r in rounds + ([traced] if traced else [])
              for p in ("cold", "warm")]
    ops = [op for rep in passes for op in rep["ops"]]
    failed = [(rep["pass"], op) for rep in passes for op in rep["ops"]
              if not op["ok"]]
    for rep in passes:
        timings = ", ".join(f"{op['name']}={op['cpu_seconds']:.3f}"
                            for op in rep["ops"])
        cal = rep["calibration_s"]
        print(f"{rep['pass']:4} pass: ref {rep['ref_s']:.3f}s cpu {rep['cpu_s']:.3f}s "
              f"wall {rep['wall_s']:.3f}s calibration {min(cal):.3f}-{max(cal):.3f}s "
              f"setup {rep['setup_ref_s']:.3f}s (wall {rep['setup_wall_s']:.3f}s) rss {rep['peak_rss_mb']:.1f}MB cache "
              f"{rep['cache_hits']} hit(s) {rep['cache_misses']} miss(es); "
              f"op cpu {timings}")
    print(f"env: {json.dumps(rounds[0]['cold']['env'], sort_keys=True)}")
    for pass_name, op in failed:
        print(f"FAILED {pass_name} {op['name']}: {op['error']}")
    for problem in runner.invalid:
        print(f"INVALID {problem}")

    if traced is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_ref_s": statistics.median(r["cold"]["ref_s"] for r in rounds),
            "warm_ref_s": statistics.median(r["warm"]["ref_s"] for r in rounds),
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in passes),
            "cache_disk_mb": statistics.median(r["cache_bytes"] for r in rounds) / 1e6,
        }
        units = END_TO_END
    else:
        metrics = _layer_metrics(args, traced, rounds, runner)
        units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in metrics.items():
        print(f"  {name:45} {_fmt(value):>14} {units[name]}")
    return {"correct": not runner.invalid, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _layer_metrics(args, traced: dict, rounds: list, runner: Runner) -> dict:
    required = _REQUIRED[args.workload]
    extra = _REQUIRED_FULL.get(args.workload, {}) if args.size == "full" else {}
    for p in ("cold", "warm"):
        missing = [n for n in required[p] + extra.get(p, [])
                   if n not in traced[p]["fired"]]
        if missing:
            runner.invalid.append(f"traced {p} pass: boundaries never fired: "
                                  f"{', '.join(missing)}")
    out = {}
    for name, _, _ in PER_LAYER:
        pass_name, _, layer = name.partition(".")
        if name == "cache.files":
            out[name] = traced["cache_files"]
        elif layer == "tracing_overhead_s":
            untraced = statistics.median(r[pass_name]["wall_s"] for r in rounds)
            out[name] = traced[pass_name]["wall_s"] - untraced
        else:
            out[name] = traced[pass_name]["layers"].get(layer, 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="xDM simulator benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # running pass and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
