#!/usr/bin/env python3
"""Benchmark of the ncyclo command line, end to end and layer by layer.

    python3 perfbench/run.py --workload orbit_definite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One single-threaded parent process runs a workload's invocations of
``python -m ncyclo.cli`` as child processes, one at a time (a closed loop
with one client), and repeats the whole pass as often as ``--seconds`` allow
on a quiet machine.  Every output is checked against an independent reference
(see checks.py).

``--trace 0`` prints the end-to-end metrics of a typical pass (each invocation
at the median of its repeats in the run, paced by reference children, see
``typical_pass``) and the median paced set-up time of several fresh
interpreters.  ``--trace 1`` runs the pass in this process three times (plain,
with spans around every layer as in tracing.py, plain again) and prints the
per-layer metrics.  The last line of
standard output is one JSON object; ``--workload all`` runs every workload in
both modes and first prints each metric by name with its unit.  Run files,
including the span dump, go to ``.perfbench_work/`` at the root of the
checkout.
"""

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Pin BLAS to one thread here and in every child, before numpy loads.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
os.environ.pop("NCYCLO_TOL", None)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMANDS = ("simulate", "decompose", "spectrum", "verify")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CALL_TIMEOUT_S = 150
# Deviations below this are float64 roundoff at these orbit sizes (|x| reaches
# 6e2); they are reported at the floor so reordered roundoff cannot read as a
# change in accuracy.
ORBIT_ERROR_FLOOR = 1e-12

SETUP_CODE = """
import sys
import ncyclo.cli
from ncyclo.config import RunConfig
for path in sys.argv[1:]:
    c = RunConfig.load(path)
    c.metric_tensor(), c.gamma_tensor(), c.field_tensor(), c.gauge_matrix(), c.constants()
    if c.initial is not None:
        c.initial_state()
"""
# The pacing reference: a fresh interpreter that imports numpy and runs a
# little Python, and nothing of ncyclo.  It runs right before each set-up probe
# and each invocation.
REFERENCE_CODE = "import numpy.linalg\ns = 0\nfor i in range(100000):\n    s += i * i"
# Paced times are stated for a machine on which the reference takes this long.
REFERENCE_NOMINAL_S = 0.2
IMPORT_PROBES = {
    "import.ncyclo_s": "import ncyclo",
    "import.scipy_linalg_s": "import scipy.linalg",
}
IMPORT_CODE = "import time, numpy\nt = time.perf_counter()\n{}\nprint(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "simulate_s": "s", "decompose_s": "s", "spectrum_s": "s",
    "verify_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
    "orbit_error": "desk_units", "success_rate": "ratio",
}


@dataclass
class Result:
    call: workloads.Call
    wall: float
    status: int
    rss_mb: float
    stdout: Path
    stderr: Path
    out: Path | None
    outcome: checks.Outcome | None = None
    # Wall time of the reference child run just before this call.
    reference: float | None = None

    @property
    def unexpected(self) -> bool:
        known = self.call.known_defect()
        return not self.outcome.ok and not (known and self.outcome.reason.startswith(known))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, cwd: Path) -> tuple[float, int, float]:
    """Run one child to completion: wall seconds, exit status, peak RSS in MB."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One workload's inputs and scratch files for one seed."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "out").mkdir(parents=True)
        self.configs, self.calls = workloads.build(workload, seed, ROOT / "configs")
        self.config_paths = {}
        for name, cfg in self.configs.items():
            path = self.dir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths[name] = path

    def argv(self, index: int, call: workloads.Call) -> tuple[list[str], Path | None]:
        argv = [call.command, "--config", str(self.config_paths[call.config])]
        out = None
        if call.command != "verify":
            ext = "csv" if call.command == "simulate" and call.fmt == "csv" else "json"
            out = self.dir / "out" / f"{index:03d}.{ext}"
            argv += ["--out", str(out)]
        if call.command == "simulate":
            argv += ["--format", call.fmt]
        if call.command == "spectrum":
            argv += ["--levels", str(workloads.LEVELS)]
        return argv, out

    def files(self, index: int) -> tuple[Path, Path]:
        return self.dir / "out" / f"{index:03d}.stdout", self.dir / "out" / f"{index:03d}.stderr"

    def check(self, results: list[Result]) -> None:
        """Judge every result, then drop the pass's output files."""
        for r in results:
            r.outcome = checks.check(r.call, self.configs[r.call.config], r.status,
                                     r.stdout, r.stderr, r.out)
        for path in (self.dir / "out").iterdir():
            path.unlink()

    def subprocess_pass(self) -> list[Result]:
        results = []
        for i, call in enumerate(self.calls):
            reference = run_reference(self.dir)
            argv, out = self.argv(i, call)
            stdout, stderr = self.files(i)
            wall, status, rss = spawn([sys.executable, "-m", "ncyclo.cli", *argv],
                                      stdout, stderr, self.dir)
            results.append(Result(call, wall, status, rss, stdout, stderr, out,
                                  reference=reference))
        return results

    def inprocess_pass(self, tracer: Tracer | None) -> tuple[float, list[Result], dict]:
        """Call ``ncyclo.cli.main`` directly; the pass wall is the sum of the calls."""
        from ncyclo import cli

        results, sizes = [], {"stdout": 0, "output": 0}
        for i, call in enumerate(self.calls):
            argv, out = self.argv(i, call)
            stdout, stderr = self.files(i)
            captured, errors = io.StringIO(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
                try:
                    status = (tracer.call("cli.main", cli.main, argv) if tracer
                              else cli.main(argv))
                except SystemExit as exc:
                    status = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught error: what the interpreter would print
                    traceback.print_exc()
                    status = 1
            wall = perf_counter() - start
            stdout.write_text(captured.getvalue())
            stderr.write_text(errors.getvalue())
            sizes["stdout"] += len(captured.getvalue().encode())
            if out is not None and out.exists():
                sizes["output"] += out.stat().st_size
            results.append(Result(call, wall, status, 0.0, stdout, stderr, out))
        return sum(r.wall for r in results), results, sizes


def run_reference(cwd: Path) -> float:
    """Wall time of one pacing reference child."""
    [(wall, _)] = probe([sys.executable, "-c", REFERENCE_CODE], cwd, 1)
    return wall


def probe(argv: list[str], cwd: Path, repeats: int) -> list[tuple[float, str]]:
    """Run a helper child ``repeats`` times: each run's wall time and printed output."""
    runs = []
    for _ in range(repeats):
        wall, status, _ = spawn(argv, cwd / "probe.stdout", cwd / "probe.stderr", cwd)
        if status != 0:
            raise RuntimeError(f"probe failed: {(cwd / 'probe.stderr').read_text()}")
        runs.append((wall, (cwd / "probe.stdout").read_text()))
    return runs


def typical_pass(results: list[Result], passes: int, run_reference_s: float) -> dict:
    """End-to-end metrics of a typical pass, in paced seconds.

    Other tenants change the speed of the whole machine, in swings of a second
    and in phases of minutes, by up to 2x from one run to the next.  A fresh
    interpreter importing numpy (the reference) speeds up and slows down with
    them, so every call is paced: its wall time is divided by a reference time,
    times ``REFERENCE_NOMINAL_S``.  A sub-second call follows the swings of
    the reference child run just before it, and is divided by that one.  A
    1e5-step simulate run lasts seconds and averages over the swings, so it is
    divided by ``run_reference_s``, the median of every reference in the run.

    Each distinct invocation counts at the median of its paced times over all
    its repeats in the run, within and across passes.  ``wall_s`` is the sum
    of the per-command times.
    """
    by_label: dict[str, list[Result]] = {}
    for r in results:
        by_label.setdefault(r.call.label, []).append(r)
    metrics = {"wall_s": 0.0, **{f"{name}_s": 0.0 for name in COMMANDS}}
    for repeats in by_label.values():
        call = repeats[0].call
        seconds = REFERENCE_NOMINAL_S * statistics.median(
            r.wall / (run_reference_s if call.long else r.reference) for r in repeats)
        share = len(repeats) / passes
        metrics["wall_s"] += seconds * share
        metrics[f"{call.command}_s"] += seconds * share
    samples = sum(r.outcome.samples for r in results) / passes
    metrics["samples_per_s"] = samples / metrics["simulate_s"]
    metrics["peak_rss_mb"] = max(r.rss_mb for r in results)
    metrics["orbit_error"] = max([ORBIT_ERROR_FLOOR] + [r.outcome.orbit_error for r in results
                                                        if r.outcome.orbit_error is not None])
    metrics["success_rate"] = sum(r.outcome.ok for r in results) / len(results)
    return metrics


# Per-layer metric -> (span name, field of that name's totals in Tracer.layer_totals).
LAYER_METRICS = {
    "config.load_s": ("config.load", "s"),
    "config.materialize_s": ("config.materialize", "s"),
    "tensors.radiation_check_s": ("tensors.radiation_check", "s"),
    "tensors.radiation_check_calls": ("tensors.radiation_check", "calls"),
    "canonical.decompose_s": ("canonical.decompose", "s"),
    "canonical.decompose_calls": ("canonical.decompose", "calls"),
    "canonical.decompose_max_n": ("canonical.decompose", "n_max"),
    "canonical.residuals_s": ("canonical.residuals", "s"),
    "canonical.to_canonical_calls": ("canonical.to_canonical", "calls"),
    "operators.build_s": ("operators.build", "s"),
    "operators.commutator_s": ("operators.commutator", "s"),
    "operators.commutator_calls": ("operators.commutator", "calls"),
    "dynamics.propagate_s": ("dynamics.propagate", "s"),
    "dynamics.steps": ("dynamics.propagate", "steps"),
    "dynamics.states_built": ("dynamics.state", "calls"),
    "dynamics.orbit_split_s": ("dynamics.orbit_split", "s"),
    "dynamics.orbit_split_calls": ("dynamics.orbit_split", "calls"),
    "dynamics.invariants_s": ("dynamics.invariants", "s"),
    "dynamics.invariants_calls": ("dynamics.invariants", "calls"),
    "dynamics.csv_s": ("dynamics.csv", "s"),
    "dynamics.csv_rows": ("dynamics.csv", "rows"),
    "dynamics.csv_bytes": ("dynamics.csv", "bytes"),
    "spectrum.classify_s": ("spectrum.classify", "s"),
    "spectrum.levels_s": ("spectrum.levels", "s"),
    "spectrum.levels_listed": ("spectrum.levels", "listed"),
}


def layer_metrics(tracer: Tracer, sizes: dict, overhead: float, imports: dict) -> dict:
    totals = tracer.layer_totals()
    metrics = dict(imports)
    for metric, (span, field) in LAYER_METRICS.items():
        metrics[metric] = totals.get(span, {}).get(field, 0)
    metrics["cli.self_s"] = tracer.self_time("cli.main")
    metrics["cli.stdout_bytes"] = sizes["stdout"]
    metrics["cli.output_bytes"] = sizes["output"]
    metrics["trace.overhead_s"] = overhead
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "n" if name.endswith("_n") else "count"


def machine_note(seed: int) -> dict:
    l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "l3": l3,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas_threads": BLAS_THREADS, "seed": seed,
    }


def describe(results: list[Result]) -> list[list]:
    return [[r.call.label, round(r.wall, 4), r.reference and round(r.reference, 4), r.status,
             round(r.rss_mb, 1), r.outcome.ok, r.outcome.reason] for r in results]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, list[Result]]:
    """Median paced set-up time, then the passes that fit in ``seconds`` on a quiet machine."""
    setup_walls, setup_references = [], []
    for _ in range(SETUP_REPEATS):
        setup_references.append(run_reference(run.dir))
        [(wall, _)] = probe([sys.executable, "-c", SETUP_CODE,
                             *map(str, run.config_paths.values())], run.dir, 1)
        setup_walls.append(wall)
    passes, all_results = [], []
    for _ in range(max(1, round(seconds / workloads.PASS_SECONDS[run.workload]))):
        results = run.subprocess_pass()
        run.check(results)
        all_results += results
        passes.append(describe(results))
    references = setup_references + [r.reference for r in all_results]
    metrics = typical_pass(all_results, len(passes), statistics.median(references))
    metrics["setup_s"] = statistics.median(
        wall * REFERENCE_NOMINAL_S / ref for wall, ref in zip(setup_walls, setup_references))
    detail = {"setup_walls": setup_walls, "setup_references": setup_references,
              "passes": passes}
    return metrics, detail, all_results


def per_layer(run: Run) -> tuple[dict, dict, list[Result]]:
    """Import probes, then in-process passes: plain, traced, plain."""
    imports = {name: statistics.median(float(out) for _, out in probe(
                   [sys.executable, "-c", IMPORT_CODE.format(stmt)], run.dir, IMPORT_REPEATS))
               for name, stmt in IMPORT_PROBES.items()}
    sys.path.insert(0, str(SRC))
    all_results: list[Result] = []

    def plain_pass() -> float:
        wall, results, _ = run.inprocess_pass(None)
        run.check(results)
        all_results.extend(results)
        return wall

    # Plain passes before and after the traced one, so that first-call
    # warm-up does not land on one side of the overhead.
    before = plain_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced, sizes = run.inprocess_pass(tracer)
    finally:
        tracer.uninstall()
    run.check(traced)
    all_results += traced
    plain_walls = [before, plain_pass()]
    overhead = traced_wall - statistics.mean(plain_walls)
    (run.dir / "spans.json").write_text(json.dumps([s.record() for s in tracer.spans]))
    detail = {"plain_walls": plain_walls, "traced_wall": traced_wall, "traced": describe(traced)}
    return layer_metrics(tracer, sizes, overhead, imports), detail, all_results


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workload, seed, trace)
    metrics, detail, results = per_layer(run) if trace else end_to_end(run, seconds)
    failures = sorted({(r.call.label, r.outcome.reason) for r in results if not r.outcome.ok})
    report = {
        "correct": not any(r.unexpected for r in results),
        "attempted": len(results),
        "failed": sum(not r.outcome.ok for r in results),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    (run.dir / "result.json").write_text(json.dumps(
        {"workload": workload, "trace": trace, "seconds": seconds,
         "machine": machine_note(seed), "failures": failures, "report": report, **detail},
        indent=1))
    for label, reason in failures:
        print(f"{workload}: {label} failed: {reason}", file=sys.stderr)
    return report


def run_all(seed: int, seconds: float) -> dict:
    """Each workload in both modes, each in a fresh benchmark process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.Popen(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            try:
                stdout, _ = proc.communicate()
            except BaseException:
                proc.terminate()
                proc.wait()
                raise
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}")
            report = json.loads(stdout.strip().splitlines()[-1])
            combined["correct"] &= report["correct"]
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            for name, metric in report["metrics"].items():
                print(f"{workload:17s} {name:32s} {metric['value']:<14.6g} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds through spawn(), which kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for needed in (SRC / "ncyclo" / "cli.py", ROOT / "configs"):
        if not needed.exists():
            print(f"perfbench: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        report = run_all(args.seed, args.seconds)
    else:
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
