"""The benchmark (perfbench/) calls ncyclo names from outside.

The tracer finds each name with ``vars(owner)[attr]`` and reads some arguments
by position, so renaming, unbinding or reordering any of them breaks traced
runs; the set-up probe of perfbench/run.py calls every ``RunConfig`` accessor.
The benchmark's own checks (perfbench/checks.py) run here on every call of
its three workloads at seed 1, with orbits cut short, so a change that breaks
their tolerances fails the tests, not only a benchmark run.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncyclo import (
    FieldTensor,
    MetricTensor,
    ParticleState,
    PhysicalConstants,
    dynamics_matrix,
    evolve_exact_trajectory,
    evolve_rk4,
    write_trajectory_csv,
)
from ncyclo.cli import main

_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    """Import ``perfbench/<name>.py``, whose own imports resolve in perfbench/.

    Registered in ``sys.modules`` first, as its dataclasses need.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(_ROOT / "perfbench"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_ROOT / "perfbench"))
    return module


tracing = _load("tracing")
checks = _load("checks")
workloads = _load("workloads")


def test_every_traced_name_is_bound():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.targets() if attr not in vars(owner)]
    assert not missing


def test_steps_is_the_sixth_positional_argument():
    for evolve in (evolve_exact_trajectory, evolve_rk4):
        assert list(inspect.signature(evolve).parameters).index("steps") == 5


def test_csv_hook_counts_rows_of_the_written_file(tmp_path):
    h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
    metric = MetricTensor.euclidean(2)
    constants = PhysicalConstants()
    k = dynamics_matrix(h, metric, constants)
    trajectory = evolve_exact_trajectory(ParticleState([0.0, 0.0], [1.0, 0.0]),
                                         k, metric, constants, 0.1, 9)
    path = tmp_path / "traj.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        args = (trajectory, h, metric, constants, fh)
        write_trajectory_csv(*args)
        info = tracing._csv(args, {}, None)
    assert info == {"rows": 10, "bytes": path.stat().st_size}
    assert len(path.read_text().splitlines()) == 1 + info["rows"]


def test_setup_probe_runs_on_the_samples():
    # Read without importing: importing perfbench/run.py changes the environment.
    tree = ast.parse((_ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [code] = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    samples = sorted(str(path) for path in (_ROOT / "configs").glob("*.json"))
    assert len(samples) == 4
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *samples], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_benchmark_orbit_check_passes(method, tmp_path, capsys):
    cfg = json.loads((_ROOT / "configs" / "uniform3d.json").read_text(encoding="utf-8"))
    cfg["integration"].update(steps=5000, method=method)
    config, out = tmp_path / "run.json", tmp_path / "trajectory.csv"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    outcome = checks.check_simulate(cfg, capsys.readouterr().out, out, "csv")
    assert outcome.ok and outcome.samples == 5001


def _check_call(call, cfg, tmp_path, capsys):
    """Run ``call`` on ``cfg`` through ``main``, with the options the benchmark
    passes, and judge it with the benchmark's own check."""
    config, out = tmp_path / "run.json", tmp_path / "out"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [call.command, "--config", str(config)]
    argv += [] if call.command == "verify" else ["--out", str(out)]
    argv += {"simulate": ["--format", call.fmt],
             "spectrum": ["--levels", str(workloads.LEVELS)]}.get(call.command, [])
    status = main(argv)
    captured = capsys.readouterr()
    stdout, stderr = tmp_path / "stdout", tmp_path / "stderr"
    stdout.write_text(captured.out, encoding="utf-8")
    stderr.write_text(captured.err, encoding="utf-8")
    return checks.check(call, cfg, status, stdout, stderr, out)


@pytest.mark.parametrize("name, steps", [("spatial4-1e5", 20_000), ("boost4-1e5", None)])
def test_benchmark_indefinite_orbits_pass_its_check(name, steps, tmp_path, capsys):
    # The bounded orbit is cut short for test time; the boost runs its full
    # length, since its refusal comes only at step 35749, in the 35th of its blocks.
    configs, calls = workloads.build("orbit_indefinite", 1, _ROOT / "configs")
    [call] = [c for c in calls if c.command == "simulate" and c.config == name]
    cfg = configs[name]
    if steps is not None:
        cfg["integration"]["steps"] = steps
    outcome = _check_call(call, cfg, tmp_path, capsys)
    assert outcome.ok, outcome.reason
    assert call.refuse == (steps is None)


@pytest.mark.parametrize("command, name", [("spectrum", "generic256"), ("spectrum", "integer256"),
                                           ("decompose", "integer256")])
def test_benchmark_widest_fields_pass_its_check(command, name, tmp_path, capsys):
    # The widest fields of the benchmark, with as many levels as it lists.
    configs, calls = workloads.build("wide_field", 1, _ROOT / "configs")
    [call] = [c for c in calls if c.command == command and c.config == name]
    outcome = _check_call(call, configs[name], tmp_path, capsys)
    assert outcome.ok, outcome.reason


def _seed_calls():
    """Each distinct call of every workload at seed 1, with its config."""
    params = []
    for workload in workloads.WORKLOADS:
        configs, calls = workloads.build(workload, 1, _ROOT / "configs")
        params += [pytest.param(call, configs[call.config], id=f"{workload}-{call.label}")
                   for call in dict.fromkeys(calls)]
    return params


@pytest.mark.parametrize("call, cfg", _seed_calls())
def test_every_seed_call_passes_its_check(call, cfg, tmp_path, capsys):
    # Every call the benchmark makes at seed 1, so a change that would lower
    # its success rate fails here.  Orbits are cut to 3000 steps for test time;
    # a refused orbit runs its full length, as its refusal may come late.
    cfg = json.loads(json.dumps(cfg))
    if "integration" in cfg and not call.refuse:
        cfg["integration"]["steps"] = min(cfg["integration"]["steps"], 3000)
    outcome = _check_call(call, cfg, tmp_path, capsys)
    assert outcome.ok, outcome.reason
