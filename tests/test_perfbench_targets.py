"""The benchmark tracer (perfbench/tracing.py) wraps ncyclo names from outside.

It finds each name with ``vars(owner)[attr]`` and reads some arguments by
position, so renaming, unbinding or reordering any of them breaks traced runs.
"""

import importlib.util
import inspect
from pathlib import Path

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

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


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
