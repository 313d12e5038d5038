"""In-process traced run: spans around the calls into each ncyclo layer.

The tracer wraps, from outside the package, the public names that
``ncyclo.cli`` and ``ncyclo.dynamics`` call, and restores them afterwards.
Each wrapper records a span (name, start, end, parent).  Names called once per
trajectory sample or per matrix entry are marked ``merge``: their consecutive
calls under one parent share one span that counts calls and busy time, so a
1e5-step run keeps a handful of records instead of 1e5.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import os
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "calls", "busy", "info", "last")

    def __init__(self, id_, name, parent, start):
        self.id, self.name, self.parent, self.start = id_, name, parent, start
        self.end, self.calls, self.busy, self.info, self.last = start, 0, 0.0, {}, None

    def record(self) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": None if self.parent is None else self.parent.id,
                "start": self.start, "end": self.end, "calls": self.calls,
                "busy": self.busy, **self.info}


def _accumulate(info: dict, key: str, value) -> None:
    """Add ``value`` into ``info[key]``; keys ending in ``_max`` keep the maximum."""
    old = info.get(key, 0)
    info[key] = max(old, value) if key.endswith("_max") else old + value


def _steps(args, kwargs, result):
    return {"steps": kwargs.get("steps", args[5] if len(args) > 5 else 0)}


def _csv(args, kwargs, result):
    stream = args[4] if len(args) > 4 else kwargs["stream"]
    stream.flush()
    return {"rows": len(args[0]), "bytes": os.fstat(stream.fileno()).st_size}


def targets():
    """(owner, attribute, span name, merge, info hook) for every wrapped name."""
    from ncyclo import cli, config, dynamics
    from ncyclo.config import RunConfig

    materialize = ("metric_tensor", "gamma_tensor", "field_tensor", "gauge_matrix",
                   "constants", "initial_state")
    return [
        (RunConfig, "load", "config.load", False, None),
        *[(RunConfig, name, "config.materialize", False, None) for name in materialize],
        (cli, "check_radiation_gauge", "tensors.radiation_check", False, None),
        (cli, "decompose", "canonical.decompose", False,
         lambda a, kw, r: {"n_max": a[0].n}),
        *[(cli, name, "canonical.residuals", False, None)
          for name in ("orthonormality_residual", "reconstruction_residual",
                       "metric_singular_columns")],
        (dynamics, "to_canonical", "canonical.to_canonical", True, None),
        (cli, "canonical_momentum", "operators.build", True, None),
        (cli, "dual_momentum", "operators.build", True, None),
        (cli, "commutator", "operators.commutator", True, None),
        (cli, "evolve_exact_trajectory", "dynamics.propagate", False, _steps),
        (cli, "evolve_rk4", "dynamics.propagate", False, _steps),
        (dynamics, "ParticleState", "dynamics.state", True, None),
        (config, "ParticleState", "dynamics.state", True, None),
        (cli, "orbit_decomposition", "dynamics.orbit_split", True, None),
        *[(owner, name, "dynamics.invariants", True, None)
          for owner in (cli, dynamics) for name in ("dual_momentum_value", "kinetic_energy")],
        (cli, "write_trajectory_csv", "dynamics.csv", False, _csv),
        (cli, "classify_spectrum", "spectrum.classify", False, None),
        (cli, "cyclotron_frequencies", "spectrum.classify", False, None),
        (cli, "level_listing", "spectrum.levels", False,
         lambda a, kw, r: {"listed": len(r)}),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, merge: bool) -> Span:
        parent = self.stack[-1] if self.stack else None
        last = parent.last if parent is not None else None
        if merge and last is not None and last.name == name:
            span = last
        else:
            span = Span(len(self.spans), name, parent, perf_counter())
            self.spans.append(span)
            if parent is not None:
                parent.last = span
        self.stack.append(span)
        return span

    def _close(self, span: Span, started: float) -> None:
        span.end = perf_counter()
        span.calls += 1
        span.busy += span.end - started
        self.stack.pop()

    def call(self, name: str, fn, *args, merge=False, hook=None, **kwargs):
        span = self._open(name, merge)
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span, started)
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                _accumulate(span.info, key, value)
        return result

    def install(self) -> None:
        for owner, attr, name, merge, hook in targets():
            raw = vars(owner)[attr]
            original = getattr(owner, attr)

            def wrapper(*args, _fn=original, _name=name, _merge=merge, _hook=hook, **kwargs):
                return self.call(_name, _fn, *args, merge=_merge, hook=_hook, **kwargs)

            # A classmethod is fetched bound, so its wrapper must not bind again.
            if isinstance(raw, classmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: busy time (outermost spans only), calls and info sums."""
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"s": 0.0, "calls": 0})
            entry["calls"] += span.calls
            ancestor = span.parent
            while ancestor is not None and ancestor.name != span.name:
                ancestor = ancestor.parent
            if ancestor is None:
                entry["s"] += span.busy
            for key, value in span.info.items():
                _accumulate(entry, key, value)
        return totals

    def self_time(self, name: str) -> float:
        """Busy time of the named spans minus the busy time of their children."""
        child_busy: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent.id] = child_busy.get(span.parent.id, 0.0) + span.busy
        return sum(span.busy - child_busy.get(span.id, 0.0)
                   for span in self.spans if span.name == name)
