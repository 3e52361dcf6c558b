"""Out-of-process tracer: wraps the layer boundaries of xvaband from outside.

Each wrapped function records a span (name, start, end, parent span,
valuation id) in flat in-memory arrays; ``write`` saves them when the run
ends, and ``layer_metrics`` derives the per-layer numbers from them.  Self
time is a span's duration minus the durations of its direct children.  The
benchmark's own pauses (calibration blocks run on a timer, which may land
inside any span) are taken out of the durations of the spans they fall in.

The wrapped names are the functions one module calls in another, so each
span marks a layer boundary.  Calls a wrapped function makes to itself (the
buyer side of a driver re-enters the seller kernel) are not recorded again.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from xvaband import claims, cli, drivers, lattice, market, pde

# (owner, attribute, span name); span names are <layer>.<function>
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "evaluate_point", "cli.evaluate_point"),
    (pde.PdeGrid, "default_for", "pde.default_for"),
    (pde, "solve", "pde.solve"),
    (pde, "solve_banded", "pde.banded_solve"),
    (pde, "xva_at", "pde.xva_at"),
    (pde, "strategies", "pde.strategies"),
    (lattice, "solve_reduced", "lattice.solve_reduced"),
    (drivers, "reduced_drift", "drivers.reduced_drift"),
    (drivers, "reduced_lipschitz_bound", "drivers.reduced_lipschitz_bound"),
    (drivers, "build_strategy", "drivers.build_strategy"),
    (claims, "agent_value", "claims.agent_value"),
    (claims, "agent_value_grid", "claims.agent_value_grid"),
    (market.MarketModel, "default_intensity", "market.default_intensity"),
    (market.MarketModel, "validate_necessary", "market.validate_necessary"),
    (market.MarketModel, "bond_price", "market.bond_price"),
)
SOLVES = ("pde.solve", "lattice.solve_reduced")

# metric name -> unit; "/val" is per attempted valuation
PER_LAYER = {
    "cli.evaluate_point.calls": "count/val",
    "cli.self_s": "s/val",
    "pde.solve.calls": "count/val",
    "pde.solve.self_s": "s/val",
    "pde.solve.errors": "count/val",
    "pde.banded_solve.calls": "count/val",
    "pde.banded_solve.s": "s/val",
    "pde.banded_solve.us_per_column": "us",
    "pde.picard_iters_per_step.mean": "count",
    "pde.picard_iters_per_step.max": "count",
    "pde.strategies.s": "s/val",
    "pde.surface_mb": "MB",
    "drivers.reduced_drift.calls": "count/val",
    "drivers.reduced_drift.s": "s/val",
    "drivers.reduced_drift.nodes": "count/val",
    "drivers.reduced_drift.ns_per_node": "ns",
    "claims.agent_value_grid.calls": "count/val",
    "claims.agent_value_grid.s": "s/val",
    "claims.agent_value_grid.repeat_ratio": "ratio",
    "claims.agent_value.calls": "count/val",
    "claims.agent_value.s": "s/val",
    "lattice.solve_reduced.calls": "count/val",
    "lattice.solve_reduced.self_s": "s/val",
    "lattice.solve_reduced.errors": "count/val",
    "lattice.node_steps": "count",
    "lattice.fixed_point_iters_per_level": "count",
    "market.default_intensity.calls": "count/val",
    "market.s": "s/val",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Install with ``with Tracer() as tr:``; the originals are restored on exit."""

    def __init__(self):
        self.boundaries = BOUNDARIES
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.vid = array("q")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()  # work counted at the boundaries
        self.picard: list[np.ndarray] = []
        self.surface_mb: list[float] = []
        self._stack: list[int] = []
        self._solve: list[set] = []  # (t, nodes) keys seen per open solve
        self._valuation = -1
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner, attr, span_name in self.boundaries:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(raw.__func__, span_name)))
            else:
                setattr(owner, attr, self._wrap(raw, span_name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        before = getattr(self, "_before_" + span_name.replace(".", "_"), None)
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)
        is_solve = span_name in SOLVES
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)  # re-entry: counted once
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.vid.append(self._valuation)
            self.end.append(0.0)
            stack.append(idx)
            if is_solve:
                self._solve.append(set())
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[span_name] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if is_solve:
                    self._solve.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counts taken at the boundaries ------------------------------------

    def _before_cli_evaluate_point(self, args, kwargs):
        self._valuation += 1

    def _before_pde_banded_solve(self, args, kwargs):
        rhs = args[2] if len(args) > 2 else kwargs["b"]
        self.counts["banded_columns"] += 1 if np.ndim(rhs) == 1 else rhs.shape[1]

    def _before_drivers_reduced_drift(self, args, kwargs):
        nodes = np.size(args[3] if len(args) > 3 else kwargs["u"])
        self.counts["drift_nodes"] += nodes
        if self._in_lattice():
            self.counts["lattice_drift_calls"] += 1
            self.counts["lattice_drift_nodes"] += nodes

    def _before_lattice_solve_reduced(self, args, kwargs):
        self.counts["lattice_levels"] += args[2] if len(args) > 2 else kwargs["n_steps"]

    def _before_claims_agent_value_grid(self, args, kwargs):
        if not self._solve:
            return
        t, s = args[2], np.asarray(args[3])
        key = (float(t), hash(s.tobytes()))
        seen = self._solve[-1]
        self.counts["grid_calls_in_solve"] += 1
        if key in seen:
            self.counts["grid_repeats"] += 1
        seen.add(key)

    def _after_pde_solve(self, args, kwargs, sol):
        self.picard.append(np.asarray(sol.picard_iterations))
        nbytes = sol.agent.nbytes + sol.seller.nbytes + sol.buyer.nbytes
        self.surface_mb.append(nbytes / 1e6)

    def _in_lattice(self) -> bool:
        lid = self.names.index("lattice.solve_reduced")
        return any(self.name[i] == lid for i in self._stack)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "valuation": np.frombuffer(self.vid, dtype=np.int64)}

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, valuations: int, overhead_ratio: float,
                      pauses: list[tuple[float, float]] = ()) -> dict:
        """Per-layer numbers; ``pauses`` are sorted, disjoint (start, end) intervals
        of benchmark work during the traced run, excluded from every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        if len(pauses):
            p = np.asarray(pauses, dtype=float)
            paused = np.concatenate([[0.0], np.cumsum(p[:, 1] - p[:, 0])])
            first = np.searchsorted(p[:, 0], a["start"], side="left")
            last = np.searchsorted(p[:, 1], a["end"], side="right")
            dur -= np.where(last > first, paused[last] - paused[first], 0.0)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        name = a["name"]

        def where(span_name):
            return name == self.names.index(span_name)

        def calls(span_name):
            return int(where(span_name).sum())

        def total(span_name, values=dur):
            return float(values[where(span_name)].sum())

        def layer_self(layer):
            ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            return float(self_time[np.isin(name, ids)].sum())

        n = max(valuations, 1)
        picard = np.concatenate(self.picard) if self.picard else np.zeros(1)
        columns = self.counts["banded_columns"]
        nodes = self.counts["drift_nodes"]
        levels = self.counts["lattice_levels"]
        lattice_solves = calls("lattice.solve_reduced")
        grid_calls = self.counts["grid_calls_in_solve"]
        m = {
            "cli.evaluate_point.calls": calls("cli.evaluate_point") / n,
            "cli.self_s": layer_self("cli") / n,
            "pde.solve.calls": calls("pde.solve") / n,
            "pde.solve.self_s": total("pde.solve", self_time) / n,
            "pde.solve.errors": self.errors["pde.solve"] / n,
            "pde.banded_solve.calls": calls("pde.banded_solve") / n,
            "pde.banded_solve.s": total("pde.banded_solve") / n,
            "pde.banded_solve.us_per_column":
                1e6 * total("pde.banded_solve") / max(columns, 1),
            "pde.picard_iters_per_step.mean": float(picard.mean()),
            "pde.picard_iters_per_step.max": float(picard.max()),
            "pde.strategies.s": total("pde.strategies") / n,
            "pde.surface_mb": float(np.mean(self.surface_mb)) if self.surface_mb else 0.0,
            "drivers.reduced_drift.calls": calls("drivers.reduced_drift") / n,
            "drivers.reduced_drift.s": total("drivers.reduced_drift") / n,
            "drivers.reduced_drift.nodes": nodes / n,
            "drivers.reduced_drift.ns_per_node":
                1e9 * total("drivers.reduced_drift") / max(nodes, 1),
            "claims.agent_value_grid.calls": calls("claims.agent_value_grid") / n,
            "claims.agent_value_grid.s": total("claims.agent_value_grid") / n,
            "claims.agent_value_grid.repeat_ratio":
                self.counts["grid_repeats"] / max(grid_calls, 1),
            "claims.agent_value.calls": calls("claims.agent_value") / n,
            "claims.agent_value.s": total("claims.agent_value") / n,
            "lattice.solve_reduced.calls": lattice_solves / n,
            "lattice.solve_reduced.self_s": total("lattice.solve_reduced", self_time) / n,
            "lattice.solve_reduced.errors": self.errors["lattice.solve_reduced"] / n,
            "lattice.node_steps": self.counts["lattice_drift_nodes"] / max(lattice_solves, 1),
            "lattice.fixed_point_iters_per_level":
                self.counts["lattice_drift_calls"] / max(levels, 1),
            "market.default_intensity.calls": calls("market.default_intensity") / n,
            "market.s": layer_self("market") / n,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}
