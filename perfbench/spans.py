"""Spans around the layer functions of becphase, recorded from outside the library.

`becphase.cli` imports its layer functions by name, so a wrapper has to
replace the attribute that a caller looks up at call time: the names in
`becphase.cli`, plus `kinematic_phase` in `becphase.geomphase`, which
`converge_phase` looks up there. Spans stay in memory with their op id and
parent and are reduced to per-op figures when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rho_counts(args, result) -> dict[str, int]:
    state0, times = args[0], args[1]
    points, dim = len(times), state0.n_max + 1
    complex_bytes = 16
    return {
        "points": points,
        "cells": points * 4 * dim,
        # Phase and evolved-amplitude arrays (M, 4, D) plus the output (M, 4, 4).
        "bytes_computed": complex_bytes * points * (2 * 4 * dim + 16),
    }


def _fock_counts(args, result) -> dict[str, int]:
    return {"fock_dim": result.n_max + 1}


# (module attribute, span name, counts taken from the call's arguments and result)
CLI_TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("parse_config", "cli.parse_config", None),
    ("bell_initial", "dynamics.initial_state", _fock_counts),
    ("macro_both_initial", "dynamics.initial_state", _fock_counts),
    ("macro_single_initial", "dynamics.initial_state", _fock_counts),
    ("general_initial", "dynamics.initial_state", _fock_counts),
    ("oracle_rho_path", "density.oracle_rho_path", _rho_counts),
    ("eigen_path", "density.eigen_path", lambda a, r: {"points": len(a[0])}),
    ("converge_phase", "geomphase.converge_phase", lambda a, r: {"final_n_steps": r.n_steps}),
    ("phase_micro_micro_closed", "geomphase.phase_micro_micro_closed", None),
    ("phase_trace", "geomphase.phase_trace", None),
    ("concurrence_wootters", "entanglement.concurrence_wootters", None),
    ("emit", "cli.emit", lambda a, r: {"bytes": len(r.encode())}),
)
GEOMPHASE_TARGETS = (
    ("kinematic_phase", "geomphase.kinematic_phase", lambda a, r: {"points": a[0].times.size}),
)


class Tracer:
    """Collects spans of the ops run inside `tracing`; one op at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_seconds: dict[int, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(self._op, name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, op: int, cli, geomphase):
        """Install the wrappers for one op and restore the originals afterwards."""
        saved = []
        for module, targets in ((cli, CLI_TARGETS), (geomphase, GEOMPHASE_TARGETS)):
            for attr, name, counts in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
        self._op = op
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self._op = -1

    def write(self, path) -> None:
        """One JSON line per span: op, name, parent index, start, end, error, counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.op, span.name, span.parent, span.start, span.end,
                                     span.error, span.counts]) + "\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per-op figures: `<span>.self_s`, `<span>.calls`, summed counts, and
        `cli.self_s`, the op time that no top-level span covers."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        out: dict[int, dict[str, float]] = {
            op: defaultdict(float, {"cli.self_s": seconds})
            for op, seconds in self.op_seconds.items()
        }
        for index, span in enumerate(self.spans):
            figures = out[span.op]
            kids = [self.spans[k] for k in children[index]]
            figures[f"{span.name}.self_s"] += span.seconds - sum(k.seconds for k in kids)
            figures[f"{span.name}.calls"] += 1
            if span.parent is None:
                figures["cli.self_s"] -= span.seconds
            for key, value in span.counts.items():
                if key == "fock_dim":
                    figures["dynamics.fock_dim"] = max(figures["dynamics.fock_dim"], value)
                else:
                    figures[f"{span.name}.{key}"] += value
            if span.name == "geomphase.converge_phase":
                levels = [k for k in kids if k.name == "geomphase.kinematic_phase"]
                figures[f"{span.name}.levels"] += len(levels)
                figures[f"{span.name}.grid_points"] += sum(k.counts["points"] for k in levels)
                figures[f"{span.name}.failed"] += span.error == "ConvergenceError"
        return out
