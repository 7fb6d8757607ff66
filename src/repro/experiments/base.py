"""Shared experiment plumbing: repetition, aggregation, rendering.

Section 3.1.1: "For all experiments, we ran each experiment 10 times
and report the average.  The standard deviation is less than 11% of
the average for all of the sample sort runs, and less than 2% for all
but the smallest problem sizes for the parallel prefix and list rank
runs."  :func:`repeat_seeds` and :func:`mean_std` implement that
discipline; every experiment reports both mean and the std/mean ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.executor import is_failed
from repro.util.tables import format_series, format_table

#: Repetitions per data point, matching §3.1.1.
FULL_REPS = 10
FAST_REPS = 3


@dataclass
class ExperimentResult:
    """Rendered output plus raw data for one table/figure."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view: id, title, and the plottable data
        (non-serialisable internals like sweep objects are dropped)."""
        clean: Dict[str, Any] = {}
        for key, value in self.data.items():
            coerced = _json_coerce(value)
            if coerced is not _SKIP:
                clean[key] = coerced
        return {"id": self.exp_id, "title": self.title, "data": clean}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


_SKIP = object()


def _json_coerce(value: Any) -> Any:
    """Best-effort conversion to JSON-friendly types; _SKIP if impossible."""
    import numpy as _np

    if isinstance(value, float):
        # JSON has no NaN/Inf; failed points aggregate to NaN, which
        # serialises as null so downstream plotters see a gap, not junk.
        return value if np.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (_np.integer,)):
        return int(value)
    if isinstance(value, (_np.floating,)):
        return _json_coerce(float(value))
    if isinstance(value, _np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        out = [_json_coerce(v) for v in value]
        return _SKIP if any(v is _SKIP for v in out) else out
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            cv = _json_coerce(v)
            if cv is _SKIP:
                return _SKIP
            out[str(k)] = cv
        return out
    return _SKIP


def repeat_seeds(fn: Callable[[int], float], reps: int, seed0: int = 0) -> List[float]:
    """Run *fn(seed)* for ``reps`` distinct seeds; returns the values."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return [float(fn(seed0 + 1000 * r)) for r in range(reps)]


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("mean_std of empty sequence")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def drop_failed(values: Sequence[Any]) -> List[Any]:
    """Strip :class:`~repro.experiments.executor.FailedPoint` markers from
    one rep group (the resilient executor's stand-ins for poisoned points)."""
    return [v for v in values if not is_failed(v)]


def mean_std_robust(values: Sequence[Any]) -> Tuple[float, float]:
    """:func:`mean_std` over the non-failed values; ``(nan, nan)`` when
    every rep of the point failed (the point renders as a gap)."""
    ok = drop_failed(values)
    if not ok:
        return float("nan"), float("nan")
    return mean_std(ok)


def reps_for(fast: bool) -> int:
    return FAST_REPS if fast else FULL_REPS


def render_series(exp_id: str, title: str, x_name: str, x_values, series) -> ExperimentResult:
    """Convenience constructor for figure-style (x vs. lines) results."""
    text = format_series(x_name, x_values, series)
    data = {"x_name": x_name, "x": list(x_values), **{k: list(v) for k, v in series.items()}}
    return ExperimentResult(exp_id=exp_id, title=title, text=text, data=data)


def render_table(exp_id: str, title: str, headers, rows) -> ExperimentResult:
    text = format_table(headers, rows)
    return ExperimentResult(
        exp_id=exp_id, title=title, text=text, data={"headers": list(headers), "rows": rows}
    )
