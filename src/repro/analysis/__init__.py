"""Analysis utilities: prediction error, band crossovers, extrapolation."""

from repro.analysis.errors import first_n_within, relative_error, within_fraction
from repro.analysis.crossover import (
    DEFAULT_BAND,
    band_crossover,
    band_crossover_from_predictions,
    crossovers_from_sweeps,
    interpolate_crossover,
)
from repro.analysis.extrapolate import n_min_per_proc, table4_rows

__all__ = [
    "relative_error",
    "within_fraction",
    "first_n_within",
    "DEFAULT_BAND",
    "band_crossover",
    "band_crossover_from_predictions",
    "crossovers_from_sweeps",
    "interpolate_crossover",
    "n_min_per_proc",
    "table4_rows",
]
