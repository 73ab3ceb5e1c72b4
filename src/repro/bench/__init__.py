"""Benchmark harness: experiment registry, workload cache, reporting."""

from .experiments import EXPERIMENT_ORDER, EXPERIMENTS, resolve_experiments, run_experiment
from .harness import amdahl_fit, resolution, standard_field, standard_sensor, standard_workload
from .report import Table, ascii_series, format_value

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_ORDER",
    "resolve_experiments",
    "run_experiment",
    "Table",
    "ascii_series",
    "format_value",
    "standard_sensor",
    "standard_field",
    "standard_workload",
    "resolution",
    "amdahl_fit",
]
