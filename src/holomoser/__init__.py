"""Numerical certification of Moser isotopies on holomorphic coadjoint orbits."""

from .algebra import MatrixLieAlgebra, build_algebra
from .pipeline import (
    ChamberError,
    DeltaError,
    inspect_model,
    run_lemma_suite,
    run_theorem_pipeline,
)
from .report import Scenario, load_scenario, render_report, scenario_from_config

__all__ = [
    "ChamberError",
    "DeltaError",
    "MatrixLieAlgebra",
    "Scenario",
    "build_algebra",
    "inspect_model",
    "load_scenario",
    "render_report",
    "run_lemma_suite",
    "run_theorem_pipeline",
    "scenario_from_config",
]
