"""Toolkit for constrained vector polynomial optimization: tangency
certificates, asymptotic-condition evidence, and Pareto solving."""

from .asymptotics import (TraceRecord, TraceResult, Verdict, classify,
                          make_record, trace_from_points, trace_tangency)
from .certificates import (MfcqReport, MultiplierVector, RabierResult,
                           mfcq_probe, rabier_value, tangency_membership)
from .config import DEFAULT_CONFIG, RunConfig
from .pareto import (ArchiveEntry, SectionReport, classify_evidence,
                     existence_verdict, nondominated_filter, section_probe,
                     solve_front, solve_scalarized)
from .polynomials import Polynomial, parse
from .problem import (FeasibilityReport, Problem, check_feasible,
                      load_problem, problem_from_dict,
                      project_to_sphere_slice, sample_feasible_ray)

__all__ = [
    "ArchiveEntry", "DEFAULT_CONFIG", "FeasibilityReport", "MfcqReport",
    "MultiplierVector", "Polynomial", "Problem", "RabierResult", "RunConfig",
    "SectionReport", "TraceRecord", "TraceResult", "Verdict",
    "check_feasible", "classify", "classify_evidence", "existence_verdict",
    "load_problem", "make_record", "mfcq_probe", "nondominated_filter",
    "parse", "problem_from_dict", "project_to_sphere_slice", "rabier_value",
    "sample_feasible_ray", "section_probe", "solve_front",
    "solve_scalarized", "tangency_membership", "trace_from_points",
    "trace_tangency",
]

__version__ = "0.1.0"
