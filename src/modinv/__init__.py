"""Exact degreewise verification for invariant rings of cyclic prime-order
groups in modular characteristic, with bounded depth/grade evidence and
two-variable monomial algebra examples."""

import os

# OpenBLAS fixes its threads as numpy loads, so load numpy here, on one thread: a worker only spins.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .depthlab import (DEFAULT_MAX_DEGREE, BoundTooSmallError, DepthEvidence,
                       DepthInstance, GradedModuleView, RegSeqCert, ZeroModuleError,
                       bounded_depth, bounded_grade, canonical_sequence,
                       depth_inequality_audit, depth_report, expected_depth,
                       norm_reduction_check, ring_module, socle_search,
                       transfer_ideal_module, transfer_quotient_check,
                       transfer_quotient_module, verify_regular_sequence)
from .invariants import (dimension_growth_check, finite_difference, ideal_slice,
                         invariant_slice, transfer_slice)
from .monoalg import (FreeDecomp, MonoAlgebra, MonoPreset, PRESETS,
                      hilbert_enumeration_check, non_factorial_witness, run_preset,
                      verify_free_decomp, verify_height_witness)
from .poly import Poly, PolyParseError, parse, render
from .rep import (CpRep, DecompResult, TrivialSummandError, is_invariant, norm,
                  norm_decompose, sigma, top_norms)
from .report import CheckReport, dumps_report

__version__ = "0.1.0"

__all__ = [
    "BoundTooSmallError", "CheckReport", "CpRep", "DecompResult",
    "DEFAULT_MAX_DEGREE", "DepthEvidence", "DepthInstance", "FreeDecomp",
    "GradedModuleView", "MonoAlgebra", "MonoPreset", "PRESETS",
    "Poly", "PolyParseError", "RegSeqCert", "TrivialSummandError",
    "ZeroModuleError", "bounded_depth", "bounded_grade", "canonical_sequence",
    "depth_inequality_audit", "depth_report", "dimension_growth_check",
    "dumps_report", "expected_depth", "finite_difference",
    "hilbert_enumeration_check", "ideal_slice", "invariant_slice",
    "is_invariant", "non_factorial_witness", "norm", "norm_decompose",
    "norm_reduction_check", "parse", "render", "ring_module", "run_preset",
    "sigma", "socle_search", "top_norms", "transfer_ideal_module",
    "transfer_quotient_check", "transfer_quotient_module", "transfer_slice",
    "verify_free_decomp", "verify_height_witness", "verify_regular_sequence",
]
