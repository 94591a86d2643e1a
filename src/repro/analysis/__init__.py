"""Static loop-carried dependence analysis over the microJIT's IR.

Jrpm picks speculative loops purely from dynamic TEST profiles; this
package adds the static half of that synergy.  It classifies every
natural loop's carried dependences on the ``absent < may < must``
lattice, reports the speedup bound its must-dependences allow, and
cross-checks its predicted violation arcs against the profiler's
observed RAW arcs (see ``docs/analysis.md``).  Loops, carried-local
kinds and once-blocks come from the microJIT itself
(:mod:`repro.jit.annotate`, :mod:`repro.jit.patterns`).
"""

from .deps import CONST, analyze_loop, analyze_method, analyze_program, \
    linearize
from .model import (ABSENT, AnalysisReport, CarriedRegister, Dependence,
                    KIND_GENERAL, KIND_INDUCTOR, KIND_REDUCTION,
                    KIND_RESETABLE, LATTICE, LoopAnalysis, MAY, MUST,
                    strongest, validate_analysis_dict)

__all__ = [
    "ABSENT", "MAY", "MUST", "LATTICE", "strongest",
    "KIND_INDUCTOR", "KIND_RESETABLE", "KIND_REDUCTION", "KIND_GENERAL",
    "Dependence", "CarriedRegister", "LoopAnalysis", "AnalysisReport",
    "validate_analysis_dict", "CONST", "linearize",
    "analyze_loop", "analyze_method", "analyze_program",
]
