"""Certification toolkit for quantum SU(2) operator tables, the standard
Podles sphere with its Fredholm module, the coefficient homotopy behind the
index computation, and the exact fusion/K-theory data of free orthogonal
quantum groups."""

from .qarith import HalfInt, qnumber
from .peterweyl import (BandedOperator, TruncatedSpace, bundle_space, full_space,
                        generator_op, haar_state, operator_norm, relation_residuals)
from .podles import (FredholmModule, commutator_tail, commutator_tails,
                     fit_geometric, fredholm_index, index_pair_operator, podles_op)
from .homotopy import (build_omega, degenerate_module_check, rotation_homotopy_check,
                       verify_lemma1, verify_lemma2, verify_lemma3)
from .kring import (dim_classical, dim_quantum, fuse, koszul_verify,
                    smith_normal_form)
from .foq import (EquivalenceInvariant, QMatrix, canonical_su2_qmatrix,
                  invariant_pair, monoidally_equivalent, solve_su2_parameter,
                  validate_q)
from .report import Check, VerificationReport, emit_report, load_schema
from .suites import SuiteConfig, UsageError, list_suites, run_suite

__version__ = "0.1.0"
