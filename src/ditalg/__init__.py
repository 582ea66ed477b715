"""Exact computer algebra for differential biquiver algebras with relations.

The package builds layered graded tensor algebras over products of trivial
and rational factors, certifies the triangularity and interlacing conditions
of a presentation with relations, computes in the finite-dimensional module
category (hom spaces, composition, isomorphisms, Krull-Schmidt), runs the
reduction calculus (deletion, regularization, factoring out, absorption,
admissible-module reduction, source detachment), and drives everything into a
bounded-dimension classifier that emits one-parameter families as bimodules
over rational algebras.
"""

__version__ = "0.1.0"

from . import scalars
from .bigraph import Arrow, Bigraph, Factor
from .tensor import Differential, Elem, Layer, Word, graded_component_basis
from .interlace import (
    CertificationError, Dit, GradedIdeal, IdealData, QuotientPresentation,
    UnsupportedShapeError, certify, check_balanced, check_interlaced,
    check_triangular_ideal, check_triangular_layer, generated_ideal, ideal_levels,
    lift_differential, quotient,
)
from .modcat import (
    IsoClassIndex, MorphismPair, Rep, compose, decompose, direct_sum, hom, hom_dim,
    hom_via_quotient, is_indecomposable, is_isomorphism, iso_test, jordan_at,
    simple_at, split_idempotent, transport_structure,
)
from .reduce import (
    ReductionError, ReductionFunctor, StepSpec, absorb, change_solid_basis,
    compose_functors, delete_idempotents, detach_source, factor_out,
    induced_reduction, regularize, structural_equal,
)
from .admissible import AdmissibleModuleData, build_admissible, reduce_admissible
from .bimodule import (
    WildCertificate, generic_regular, specialize_jordan, verify_wild_certificate,
)
from .pipeline import (
    ClassificationReport, Obstruction, ReductionPlan, classify, reduce_to_minimal,
)
from .presentation import (
    ParseError, emit_presentation, load_module, load_presentation,
    parse_presentation, save_presentation, save_report,
)
from . import fixtures
