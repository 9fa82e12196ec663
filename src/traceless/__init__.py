"""Commutator decompositions in operator algebras without tracial states.

The toolkit has three layers:

* symbolic arithmetic in the algebra of n isometries with orthogonal ranges
  (:mod:`traceless.cuntz`), with a matrix picture on truncated Fock space;
* witness families b_1..b_n with sum b_i* b_i = 1 and ||sum b_i b_i*|| < 1,
  validated, generated, and constructed from candidate elements
  (:mod:`traceless.witness`);
* the decomposition engine that writes any element as a sum of n commutators
  through the transfer map phi(a) = sum b_i a b_i* and its Neumann inverse
  (:mod:`traceless.decompose`), plus two-sided bounds on the distance from
  1 to a span of commutators (:mod:`traceless.tracedist`).
"""

from .errors import (
    DimensionMismatch,
    EmptyFamily,
    GeneratorMismatch,
    IndexOutOfRange,
    MaxIterExceeded,
    NotContractive,
    NotHermitian,
    NotPositive,
    SizeLimitExceeded,
    StaleReport,
    StarSyntaxError,
    SymbolicSqrtUnsupported,
    TraceObstruction,
    TracelessError,
)
from .linalg import Operator, PositivityReport, identity, op_norm, positivity_check, psd_sqrt, zero
from .cuntz import (
    FockTruncation,
    StarPolynomial,
    add,
    adjoint,
    commutator,
    equals,
    evaluate,
    evaluate_expression,
    fock_truncation,
    gen,
    interior_projection,
    multiply,
    parse_star_poly,
    poly_to_string,
    symbolic_norm,
    truncated_isometries,
    unit,
    vacuum_projection,
    word_isometry,
)
from .witness import (
    CandidateFamily,
    WitnessFamily,
    WitnessReport,
    build_witness,
    candidate_stats,
    check_witness,
    check_witness_symbolic,
    evaluate_witness,
    standard_isometry_witness,
    toeplitz_candidate_family,
)
from .decompose import (
    CommutatorPair,
    DecompositionResult,
    SolverInfo,
    apply_phi,
    decompose_element,
    decompose_positive,
    solve_psi_direct,
    solve_psi_neumann,
    verify_decomposition,
)
from .tracedist import (
    CommutatorSpanFamily,
    DistanceEstimate,
    commutator_distance,
)

__version__ = "0.1.0"
