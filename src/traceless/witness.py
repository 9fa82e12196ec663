"""Witness families: validate, construct, and generate.

A witness is an ordered family b_1..b_n (n >= 2) with

    sum_i b_i* b_i = 1        (defect eta1 = ||sum b_i* b_i - 1||)
    ||sum_i b_i b_i*|| < 1    (eta2)

Such a family certifies that the ambient algebra has no tracial state and
powers the commutator decomposition engine.  Families live either in the
symbolic isometry algebra or as matrices on a truncated Fock space; in the
matrix picture eta1 always carries a boundary defect, which is why checks
also report eta1 on the interior that a family's degree determines.

A ``WitnessFamily`` computes its report from its elements when it is made
and takes no report argument, so a report read from a file is at most a
claim to compare against.  ``check_witness`` is that one constructor, for
both element types, and no other code of the package makes one (file loads
included); ``_one`` and ``_norm`` are the types' only seam.  A symbolic
norm is ``cuntz.symbolic_norm``: exact when the element is diagonal in the
word basis, else an upper bound, never the lower bound that a Fock
truncation gives.

A matrix check costs O(n d^2) and takes no SVD when every element is a
weighted partial permutation (``Operator.partial_map``), as every shipped
witness is: ``cuntz.star_sums`` scatters sum b_i* b_i and sum b_i b_i*
onto diagonals, and ``op_norm`` of a weighted partial permutation (the
defect, its interior columns, a diagonal sum) is its largest modulus.  Any
other family takes dense products and SVDs, O(n d^3).

``build_witness`` runs the constructive route from candidate elements
a_1..a_m with t0 = ||1 - sum(a_i* a_i - a_i a_i*)|| < 1: append
a_{m+1} = (k - sum a_i* a_i)^(1/2) for k = ||sum a_i* a_i|| and rescale by
1/sqrt(k).  In any matrix algebra the normalized trace forces t0 >= 1, so
that route only succeeds symbolically; ``toeplitz_candidate_family`` ships
an explicit symbolic family that reaches t0 = 1/J for any J >= 1.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import cuntz
from .cuntz import NormEstimate, StarPolynomial, fock_truncation, interior_for_degree, star_sums
from .errors import DimensionMismatch, EmptyFamily, GeneratorMismatch, TraceObstruction
from .linalg import Operator, _finite, identity, op_norm

__all__ = [
    "WitnessReport",
    "WitnessFamily",
    "CandidateFamily",
    "check_witness",
    "check_witness_symbolic",
    "candidate_stats",
    "build_witness",
    "standard_isometry_witness",
    "toeplitz_candidate_family",
    "evaluate_witness",
]


@dataclass(frozen=True)
class WitnessReport:
    eta1: float
    eta2: float
    valid: bool
    eta1_interior: float | None = None


def backend_of(element) -> str:
    """The backend an element belongs to: "symbolic" or "matrix"."""
    return "symbolic" if isinstance(element, StarPolynomial) else "matrix"


@dataclass(frozen=True)
class WitnessFamily:
    """A family whose ``report`` and ``interior_mask`` are derived from its
    elements when it is made; neither is a constructor argument.

    A symbolic family's ``degree`` is the largest of its elements'.  A
    matrix family's, with Fock labels, gives ``cuntz.interior_for_degree``
    and eta1_interior = ||(sum b_i* b_i - 1) p||, p the projection onto the
    interior.  eta1 and eta2 come from ``_norm``, so ``valid`` (eta1 <= tol,
    eta2 < 1 - tol) never rests on a lower bound; it uses the unmasked eta1.
    Raises ValueError, naming the norm, where eta1 or eta2 is not finite (a
    matrix element whose squared entries overflow).
    """

    elements: tuple
    degree: int | None = None
    tol: InitVar[float] = 1e-10
    report: WitnessReport = field(init=False)
    interior_mask: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: float):
        family = _family(self.elements)
        if len(family) < 2:
            raise EmptyFamily("a witness family needs at least 2 elements")
        symbolic = isinstance(family[0], StarPolynomial)
        if symbolic:
            object.__setattr__(self, "degree", max(b.degree for b in family))
        mask = interior_for_degree(None if symbolic else family[0].basis_labels, self.degree)
        sum_star, sum_range = star_sums(family)
        defect = sum_star - _one(sum_star)
        eta1 = _norm(defect, "witness norm eta1 = ||sum b_i* b_i - 1||").value
        eta2 = _norm(sum_range, "witness norm eta2 = ||sum b_i b_i*||").value
        # eta2 must sit strictly below 1; the tol guard band keeps rounding at
        # the critical boundary (e.g. an exactly-critical family with eta2 = 1)
        # from flipping the verdict
        valid = eta1 <= tol and eta2 < 1.0 - tol
        eta1_interior = None if mask is None else op_norm(defect.entries[:, mask])
        object.__setattr__(self, "elements", family)
        object.__setattr__(self, "interior_mask", mask)
        object.__setattr__(self, "report", WitnessReport(eta1, eta2, valid, eta1_interior))

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def backend(self) -> str:
        return backend_of(self.elements[0])


@dataclass(frozen=True)
class CandidateFamily:
    """Candidate elements a_1..a_m with their obstruction statistics."""

    elements: tuple
    t0: float
    k: float
    norms_exact: bool = True


def _family(elements) -> tuple:
    """A non-empty family of StarPolynomials (symbolic) or of Operators, of the
    first element's kind, with a common generator count or dimension and
    basis labels (ValueError if they differ)."""
    family = tuple(elements)
    if not family:
        raise EmptyFamily("family contains no elements")
    symbolic = isinstance(family[0], StarPolynomial)
    kind = StarPolynomial if symbolic else Operator
    for b in family:
        if not isinstance(b, kind):
            raise TypeError(f"expected a {'symbolic' if symbolic else 'matrix'} family")
        if symbolic and b.n != family[0].n:
            raise GeneratorMismatch(f"{b.n} generators vs {family[0].n}")
        if not symbolic and b.dim != family[0].dim:
            raise DimensionMismatch(f"dim {b.dim} vs {family[0].dim}")
        if not symbolic and b.basis_labels != family[0].basis_labels:
            raise ValueError("family elements have different basis labels")
    return family


def _one(x):
    """The unit of the algebra x lives in."""
    if isinstance(x, StarPolynomial):
        return cuntz.unit(x.n)
    return identity(x.dim)


def _norm(x, name: str) -> NormEstimate:
    """``op_norm`` of a matrix; ``cuntz.symbolic_norm`` of a symbolic element;
    either under ``linalg._finite``, naming ``name``."""
    if isinstance(x, StarPolynomial):
        estimate = cuntz.symbolic_norm(x)
        _finite(name, estimate.value)
        return estimate
    return NormEstimate(op_norm(x, name), True)


def check_witness(family, tol: float = 1e-10, degree: int | None = None) -> WitnessFamily:
    """Validate a symbolic or a matrix family against the witness conditions:
    the ``WitnessFamily`` of its elements, whose report they determine."""
    return WitnessFamily(family, degree=degree, tol=tol)


def check_witness_symbolic(family, tol: float = 1e-10, depth: int | None = None) -> WitnessFamily:
    """``check_witness`` of a family that must be symbolic (TypeError otherwise).

    ``depth`` is accepted but not read: ``bench/workloads.py`` passes it.
    """
    family = tuple(family)
    if family and not isinstance(family[0], StarPolynomial):
        raise TypeError("expected a symbolic family")
    return check_witness(family, tol)


def _stats_and_sum_star(elements) -> tuple[CandidateFamily, object]:
    """``candidate_stats`` together with the sum a_i* a_i it is computed from."""
    family = _family(elements)
    sum_star, sum_range = star_sums(family)
    if isinstance(sum_star, Operator):  # refused before inf - inf can warn
        _finite("sum a_i* a_i or sum a_i a_i*", sum_star.entries, sum_range.entries)
    t0 = _norm(_one(sum_star) - (sum_star - sum_range), "t0 = ||1 - sum(a_i* a_i - a_i a_i*)||")
    k = _norm(sum_star, "k = ||sum a_i* a_i||")
    return CandidateFamily(family, t0.value, k.value, t0.exact and k.exact), sum_star


def candidate_stats(elements) -> CandidateFamily:
    """Compute t0 = ||1 - sum(a_i* a_i - a_i a_i*)|| and k = ||sum a_i* a_i||."""
    return _stats_and_sum_star(elements)[0]


def build_witness(candidates, tol: float = 1e-10) -> WitnessFamily:
    """Constructive route from candidates a_1..a_m to a witness b_1..b_{m+1}.

    Requires t0 < 1 (raises TraceObstruction otherwise; the threshold is
    1 - tol so that rounding noise cannot slip past an obstruction that
    holds exactly).  Matrix candidates always raise it: the trace forces
    t0 >= 1 even where rounding gives t0 one ulp below 1.  The square root
    is taken coefficient-wise on the prefix tree and so requires
    k - sum a_i* a_i to be a recognized combination of word projections.
    """
    stats, sum_star = _stats_and_sum_star(candidates)
    if isinstance(sum_star, Operator) or stats.t0 >= 1.0 - tol:
        raise TraceObstruction(stats.t0)
    # k > tol: t0 >= 1 - k, as 1 - X + Y >= (1 - ||X||) 1 for X = sum a*a, Y = sum aa* >= 0
    scale = 1.0 / math.sqrt(stats.k)
    extra = cuntz.diagonal_sqrt(stats.k * _one(sum_star) - sum_star, tol=max(tol, 1e-12))
    elements = [scale * b for b in (*stats.elements, extra)]
    return check_witness(elements, tol)


def standard_isometry_witness(n: int, depth: int | None = None) -> WitnessFamily:
    """The n-generator witness b_i = s_i / sqrt(n), checked like any family.

    Symbolically (depth None) the report is eta1 = 0 and eta2 = 1/n up to
    the rounding of the coefficient 1/sqrt(n).  With a depth, the family is
    realized by ``evaluate_witness``; eta1 then equals 1 at the boundary
    while the interior defect vanishes.
    """
    if n < 2:
        raise EmptyFamily("need at least two isometries")
    scale = 1.0 / math.sqrt(n)
    witness = check_witness([scale * cuntz.gen(n, i) for i in range(1, n + 1)])
    return witness if depth is None else evaluate_witness(witness, depth)


def toeplitz_candidate_family(J: int) -> list[StarPolynomial]:
    """Symbolic candidates over two generators reaching t0 = 1/J, k = 3.

    a_1 = s_1, a_2 = s_2, and for j = 1..J

        a_{2+j} = sqrt((J-j+1)/J) * s_1^(j-1) q (s_1*)^j,

    with q the vacuum projection.  The self-adjoint commutators telescope:
    1 - sum(a_i* a_i - a_i a_i*) = -(1/J) sum_j q_j where q_j projects onto
    the word 1^j.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    n_gen = 2
    q = cuntz.vacuum_projection(n_gen)
    family = [cuntz.gen(n_gen, 1), cuntz.gen(n_gen, 2)]
    for j in range(1, J + 1):
        lam = (J - j + 1) / J
        left = cuntz.word_isometry(n_gen, (1,) * (j - 1))
        right = cuntz.word_isometry(n_gen, (1,) * j).adjoint()
        family.append(math.sqrt(lam) * (left @ q @ right))
    return family


def evaluate_witness(witness: WitnessFamily, depth: int, tol: float = 1e-10) -> WitnessFamily:
    """Realize a symbolic witness on the Fock truncation of a given depth.

    The interior is the words of length <= depth - degree, on which the
    truncated matrices multiply exactly like their symbolic counterparts.
    """
    if witness.backend != "symbolic":
        raise TypeError("can only evaluate a symbolic witness")
    trunc = fock_truncation(witness.elements[0].n, depth)
    elements = [cuntz.evaluate(b, trunc) for b in witness.elements]
    return check_witness(elements, tol=tol, degree=witness.degree)
