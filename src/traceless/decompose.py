"""Writing elements as sums of commutators through the transfer map.

Given a witness b_1..b_n, the transfer map phi(a) = sum_i b_i a b_i* is
positive with ||phi|| = ||sum b_i b_i*|| = eta2 < 1, so Id - phi inverts by
the Neumann series psi = sum_k phi^k.  The whole engine rests on one line
of algebra, exact whenever sum b_i* b_i = 1:

    sum_i [b_i*, b_i c] = (sum_i b_i* b_i) c - phi(c) = c - phi(c),

so c = psi(a) turns a = (Id - phi)(psi(a)) into an explicit sum of n
commutators.  For positive a the pairs (psi(a)^(1/2) b_i*, b_i psi(a)^(1/2))
do the same with each contribution self-adjoint.

On a truncated witness the identity cannot hold exactly (matrix algebras
have a trace), so ``verify_decomposition`` reports both the full residual
and its compression to the truncation interior.  For the pairs
(b_i*, b_i psi(a)) the leftover is the boundary defect
(1 - sum b_i* b_i) psi(a) plus the certified series tail; the defect sits
on the boundary rows, and the interior compression removes it.  For the
positive pairs it is root (1 - sum b_i* b_i) root plus the tail, with
root = psi(a)^(1/2).  The root spreads the boundary defect over the
interior, so the compression does not remove it: the interior residual of
2 + s1 + s1* on the standard witness at depth 4 is 0.277, and it grows
with the norm of a.

Cost.  A witness element with at most one nonzero per row and per column
(shifts, evaluated normal monomials, diagonal elements: every shipped
witness) is a weighted partial permutation b = sum_k v_k |r_k><c_k|
(``Operator.partial_map``).  Its term of phi is a gather, scale and
scatter on the nonzero-row block,

    phi(a)[r, r] += outer(v, conj(v)) * a[c, c],

which costs O(|rows|^2), and b @ psi is a row gather costing O(|rows| d).
Any other element takes the dense product, O(d^3).  The Neumann solver
applies phi once per term and stops after the first term phi^K(a) whose
certified tail eta2 / (1 - eta2) * min(eta2^K ||a||_F, ||phi^K(a)||_F) is at
most eps; each Frobenius norm costs O(d^2) and no SVD is taken.  On a
nilpotent truncation (the standard witness at depth L) it stops at the first
zero term, K = L + 1, with tail 0.0.

Decomposing and verifying are separate steps: a result holds no residual,
and ``verify_decomposition`` alone forms a - sum_i [x_i, y_i] from the pairs,
sharing no code with the engine it checks.  It adds each product in place
with the kernel of ``Operator @`` (``linalg._accumulate``): a partial-map
left factor makes it a row gather, a partial-map right factor a column
scatter, each O(d^2), so both products of a standard pair (x = b*) cost
O(d^2).  Any other product is dense.  What remains is one SVD of the
residual and one of its interior block.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import cuntz
from .cuntz import StarPolynomial, interior_indices
from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NotContractive,
    NotPositive,
    SizeLimitExceeded,
)
from .linalg import Operator, _accumulate, op_norm, positivity_check, psd_sqrt
from .linalg import _lapack, frobenius_norm  # the numeric seam
from .witness import WitnessFamily

__all__ = [
    "CommutatorPair",
    "SolverInfo",
    "DecompositionResult",
    "VerificationReport",
    "apply_phi",
    "solve_psi_neumann",
    "solve_psi_direct",
    "decompose_element",
    "decompose_positive",
    "verify_decomposition",
]

DIRECT_DIM_LIMIT = 64
MAX_NEUMANN_ITERATIONS = 100000


@dataclass(frozen=True)
class CommutatorPair:
    """One commutator [x, y].  In self-adjoint form y = x*, so the
    contribution x y - y x = y* y - y y* is Hermitian."""

    x: object
    y: object
    self_adjoint_form: bool = False


@dataclass(frozen=True)
class SolverInfo:
    method: str
    iterations: int
    tail_bound: float


@dataclass(frozen=True)
class DecompositionResult:
    pairs: tuple[CommutatorPair, ...]
    psi_a: object
    solver: SolverInfo


@dataclass(frozen=True)
class VerificationReport:
    residual_norm: float
    residual_interior_norm: float
    trace_defect: float | None


def apply_phi(a, witness: WitnessFamily):
    """The transfer map: sum_i b_i a b_i* (summed in index order)."""
    if witness.backend == "symbolic":
        if not isinstance(a, StarPolynomial):
            raise TypeError("symbolic witness needs a symbolic argument")
        return functools.reduce(operator.add, (b @ a @ b.adjoint() for b in witness.elements))
    if not isinstance(a, Operator):
        raise TypeError("matrix witness needs an Operator argument")
    total = np.zeros((a.dim, a.dim), dtype=complex)
    for b in witness.elements:
        if b.dim != a.dim:
            raise DimensionMismatch(f"dim {a.dim} vs witness dim {b.dim}")
        form = b.partial_map
        if form is None:
            total += b.entries @ a.entries @ b.entries.conj().T
        else:
            rows, cols, vals = form
            block = a.entries[np.ix_(cols, cols)]
            total[np.ix_(rows, rows)] += np.outer(vals, vals.conj()) * block
    return Operator(total, a.basis_labels)


def solve_psi_neumann(
    a: Operator, witness: WitnessFamily, eps: float = 1e-10
) -> tuple[Operator, int, float]:
    """Partial Neumann sum sum_{k=0}^K phi^k(a) with a certified tail.

    After adding term k it bounds the remainder sum_{m>=1} phi^m(phi^k(a))
    in operator norm by

        tail_k = eta2 / (1 - eta2) * min(eta2^k ||a||_F, ||phi^k(a)||_F),

    using ||phi^m|| <= eta2^m and ||x|| <= ||x||_F, and returns (psi, K,
    tail_K) at the first K with tail_K <= eps.  The first argument of the min
    caps K at the a-priori count for ||a||_F; the second stops at the first
    exactly zero term of a nilpotent phi with tail 0.0.  phi is applied
    exactly K times.  Raises ValueError unless eps > 0, and MaxIterExceeded,
    before applying phi, if the a-priori count exceeds MAX_NEUMANN_ITERATIONS.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    eta = witness.report.eta2
    if eta >= 1.0:
        raise NotContractive(f"eta2 = {eta!r} >= 1")
    ratio = eta / (1.0 - eta)
    # the a-priori bounds eta^(k+1) ||a||_F / (1 - eta), walked once up to the
    # first <= eps, so K never exceeds their count
    priors = [eta * frobenius_norm(a, "||a||_F") / (1.0 - eta)]
    while priors[-1] > eps:
        if len(priors) > MAX_NEUMANN_ITERATIONS:
            raise MaxIterExceeded(
                f"tail bound still {priors[-1]:.3e} after {MAX_NEUMANN_ITERATIONS} iterations"
            )
        priors.append(priors[-1] * eta)
    psi, term, tail, iterations = a.entries.copy(), a, priors[0], 0
    while tail > eps:
        term = apply_phi(term, witness)
        psi += term.entries
        iterations += 1
        tail = min(priors[iterations], ratio * frobenius_norm(term, "Neumann term ||phi^k(a)||_F"))
    return Operator(psi, a.basis_labels), iterations, tail


def solve_psi_direct(a: Operator, witness: WitnessFamily) -> Operator:
    """Solve (Id - phi) X = a as one dim^2 x dim^2 linear system.

    Vectorizing column-major turns X -> b X b* into kron(conj(b), b), so the
    system matrix is I - sum_i kron(conj(b_i), b_i).  Cross-checks the
    Neumann solver on small dimensions: above DIRECT_DIM_LIMIT = 64 it raises
    SizeLimitExceeded before building the system.
    """
    if witness.backend != "matrix":
        raise TypeError("direct solve needs a matrix witness")
    eta = witness.report.eta2
    if eta >= 1.0:
        raise NotContractive(f"eta2 = {eta!r} >= 1")
    dim = a.dim
    if dim > DIRECT_DIM_LIMIT:
        raise SizeLimitExceeded(f"dim {dim} exceeds direct-solver limit {DIRECT_DIM_LIMIT}")
    if dim != witness.elements[0].dim:
        raise DimensionMismatch(f"dim {dim} vs witness dim {witness.elements[0].dim}")
    system = np.eye(dim * dim, dtype=complex)
    for b in witness.elements:
        system -= np.kron(b.entries.conj(), b.entries)
    vec = _lapack("solve", "direct solve of (Id - phi) X = a", system, a.entries.flatten(order="F"))
    return Operator(vec.reshape((dim, dim), order="F"), a.basis_labels)


def _solve(a, witness, eps, solver):
    if solver == "neumann":
        psi, iterations, tail = solve_psi_neumann(a, witness, eps)
        return psi, SolverInfo("neumann", iterations, tail)
    if solver == "direct":
        return solve_psi_direct(a, witness), SolverInfo("direct", 0, 0.0)
    raise ValueError(f"unknown solver {solver!r}")


def decompose_element(
    a,
    witness: WitnessFamily,
    eps: float = 1e-10,
    solver: str = "neumann",
    psi=None,
) -> DecompositionResult:
    """Express a as sum_i [b_i*, b_i psi(a)]; ``verify_decomposition`` checks it.

    ``psi`` may be supplied directly (mandatory for a symbolic witness,
    where the Neumann series has no finite normal form); otherwise the
    chosen solver computes it.
    """
    if psi is not None:
        info = SolverInfo("supplied", 0, 0.0)
    elif witness.backend == "symbolic":
        raise TypeError("symbolic decomposition needs an explicit psi")
    else:
        psi, info = _solve(a, witness, eps, solver)
    pairs = tuple(CommutatorPair(b.adjoint(), b @ psi) for b in witness.elements)
    return DecompositionResult(pairs, psi, info)


def decompose_positive(
    a: Operator, witness: WitnessFamily, eps: float = 1e-10, solver: str = "neumann"
) -> DecompositionResult:
    """Express a positive element as a sum of n self-adjoint commutators.

    The pairs are (psi^(1/2) b_i*, b_i psi^(1/2)); positivity of the
    Neumann series keeps psi(a) positive, so the square root exists.  Their
    residual is psi^(1/2) (1 - sum b_i* b_i) psi^(1/2) plus the series tail,
    and it is not confined to the boundary rows, so the interior residual
    of these pairs is not small (module docstring).
    """
    if witness.backend != "matrix":
        raise TypeError("positive decomposition needs a matrix witness")
    report = positivity_check(a, tol=1e-9)
    if not report.is_psd:
        raise NotPositive(
            f"input not positive: hermitian={report.is_hermitian}, min_eig={report.min_eig:.3e}"
        )
    psi, info = _solve(a, witness, eps, solver)
    root = psd_sqrt(psi, tol=1e-9)
    ys = [b @ root for b in witness.elements]
    pairs = tuple(CommutatorPair(y.adjoint(), y, self_adjoint_form=True) for y in ys)
    return DecompositionResult(pairs, psi, info)


def verify_decomposition(a, pairs, interior_mask: np.ndarray | None = None) -> VerificationReport:
    """Recompute a - sum_i [x_i, y_i] from the pairs alone and report its norms.

    The matrix sum accumulates in one array, adding x y and subtracting y x
    pair by pair in index order, in place with the kernel of ``Operator @``
    (``linalg._accumulate``).  For matrices also reports
    |trace(sum contributions)|: commutators are exactly trace-free, so this
    measures only rounding.  ``interior_mask`` is a bool vector of length
    a.dim (``WitnessFamily.interior_mask``); the interior norm is that of the
    residual on the basis vectors it keeps.  For symbolic input the residual
    is an exact normal form and the trace defect is None.  Elements of mixed
    types are a TypeError.
    """
    kind = StarPolynomial if isinstance(a, StarPolynomial) else Operator
    pairs = tuple(pairs)
    for x in (a, *(e for pair in pairs for e in (pair.x, pair.y))):
        if not isinstance(x, kind):
            raise TypeError(f"{type(x).__name__} in a decomposition of {kind.__name__} elements")
    if kind is StarPolynomial:
        total = cuntz.zero_poly(a.n)
        for pair in pairs:
            total = total + cuntz.commutator(pair.x, pair.y)
        norm = cuntz.symbolic_norm(a - total).value
        return VerificationReport(norm, norm, None)
    total = np.zeros((a.dim, a.dim), dtype=complex)
    for pair in pairs:
        if pair.x.dim != a.dim or pair.y.dim != a.dim:
            raise DimensionMismatch("pair dimension differs from the target element")
        _accumulate(total, np.add, pair.x, pair.y)
        _accumulate(total, np.subtract, pair.y, pair.x)
    trace_defect = float(abs(np.trace(total)))
    residual = np.subtract(a.entries, total, out=total)
    norm = interior = op_norm(residual, "residual norm ||a - sum_i [x_i, y_i]||")
    if interior_mask is not None:
        keep = interior_indices(interior_mask, a.dim)
        interior = op_norm(residual[np.ix_(keep, keep)], "interior residual norm")
    return VerificationReport(norm, interior, trace_defect)

