"""Distance from 1 to spans of self-adjoint commutators, bracketed from both sides.

For generators a_1..a_m the Hermitian elements c_i = a_i* a_i - a_i a_i*
span a real subspace of trace-free matrices.  ``commutator_distance``
projects 1 onto that span in the Frobenius (trace) inner product, then
polishes the coefficients by subgradient steps on the operator norm.  The
best operator-norm residual found upper-bounds the distance from 1 to the
span of this particular family.

The lower bound is the dual side.  For a Hermitian rho with
tr(rho c_i) = 0 for every i, Hoelder's inequality with the trace norm gives
||1 - sum t_i c_i|| >= |tr(rho)| / ||rho||_1 for every t.  The Frobenius
residual of 1 is such a rho; in a matrix algebra it is 1 itself, the
trace, and pins the distance at 1.  Compressing the family to a truncation
interior removes the trace constraint and lets the residual drop below 1,
which is how the finite picture reflects algebras without tracial states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cuntz import interior_indices, star_sums
from .errors import DimensionMismatch, EmptyFamily
from .linalg import Operator, frobenius_norm, op_norm

__all__ = [
    "CommutatorSpanFamily",
    "DistanceEstimate",
    "commutator_span_family",
    "commutator_distance",
]

# polishing stops once upper - lower <= BRACKET_TOL * upper
BRACKET_TOL = 1e-12

# a dual rho is kept only if max_i |tr(rho c_i)| <= FEASIBILITY_TOL ||rho||_1 ||c_i||_F
FEASIBILITY_TOL = 1e-12

# a projected seed whose trace norm is below this multiple of the seed's
# Frobenius norm is what rounding left of a seed in the span: no bound
ROUNDING_LEVEL = 1e-8

EPS = float(np.finfo(float).eps)

# the average of the subgradients is tried as a dual seed every DUAL_EVERY steps
DUAL_EVERY = 10


@dataclass(frozen=True)
class CommutatorSpanFamily:
    """Generators a_i together with the span elements c_i = a_i* a_i - a_i a_i*."""

    generators: tuple[Operator, ...]
    span_elements: tuple[Operator, ...]
    dim: int


@dataclass(frozen=True)
class DistanceEstimate:
    """lower_bound <= dist(1, span{c_i}) <= opnorm_residual.

    ``rho`` is the dual functional that gives ``lower_bound`` (None when no
    seed gave a bound, and ``lower_bound`` is 0.0).  It is kept in memory
    only, so that a caller can check the bound, and takes no part in ``==``.
    """

    coefficients: tuple[float, ...]
    frobenius_residual: float
    opnorm_residual: float
    lower_bound: float
    rho: np.ndarray | None = field(default=None, compare=False, repr=False)


def commutator_span_family(generators, dim: int | None = None) -> CommutatorSpanFamily:
    """Derive the span elements of generators on one basis (ValueError for
    different basis labels); ``dim`` is needed for an empty family, and
    otherwise must be the generators' dimension."""
    generators = tuple(generators)
    if not generators:
        if dim is None:
            raise EmptyFamily("empty family needs an explicit dimension")
        return CommutatorSpanFamily((), (), dim)
    d = generators[0].dim if dim is None else dim
    for a in generators:
        if a.dim != d:
            raise DimensionMismatch(f"dim {a.dim} vs {d}")
        if a.basis_labels != generators[0].basis_labels:
            raise ValueError("generators have different basis labels")
    span = []
    for a in generators:
        star, rng = star_sums((a,))
        span.append(star - rng)
    return CommutatorSpanFamily(generators, tuple(span), d)


def _minus_span(x: np.ndarray, t, span) -> np.ndarray:
    """x - sum_j t_j c_j, subtracted in index order."""
    out = x.copy()
    for tj, c in zip(t, span):
        out -= tj * c
    return out


class _Dual:
    """The Frobenius projection onto the span, and dual bounds |tr(rho)| / ||rho||_1
    from Hermitian rho that it leaves orthogonal to the span."""

    def __init__(self, span: list[np.ndarray]):
        self.span = span
        self.gram = np.array([[np.vdot(c, e).real for e in span] for c in span])
        self.span_norms = np.sqrt(np.diag(self.gram))

    def inner(self, x: np.ndarray) -> np.ndarray:
        """tr(c_i x) for each i, for a Hermitian x."""
        return np.array([np.vdot(c, x).real for c in self.span])

    def project(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t, x - sum t_i c_i) for the Frobenius projection sum t_i c_i of x:
        a least-squares solve, which stays exact on the span when the Gram
        matrix is singular; a second pass removes what rounding left."""
        t = np.zeros(len(self.span))
        for _ in range(2):
            coeffs = np.linalg.lstsq(self.gram, self.inner(x), rcond=None)[0]
            x = _minus_span(x, coeffs, self.span)
            t += coeffs
        return t, x

    def bound(self, rho: np.ndarray, seed_norm: float) -> tuple[float, np.ndarray | None]:
        """(bound, rho) for a ``project``ed rho, (0.0, None) when it is not
        feasible to FEASIBILITY_TOL or is rounding of a seed of Frobenius
        norm ``seed_norm``."""
        trace_norm = float(np.abs(np.linalg.eigvalsh(rho)).sum())
        if trace_norm <= ROUNDING_LEVEL * seed_norm:
            return 0.0, None
        if np.any(np.abs(self.inner(rho)) > FEASIBILITY_TOL * trace_norm * self.span_norms):
            return 0.0, None
        # |tr(rho)| <= ||rho||_1 holds exactly, and a sum of dim eigenvalues is
        # rounded by up to about dim * eps, so a closed bracket stays ordered
        trace = abs(float(np.trace(rho).real))
        return trace / (max(trace_norm, trace) * (1.0 + len(rho) * EPS)), rho


def commutator_distance(
    family: CommutatorSpanFamily,
    polish_steps: int = 200,
    interior_mask: np.ndarray | None = None,
) -> DistanceEstimate:
    """Bracket dist(1, span{c_i}) between a dual lower and a primal upper bound.

    Projects 1 onto the span in the Frobenius inner product, by a
    least-squares solve that stays exact when the Gram matrix is singular,
    then runs at most ``polish_steps`` Polyak subgradient steps
    (f - lower) / ||g||^2 on the operator-norm objective, keeping the best
    iterate.  The residual is Hermitian, so each iterate costs one ``eigh``,
    whose eigenvalue of largest modulus and its eigenvector u give both the
    objective and the subgradient +-u u*.  The lower bound comes from the
    Frobenius residual itself, the seed 1 projected off the span, and from
    the running average of the subgradients projected the same way, tried
    every ``DUAL_EVERY`` steps.  Polishing stops early once the two bounds
    agree to ``BRACKET_TOL``, which the unmasked problem does at once: there
    tr(c_i) = 0, so the projection is t = 0 and rho = 1 certifies 1.  With
    ``interior_mask``, a bool vector of length ``family.dim``, the whole
    problem is compressed first to the block of the basis vectors it keeps.
    """
    span = [c.entries for c in family.span_elements]
    dim = family.dim
    if interior_mask is not None:
        keep = interior_indices(interior_mask, family.dim)
        dim = np.count_nonzero(keep)
        if dim == 0:
            raise DimensionMismatch("interior mask has empty range")
        span = [c[np.ix_(keep, keep)] for c in span]
    target = np.eye(dim, dtype=complex)
    if not span:
        return DistanceEstimate((), frobenius_norm(target), op_norm(target), 1.0, target)

    dual = _Dual(span)
    t, residual = dual.project(target)
    frob = frobenius_norm(residual)
    lower, rho = dual.bound(residual, frobenius_norm(target))
    best_t, best_op = t, math.inf
    average = np.zeros_like(target)
    for step in itertools.count(1):
        w, v = np.linalg.eigh(residual)
        top = 0 if abs(w[0]) > abs(w[-1]) else -1
        value = abs(float(w[top]))
        if value < best_op:
            best_t, best_op = t, value
        if best_op - lower <= BRACKET_TOL * best_op or step > polish_steps:
            break
        u = v[:, top]
        subgradient = math.copysign(1.0, w[top]) * np.outer(u, u.conj())
        average += (subgradient - average) / step
        if step % DUAL_EVERY == 0:
            _, projected = dual.project(average)
            candidate, candidate_rho = dual.bound(projected, frobenius_norm(average))
            if candidate > lower:
                lower, rho = candidate, candidate_rho
        grad = -dual.inner(subgradient)
        norm_grad = float(np.linalg.norm(grad))
        if norm_grad < 1e-15:
            break
        t = t - (value - lower) / norm_grad**2 * grad
        residual = _minus_span(target, t, span)
    return DistanceEstimate(tuple(float(v) for v in best_t), frob, best_op, lower, rho)
