"""Independent oracles and random-input generators for the test suite.

The Fock-space builders here are written from first principles (explicit
word dictionaries and entry-by-entry matrices) so they can cross-check the
library's constructions without sharing code with them.
"""

import itertools

import numpy as np

from traceless import Operator, StarPolynomial


def brute_words(n: int, depth: int) -> list[tuple[int, ...]]:
    """All words of length <= depth, shortest first, lexicographic within a length."""
    out = []
    for length in range(depth + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=length))
    return out


def brute_isometries(n: int, depth: int) -> list[np.ndarray]:
    """Generator matrices built entry by entry: v_i |w> = |iw| when it fits."""
    words = brute_words(n, depth)
    pos = {w: k for k, w in enumerate(words)}
    dim = len(words)
    mats = []
    for i in range(1, n + 1):
        m = np.zeros((dim, dim), dtype=complex)
        for w in words:
            target = (i,) + w
            if target in pos:
                m[pos[target], pos[w]] = 1.0
        mats.append(m)
    return mats


def brute_word_matrix(word, n: int, depth: int) -> np.ndarray:
    """Matrix of s_word by composing the brute-force generators."""
    mats = brute_isometries(n, depth)
    dim = mats[0].shape[0] if mats else len(brute_words(n, depth))
    out = np.eye(dim, dtype=complex)
    for letter in word:
        out = out @ mats[letter - 1]
    return out


def brute_poly_matrix(p: StarPolynomial, depth: int) -> np.ndarray:
    """Evaluate a normal form with the brute-force generators: sum c v_mu v_nu*."""
    dim = len(brute_words(p.n, depth))
    total = np.zeros((dim, dim), dtype=complex)
    for (mu, nu), coef in p.terms.items():
        left = brute_word_matrix(mu, p.n, depth)
        right = brute_word_matrix(nu, p.n, depth)
        total += coef * (left @ right.conj().T)
    return total


def brute_phi(a: np.ndarray, family) -> np.ndarray:
    """The transfer map sum_i b_i a b_i* with raw dense numpy products."""
    total = np.zeros_like(a, dtype=complex)
    for b in family:
        total += b @ a @ b.conj().T
    return total


def brute_neumann(a: np.ndarray, family, terms: int) -> np.ndarray:
    """Plain series sum_{k=0}^{terms} phi^k(a) with raw numpy products."""
    total = a.copy()
    current = a.copy()
    for _ in range(terms):
        current = brute_phi(current, family)
        total += current
    return total


def random_hermitian(rng, dim: int, labels=None) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((g + g.conj().T) / 2, labels)


def random_operator(rng, dim: int, labels=None) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator(g, labels)


def random_poly(rng, n: int = 2, max_degree: int = 3, max_terms: int = 8) -> StarPolynomial:
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        mu = tuple(int(v) for v in rng.integers(1, n + 1, size=rng.integers(0, max_degree + 1)))
        nu = tuple(int(v) for v in rng.integers(1, n + 1, size=rng.integers(0, max_degree + 1)))
        coef = complex(rng.standard_normal(), rng.standard_normal())
        terms[(mu, nu)] = terms.get((mu, nu), 0j) + coef
    return StarPolynomial(n, terms)


def coefficient_norm(p: StarPolynomial) -> float:
    """Largest coefficient modulus of the normal form (0 for the zero element)."""
    if not p._terms:
        return 0.0
    return max(abs(c) for c in p._terms.values())


def _product(x, y):
    """x y: numpy's product of the entries for Operators, so that the oracle
    does not run through ``Operator @``; the normal form's for StarPolynomials."""
    if isinstance(x, Operator):
        return Operator(x.entries @ y.entries, x.basis_labels)
    return x @ y


def commutator_residual(a, pairs):
    """a - sum_i (x_i y_i - y_i x_i), for Operators and StarPolynomials alike."""
    residual = a
    for pair in pairs:
        residual = residual - (_product(pair.x, pair.y) - _product(pair.y, pair.x))
    return residual
