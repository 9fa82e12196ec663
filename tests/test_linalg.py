import math

import numpy as np
import pytest

from traceless import Operator, identity, op_norm, positivity_check, psd_sqrt
from traceless.errors import DimensionMismatch, NotHermitian, NotPositive

from helpers import random_operator

SQRT3 = math.sqrt(3.0)


def test_op_norm_identity():
    assert op_norm(identity(5)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_diagonal():
    assert op_norm(Operator(np.diag([3.0, -4.0]))) == pytest.approx(4.0, abs=1e-12)


def test_op_norm_nilpotent_shift():
    # oracle: x*x = diag(0, 4), so the singular values are {0, 2}
    x = Operator(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert op_norm(x) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_zero():
    assert op_norm(Operator(np.zeros((3, 3)))) == 0.0


def test_psd_sqrt_identity():
    y = psd_sqrt(identity(4))
    assert op_norm(y - identity(4)) <= 1e-12


def test_psd_sqrt_diagonal():
    y = psd_sqrt(Operator(np.diag([4.0, 9.0])))
    assert np.allclose(y.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_two_by_two():
    # eigendecomposition oracle: eigenvalues {1, 3} with vectors (1, -+1)/sqrt(2),
    # so the root is [[(sqrt3+1)/2, (sqrt3-1)/2], [(sqrt3-1)/2, (sqrt3+1)/2]]
    x = Operator(np.array([[2.0, 1.0], [1.0, 2.0]]))
    y = psd_sqrt(x)
    expected = np.array(
        [[(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], [(SQRT3 - 1) / 2, (SQRT3 + 1) / 2]]
    )
    assert np.allclose(y.entries, expected, atol=1e-12)


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_sqrt(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        psd_sqrt(Operator(np.diag([1.0, -1e-3])))


def test_psd_sqrt_clamps_tiny_negatives():
    y = psd_sqrt(Operator(np.diag([1.0, -1e-12])))
    assert np.allclose(y.entries, np.diag([1.0, 0.0]), atol=1e-6)


def test_positivity_projection():
    report = positivity_check(Operator(np.diag([1.0, 0.0])), tol=1e-9)
    assert report.is_psd
    assert report.min_eig == pytest.approx(0.0, abs=1e-12)


def test_positivity_visible_negative():
    report = positivity_check(Operator(np.diag([1.0, -1e-6])), tol=1e-9)
    assert not report.is_psd


def test_positivity_rank_one():
    # v v* has eigenvalues {|v|^2, 0, ..., 0}, nonnegative by construction
    rng = np.random.default_rng(42)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    report = positivity_check(Operator(np.outer(v, v.conj())), tol=1e-9)
    assert report.is_psd
    assert report.min_eig >= -1e-12


def test_operator_validation():
    with pytest.raises(DimensionMismatch):
        Operator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        Operator(np.eye(2), basis_labels=("a",))
    with pytest.raises(ValueError):
        Operator(np.eye(2), basis_labels=("a", "a"))


def test_norm_is_submultiplicative_and_star_invariant():
    rng = np.random.default_rng(1)
    for dim in (2, 5, 16):
        for _ in range(5):
            x = random_operator(rng, dim)
            y = random_operator(rng, dim)
            nx, ny = op_norm(x), op_norm(y)
            assert op_norm(x @ y) <= nx * ny * (1 + 1e-10)
            assert op_norm(x.adjoint()) == pytest.approx(nx, rel=1e-10)


def test_cstar_identity():
    rng = np.random.default_rng(2)
    for dim in (2, 16, 64, 128):
        x = random_operator(rng, dim)
        assert op_norm(x.adjoint() @ x) == pytest.approx(op_norm(x) ** 2, rel=1e-9)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for dim in (2, 7, 33):
        g = random_operator(rng, dim)
        x = g.adjoint() @ g
        y = psd_sqrt(x)
        assert op_norm(y @ y - x) <= 1e-9 * (1 + op_norm(x))
        assert positivity_check(y).is_psd


def test_operator_arithmetic_needs_operator_operands():
    # a bare number or array would broadcast over every entry instead of
    # acting as a multiple of the identity
    op = Operator(np.eye(2))
    for other in (1, np.ones(2), np.eye(2)):
        for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
            with pytest.raises(TypeError):
                combine(op, other)


SCALES = [10.0**k for k in range(11)]


def _rank_three_psd(scale):
    rng = np.random.default_rng(11)
    g = random_operator(rng, 8).entries[:3]
    return Operator(scale * (g.conj().T @ g))


@pytest.mark.parametrize("scale", SCALES)
def test_the_positivity_tolerance_is_relative_to_the_norm(scale):
    # five zero eigenvalues, which rounding at norm ~scale puts near -1e-16 scale
    x = _rank_three_psd(scale)
    assert positivity_check(x).is_psd
    root = psd_sqrt(x)
    assert op_norm(root @ root - x) <= 1e-9 * op_norm(x)


@pytest.mark.parametrize("scale", SCALES)
def test_a_visible_negative_eigenvalue_or_defect_is_refused_at_every_scale(scale):
    x = Operator(scale * np.diag([1.0, 0.5, -1e-3]))
    report = positivity_check(x)
    assert report.is_hermitian and not report.is_psd
    assert report.min_eig == pytest.approx(-1e-3 * scale)
    with pytest.raises(NotPositive):
        psd_sqrt(x)
    y = Operator(scale * np.array([[1.0, 1e-3], [0.0, 1.0]]))
    assert not positivity_check(y).is_hermitian
    with pytest.raises(NotHermitian):
        psd_sqrt(y)
