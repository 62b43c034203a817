import math

import numpy as np
import pytest

from betadens import UnsupportedDegree, build_poly_basis
from betadens.quadrature import gauss_legendre


def _quad01(f, nodes=96):
    u, w = gauss_legendre(nodes)
    x = 0.5 * (u + 1.0)
    return 0.5 * float(np.dot(w, f(x)))


def _gram_schmidt_oracle(r):
    """Orthonormalize 1, x, ..., x^r on [0, 1] by quadrature Gram-Schmidt."""
    u, w = gauss_legendre(128)
    x = 0.5 * (u + 1.0)
    w = 0.5 * w
    basis = []
    for i in range(r + 1):
        v = x**i
        for q in basis:
            v = v - np.dot(w, v * q) * q
        v = v / math.sqrt(np.dot(w, v * v))
        basis.append(v)
    return x, np.array(basis)


def test_degree_zero_is_normalized_constant():
    b = build_poly_basis(0)
    t = np.linspace(0.01, 1.0, 13)
    assert np.allclose(b.eval_all(t), 1.0)


def test_first_polynomials_closed_form():
    b = build_poly_basis(2)
    t = np.linspace(0.0, 1.0, 101)
    assert np.allclose(b.eval_all(t)[0], np.ones_like(t), atol=1e-14)
    assert np.allclose(b.eval_all(t)[1], math.sqrt(3.0) * (2.0 * t - 1.0), atol=1e-12)
    assert np.allclose(b.eval_all(t)[2],
                       math.sqrt(5.0) * (6.0 * t**2 - 6.0 * t + 1.0), atol=1e-12)


def test_point_values_from_spec_examples():
    b = build_poly_basis(1)
    assert b.eval_all(0.5)[1][0] == pytest.approx(0.0, abs=1e-14)
    assert b.eval_all(1.0)[1][0] == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_cross_moment_vanishes():
    b = build_poly_basis(2)
    val = _quad01(lambda x: b.eval_all(x)[1] * b.eval_all(x)[2])
    assert abs(val) < 1e-12


def test_matches_gram_schmidt_oracle():
    r = 5
    b = build_poly_basis(r)
    x, oracle = _gram_schmidt_oracle(r)
    ours = b.eval_all(x)
    for i in range(r + 1):
        sign = 1.0 if abs(oracle[i][-1] - ours[i][-1]) < abs(oracle[i][-1] + ours[i][-1]) else -1.0
        assert np.allclose(ours[i], sign * oracle[i], atol=1e-8)


def test_orthonormal_up_to_max_degree():
    b = build_poly_basis(10)
    u, w = gauss_legendre(128)
    x = 0.5 * (u + 1.0)
    vals = b.eval_all(x)
    gram = (vals * (0.5 * w)) @ vals.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-10


def test_degree_bound_enforced():
    with pytest.raises(UnsupportedDegree):
        build_poly_basis(11)
    with pytest.raises(UnsupportedDegree):
        build_poly_basis(-1)
