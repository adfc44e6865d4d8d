"""Numerical kernel: rank decisions, factorizations, solvers."""

import numpy as np
import pytest

from linrel import kernel
from linrel.errors import DimensionMismatchError, NotHermitianError, NotPsdError, UnsolvableError
from linrel.kernel import DEFAULT_TOL, Tolerances


def test_tolerances_validate_ranges():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(eq_abs=2.0)
    assert DEFAULT_TOL.rank_rel == 1e-10
    assert DEFAULT_TOL.eq_abs == 1e-8


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel.as_matrix([[np.inf, 0.0]])
    with pytest.raises(DimensionMismatchError):
        kernel.as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        kernel.as_matrix(np.eye(2), shape=(3, 2))
    # vectors are promoted to single columns
    assert kernel.as_matrix([1.0, 2.0]).shape == (2, 1)


def test_opnorm_known_values():
    assert kernel.opnorm(np.diag([3.0, 4.0]).astype(complex)) == pytest.approx(4.0)
    assert kernel.opnorm(np.zeros((0, 3))) == 0.0
    assert kernel.opnorm(np.zeros((2, 2))) == 0.0


def _random(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_opnorm_matches_the_spectral_norm():
    rng = np.random.default_rng(11)
    herm = _random(rng, (6, 6))
    cases = [
        _random(rng, (9, 4)),                 # tall
        _random(rng, (3, 7)),                 # wide
        _random(rng, (5, 5)),                 # square
        herm + herm.conj().T,                 # Hermitian
        _random(rng, (6, 2), scale=1e-16),    # roundoff-sized
        _random(rng, (1, 1)),
        np.outer(_random(rng, 4), _random(rng, 3)),  # rank one
    ]
    # far from unit scale the Gram matrix would overflow or underflow
    cases += [_random(rng, (4, 3), scale=scale) for scale in (1e-300, 1e-160, 1e160, 1e300)]
    # entries of 2^1023 and above, next to the largest double, and subnormal ones
    cases += [np.array([[1e308]], dtype=complex), np.diag([1.5e308, 1e308]).astype(complex),
              _random(rng, (4, 3), scale=1e307),
              np.array([[5e-324]], dtype=complex), _random(rng, (3, 4), scale=1e-310)]
    for m in cases:
        ref = np.linalg.norm(m, 2)
        assert abs(kernel.opnorm(m) - ref) <= 1e-13 * ref
    for shape in [(0, 0), (0, 3), (4, 0)]:
        assert kernel.opnorm(np.zeros(shape, dtype=complex)) == 0.0


def test_hermitian_part_and_eig():
    m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = kernel.hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    w, v = kernel.hermitian_eig(np.diag([4.0, 1.0]).astype(complex))
    assert np.allclose(w, [1.0, 4.0])
    assert np.allclose((v * w) @ v.conj().T, np.diag([4.0, 1.0]))
    with pytest.raises(NotHermitianError):
        kernel.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_orthonormal_columns_rank_decisions():
    # duplicated column collapses to rank one
    col = np.array([[1.0], [1.0]], dtype=complex)
    q = kernel.orthonormal_columns(np.hstack([col, col]), DEFAULT_TOL)
    assert q.shape == (2, 1)
    assert np.allclose(q.conj().T @ q, np.eye(1))
    # a numerically-zero matrix has rank zero even though its largest
    # singular value is positive; the cutoff floors at the unit scale
    noise = np.full((3, 3), 1e-16, dtype=complex)
    assert kernel.orthonormal_columns(noise, DEFAULT_TOL).shape == (3, 0)
    # empty input stays empty
    assert kernel.orthonormal_columns(np.zeros((3, 0)), DEFAULT_TOL).shape == (3, 0)


def test_rank_cutoff_scales_with_data():
    tol = DEFAULT_TOL
    small = np.array([1e-16, 1e-17])
    assert kernel.rank_cutoff(small, tol) == pytest.approx(tol.rank_rel)
    large = np.array([1e6, 1.0])
    assert kernel.rank_cutoff(large, tol) == pytest.approx(1e6 * tol.rank_rel)


def test_null_space_known_kernel():
    m = np.array([[1.0, 0.0], [0.0, 1e-14]], dtype=complex)
    ns = kernel.null_space(m, DEFAULT_TOL)
    assert ns.shape == (2, 1)
    assert abs(ns[1, 0]) == pytest.approx(1.0)
    # full-rank matrix has trivial kernel
    assert kernel.null_space(np.eye(2, dtype=complex), DEFAULT_TOL).shape == (2, 0)
    # zero-row matrix constrains nothing
    assert kernel.null_space(np.zeros((0, 4)), DEFAULT_TOL).shape == (4, 4)


def test_full_complement_exact_dimensions():
    basis = kernel.orthonormal_columns(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], dtype=complex), DEFAULT_TOL)
    comp = kernel.full_complement(basis)
    assert basis.shape[1] + comp.shape[1] == 3
    assert np.allclose(basis.conj().T @ comp, 0.0, atol=1e-12)


def test_full_complement_is_orthonormal_and_orthogonal():
    rng = np.random.default_rng(12)
    for n, k in [(1, 0), (1, 1), (5, 2), (8, 7), (6, 3), (16, 8)]:
        basis = kernel.orthonormal_columns(_random(rng, (n, k)), DEFAULT_TOL)
        comp = kernel.full_complement(basis)
        assert comp.shape == (n, n - k)
        assert np.allclose(comp.conj().T @ comp, np.eye(n - k), atol=1e-13)
        assert np.allclose(basis.conj().T @ comp, 0.0, atol=1e-13)


def test_null_space_of_tall_and_wide_inputs():
    rng = np.random.default_rng(13)
    # rank two in both shapes: kernels of dimension 1 and 5
    tall = _random(rng, (6, 2)) @ _random(rng, (2, 3))
    wide = _random(rng, (3, 2)) @ _random(rng, (2, 7))
    for m, nullity in [(tall, 1), (wide, 5)]:
        ns = kernel.null_space(m, DEFAULT_TOL)
        assert ns.shape == (m.shape[1], nullity)
        assert np.allclose(ns.conj().T @ ns, np.eye(nullity), atol=1e-13)
        assert np.linalg.norm(m @ ns) <= 1e-12 * np.linalg.norm(m)


def test_rank_svd_keeps_rank_nullity_exact():
    rng = np.random.default_rng(14)
    cases = [
        _random(rng, (7, 3)),                                # tall
        _random(rng, (3, 7)),                                # wide
        _random(rng, (5, 5)),                                # square
        _random(rng, (6, 2)) @ _random(rng, (2, 4)),         # rank-deficient tall
        _random(rng, (2, 2)) @ _random(rng, (2, 6)),         # rank-deficient wide
        np.zeros((4, 3)),
        np.full((3, 3), 1e-16),                              # numerically zero
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
    ]
    ranks = [3, 3, 5, 2, 2, 0, 0, 0, 0, 0]
    for m, rank in zip(cases, ranks):
        rows, cols = m.shape
        u, s, vh, null = kernel.rank_svd(m, DEFAULT_TOL)
        assert u.shape == (rows, rank) and s.shape == (rank,) and vh.shape == (rank, cols)
        assert u.shape[1] + null.shape[1] == cols
        assert np.allclose(u.conj().T @ u, np.eye(rank), atol=1e-13)
        assert np.allclose(null.conj().T @ null, np.eye(cols - rank), atol=1e-13)
        assert np.allclose(vh @ null, 0.0, atol=1e-13)
        if rank:
            assert np.linalg.norm(m @ null) <= 1e-12 * np.linalg.norm(m)
            assert np.allclose((u * s) @ vh, m, atol=1e-12)


def test_psd_sqrt_frozen_and_roundtrip():
    root = kernel.psd_sqrt(np.diag([4.0, 9.0]).astype(complex), DEFAULT_TOL)
    assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-12)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    root = kernel.psd_sqrt(m, DEFAULT_TOL)
    assert np.allclose(root @ root, m, atol=1e-10 * kernel.opnorm(m))
    assert np.allclose(root, root.conj().T)
    with pytest.raises(NotPsdError):
        kernel.psd_sqrt(np.diag([1.0, -1.0]).astype(complex), DEFAULT_TOL)


def test_pseudo_inverse_properties():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p = kernel.pseudo_inverse(m, DEFAULT_TOL)
    assert np.allclose(m @ p @ m, m, atol=1e-12)
    assert np.allclose(p, m)  # projection is its own pseudo inverse


def test_pseudo_apply_inverse_solves_and_rejects():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    x = kernel.pseudo_apply_inverse(m, np.array([[2.0], [0.0]], dtype=complex), DEFAULT_TOL)
    assert np.allclose(m @ x, [[2.0], [0.0]], atol=1e-12)
    with pytest.raises(UnsolvableError):
        kernel.pseudo_apply_inverse(m, np.array([[0.0], [1.0]], dtype=complex), DEFAULT_TOL)


def test_pseudo_apply_inverse_names_the_first_failing_column():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 0.0, 5.0, 0.0], [0.0, 0.0, 1e-3, 1.0]], dtype=complex)
    with pytest.raises(UnsolvableError, match="column 2 "):
        kernel.pseudo_apply_inverse(m, b, DEFAULT_TOL)
    # within eq_abs * (1 + ||column||) a column still counts as solvable
    x = kernel.pseudo_apply_inverse(m, np.array([[1e3], [5e-6]], dtype=complex), DEFAULT_TOL)
    assert np.allclose(x, [[1e3], [0.0]])
    # the first failing column is the one a column-by-column loop finds
    rng = np.random.default_rng(14)
    for _ in range(20):
        r = _random(rng, (5, 2))
        b = r @ _random(rng, (2, 6)) + _random(rng, (5, 6)) * (rng.random(6) < 0.3)
        resid = r @ kernel.pseudo_inverse(r) @ b - b
        failing = [j for j in range(6) if np.linalg.norm(resid[:, j])
                   > DEFAULT_TOL.eq_abs * (1.0 + np.linalg.norm(b[:, j]))]
        if failing:
            with pytest.raises(UnsolvableError, match=f"column {failing[0]} "):
                kernel.pseudo_apply_inverse(r, b, DEFAULT_TOL)
        else:
            kernel.pseudo_apply_inverse(r, b, DEFAULT_TOL)


def test_orthonormalize_keeps_every_independent_column():
    rng = np.random.default_rng(12)
    for big in (1.0, 1e8, 1e13, 1e100):
        m = np.vstack([np.eye(3), big * _random(rng, (4, 3))])
        q = kernel.orthonormalize(m)
        assert q.shape == (7, 3)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        # the same column span: q q^H fixes every normalized column of m
        cols = m / np.linalg.norm(m, axis=0)
        assert np.allclose(q @ (q.conj().T @ cols), cols, atol=1e-12)
    assert kernel.orthonormalize(np.zeros((4, 0))).shape == (4, 0)


def test_opnorm_within_agrees_with_opnorm():
    rng = np.random.default_rng(13)
    cases = [_random(rng, (5, 3)), _random(rng, (2, 6), scale=1e-9),
             np.outer(_random(rng, 4), _random(rng, 4)), np.diag([1e-8, 1e-8, 1e-8]),
             _random(rng, (3, 3), scale=1e200), np.zeros((3, 0))]
    for m in cases:
        norm = kernel.opnorm(m)
        top = float(np.abs(m).max()) if m.size else 1.0
        fro = top * float(np.linalg.norm(m / top))  # scaled clear of overflow
        # bounds on both sides of the norm, and between it and the Frobenius norm
        for bound in (0.5 * norm, norm, 0.5 * (norm + fro), 2.0 * fro + 1e-300):
            assert kernel.opnorm_within(m, bound) == (norm <= bound)


def test_nearest_isometry_known_cases():
    assert np.allclose(kernel.nearest_isometry(np.diag([2.0, 3.0]).astype(complex)),
                       np.eye(2), atol=1e-12)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = kernel.nearest_isometry(m)
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
