"""Subspace arithmetic and the projection-invariance equivalences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import kernel
from linrel.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    InvarianceViolatedError,
)
from linrel.generator import random_subspace, rng_for
from linrel.kernel import DEFAULT_TOL
from linrel.subspace import (
    Subspace,
    _orthogonal_sum,
    invariance_report,
    require_invariant,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_constructors_and_basic_queries():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert np.allclose(f.projector, np.eye(3))
    assert np.allclose(z.projector, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        Subspace(2, np.eye(3, dtype=complex))


def test_span_canonicalizes_any_generating_set():
    # same plane through two different generating sets
    u = Subspace.span([E1, E1 + E2], 2)
    v = Subspace.span([E2, 3 * E1], 2)
    assert u.gap(v) < 1e-12
    assert u.equals(v)
    # dependent vectors collapse
    w = Subspace.span([E1, 2 * E1], 2)
    assert w.dim == 1


def test_complement_is_exact():
    for seed in range(10):
        rng = rng_for(100, seed)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        u = random_subspace(rng, n, k)
        c = u.complement()
        assert u.dim + c.dim == n
        assert np.allclose(u.basis.conj().T @ c.basis, 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dimension_formula_for_sum_and_intersection(seed):
    rng = rng_for(101, seed % 2**31)
    n = int(rng.integers(1, 8))
    u = random_subspace(rng, n, int(rng.integers(0, n + 1)))
    v = random_subspace(rng, n, int(rng.integers(0, n + 1)))
    meet = u.intersect(v)
    join = u.add(v)
    assert meet.dim + join.dim == u.dim + v.dim


def test_intersection_of_generic_subspaces():
    rng = rng_for(102)
    # two random planes in C^3 meet in a line almost surely
    u = random_subspace(rng, 3, 2)
    v = random_subspace(rng, 3, 2)
    meet = u.intersect(v)
    assert meet.dim == 1
    assert u.contains(meet) and v.contains(meet)


def _stacked_intersection_dim(u, v):
    # the joint kernel of the two complement projectors, stacked
    eye = np.eye(u.ambient_dim, dtype=complex)
    return kernel.null_space(np.vstack([eye - u.projector, eye - v.projector])).shape[1]


def _intersection_pairs():
    rng = rng_for(104)
    n = 8
    a = random_subspace(rng, n, 5)
    inner = Subspace(n, a.basis @ random_subspace(rng, 5, 2).basis)
    yield a, inner, 2                    # nested
    yield a, Subspace(n, a.basis[:, ::-1].copy()), 5  # equal, other basis
    yield a, a.complement(), 0           # orthogonal
    yield a, Subspace.zero(n), 0
    yield a, Subspace.full(n), 5
    yield Subspace.zero(n), Subspace.full(n), 0
    # k shared directions, two more at principal angle theta, and one
    # direction of the first subspace the second lacks
    for shared in range(4):
        for theta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            q = kernel.orthonormal_columns(rng.standard_normal((n, n))
                                           + 1j * rng.standard_normal((n, n)))
            tilted = (np.cos(theta) * q[:, shared:shared + 2]
                      + np.sin(theta) * q[:, shared + 2:shared + 4])
            first = Subspace(n, q[:, list(range(shared + 2)) + [shared + 4]])
            second = Subspace(n, np.hstack([q[:, :shared], tilted]))
            yield first, second, shared


def test_intersect_matches_the_stacked_projector_kernel():
    for u, v, dim in _intersection_pairs():
        for one, other in ((u, v), (v, u)):
            meet = one.intersect(other)
            assert meet.dim == _stacked_intersection_dim(one, other) == dim
            assert np.allclose(meet.basis.conj().T @ meet.basis, np.eye(meet.dim), atol=1e-12)
        assert u.intersect(v).dim == v.intersect(u).dim


def test_gap_and_containment():
    u = Subspace.span([E1], 2)
    v = Subspace.span([E2], 2)
    assert u.gap(v) == pytest.approx(1.0)
    assert u.gap(u) == 0.0
    assert Subspace.full(2).contains(u)
    assert not u.contains(Subspace.full(2))
    assert u.containment_defect(v) == pytest.approx(1.0)
    assert u.contains_vector(2 * E1)
    assert not u.contains_vector(E2)


def test_gap_matches_the_projector_difference():
    for seed in range(40):
        rng = rng_for(103, seed)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        u = random_subspace(rng, n, k)
        # a far pair and a near pair (a small rotation of u)
        v = random_subspace(rng, n, k)
        w = Subspace.span(u.basis + 1e-6 * rng.standard_normal((n, k)), n)
        for other in (v, w):
            ref = np.linalg.norm(u.projector - other.projector, 2)
            assert abs(u.gap(other) - ref) <= 1e-13 * max(ref, 1.0)
            assert abs(other.gap(u) - u.gap(other)) <= 1e-15


def test_gap_of_unequal_dimensions_and_of_equal_bases():
    rng = rng_for(104)
    u = random_subspace(rng, 5, 2)
    assert u.gap(random_subspace(rng, 5, 3)) == 1.0
    assert u.gap(Subspace.zero(5)) == 1.0
    # a copy of the same basis is exactly at gap zero, as is the subspace itself
    assert u.gap(Subspace(5, u.basis.copy())) == 0.0
    assert u.gap(u) == 0.0
    assert Subspace.zero(5).gap(Subspace.zero(5)) == 0.0


def test_complement_is_computed_once():
    u = random_subspace(rng_for(105), 6, 2)
    assert u.complement() is u.complement()


def test_apply_maps_through_a_matrix():
    u = Subspace.span([E1], 2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert u.apply(swap).equals(Subspace.span([E2], 2))


def test_invariance_hand_cases():
    s = Subspace.span([E1], 2)
    invariant = Subspace.span([E1], 2)
    rep = invariance_report(invariant, s)
    assert rep.invariant and rep.splits and rep.projection_matches
    diagonal = Subspace.span([E1 + E2], 2)
    rep = invariance_report(diagonal, s)
    assert not rep.invariant
    assert rep.consistent
    assert rep.witness is not None
    with pytest.raises(InvarianceViolatedError):
        require_invariant(diagonal, s)
    # the full space and the zero space are invariant under anything
    assert invariance_report(Subspace.full(2), s).invariant
    assert invariance_report(Subspace.zero(2), s).invariant


def test_invariance_conditions_agree_on_random_pairs():
    for seed in range(60):
        rng = rng_for(103, seed)
        n = int(rng.integers(1, 7))
        m = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        assert invariance_report(m, s).consistent


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Subspace.full(2).gap(Subspace.full(3))


def test_orthogonal_sum_stacks_and_refuses_overlap():
    e = np.eye(3, dtype=complex)
    u, v = Subspace(3, e[:, :1]), Subspace(3, e[:, 1:])
    total = _orthogonal_sum(u, v, DEFAULT_TOL)
    assert np.array_equal(total.basis, e)
    tilted = Subspace(3, (e[:, :1] + e[:, 1:2]) / np.sqrt(2.0))
    with pytest.raises(InternalInconsistencyError, match="overlap"):
        _orthogonal_sum(u, tilted, DEFAULT_TOL)
    # an overlap within eq_abs is roundoff and passes
    nudged = Subspace(3, (e[:, 1:2] + 1e-10 * e[:, :1]) / np.sqrt(1.0 + 1e-20))
    assert _orthogonal_sum(u, nudged, DEFAULT_TOL).dim == 2
