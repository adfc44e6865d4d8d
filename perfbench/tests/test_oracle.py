"""The oracle against hand-computed complements and compressions."""

import numpy as np

import oracle


def _graph_of_matrix(m):
    n = m.shape[0]
    return np.vstack([np.eye(n), m]).astype(np.complex128)


def test_bounded_two_by_two():
    # A = [[2, 1], [1, 1]], S = span{e1}: complement diag(0, 1/2),
    # compression [[2, 1], [1, 1/2]]
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    s = np.array([[1.0], [0.0]], dtype=np.complex128)
    scale, (c_op, c_mul), (p_op, p_mul) = oracle.expected(_graph_of_matrix(a), s)
    assert np.allclose(c_op, [[0, 0], [0, 0.5]], atol=1e-14)
    assert np.allclose(p_op, [[2, 1], [1, 0.5]], atol=1e-14)
    assert c_mul.shape[1] == 0 and p_mul.shape[1] == 0
    assert np.isclose(scale, np.linalg.norm(a, 2))


def test_relation_with_multivalued_part():
    # acts as 3 on span{e1} with multivalued part span{e2}; S = span{e1}.
    # D1 = span{e1}, D2 = 0: the complement is the zero action on e1 with
    # mul span{e2}, and the compression is the relation itself.
    graph = np.array([[1, 0], [0, 0], [3, 0], [0, 1]], dtype=np.complex128)
    s = np.array([[1.0], [0.0]], dtype=np.complex128)
    scale, (c_op, c_mul), (p_op, p_mul) = oracle.expected(graph, s)
    assert np.allclose(c_op, 0, atol=1e-14)
    assert np.allclose(p_op, [[3, 0], [0, 0]], atol=1e-14)
    for mul in (c_mul, p_mul):
        assert np.allclose(np.abs(mul.ravel()), [0, 1])
    assert oracle.gap(graph, p_op, p_mul, scale) < 1e-14
    zero_on_e1 = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=np.complex128)
    assert oracle.gap(zero_on_e1, c_op, c_mul, scale) < 1e-14
    # the same action without the multivalued part is infinitely far
    assert oracle.gap(np.vstack([np.eye(2), np.zeros((2, 2))]), c_op, c_mul,
                      scale) == float("inf")


def test_graph_basis_need_not_be_orthonormal():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    a = m @ m.T
    graph = _graph_of_matrix(a)
    mixed = graph @ (rng.standard_normal((4, 4)) + np.eye(4) * 3)
    _, mul, op = oracle.operator_part(mixed, 4)
    assert mul.shape[1] == 0
    assert np.allclose(op, a, atol=1e-10)
