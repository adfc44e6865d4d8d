"""Independent oracle for the Schur complement and the compression.

Uses numpy alone: no linrel function is called, so a defect shared by the
library's routes (including ``linrel.schur.anderson_trapp``, which runs on
the same kernel) cannot hide here.

Work happens in the coordinates of the operator part A0 on dom(A).  The
projection onto S leaves dom(A) invariant, so dom(A) = D1 + D2 with
D1 = P_S dom(A) inside S and D2 = P_{S-perp} dom(A) inside S-perp.  With the
blocks a0, b0, d0 of A0 over D1 and D2:

* the complement is 0 on S plus the shorted block d0 - b0* a0^+ b0 on D2,
  with multivalued part P_{S-perp} mul(A);
* the compression is A0 minus that block on dom(A), with multivalued part
  mul(A).

Relations are read from graph bases (input components on top), the form
both ``LinearRelation.graph.basis`` and the JSON wire format carry.
"""

from __future__ import annotations

import numpy as np

# Rank cutoff relative to the largest singular value (floored at 1, since
# graph and projector bases are at unit scale).  Benchmark instances keep
# spectra inside [1e-3, 1e3], so a graph's input block has singular values
# either above ~1e-3 or at roundoff level; any cutoff in between agrees.
RANK_REL = 1e-9
# An op passes when its relative distance to the oracle stays below this,
# the library's default equality tolerance.
PASS_GAP = 1e-8


def _orth(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = int(np.sum(s > RANK_REL * max(float(s[0]), 1.0)))
    return u[:, :r]


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def operator_part(graph: np.ndarray, n: int):
    """(domain basis, mul basis, ambient operator part) of a square relation.

    ``graph`` spans the graph in C^n x C^n; it need not be orthonormal.  For
    x in the domain, any c with X c = x gives a value Y c; removing the
    multivalued part leaves the single value, so the operator part is
    (1 - P_mul) Y X^+, which vanishes off the domain.
    """
    x, y = graph[:n], graph[n:]
    if graph.shape[1] == 0:
        z = np.zeros((n, 0), dtype=np.complex128)
        return z, z, np.zeros((n, n), dtype=np.complex128)
    u, s, vh = np.linalg.svd(x, full_matrices=True)
    r = int(np.sum(s > RANK_REL * max(float(s[0]) if s.size else 0.0, 1.0)))
    dom = u[:, :r]
    mul = _orth(y @ vh[r:].conj().T)
    x_pinv = vh[:r].conj().T @ ((1.0 / s[:r])[:, None] * u[:, :r].conj().T)
    op = (np.eye(n) - _projector(mul)) @ y @ x_pinv
    return dom, mul, 0.5 * (op + op.conj().T)


def expected(graph: np.ndarray, s_basis: np.ndarray):
    """Expected complement and compression of the relation by span(s_basis).

    Returns ``(scale, (complement_op, complement_mul), (compression_op,
    compression_mul))`` with ambient operator parts and mul bases; ``scale``
    is the operator norm of A0, the yardstick for relative distances.
    """
    n = s_basis.shape[0]
    dom, mul, a_op = operator_part(graph, n)
    ps = _projector(_orth(s_basis))
    b1 = _orth(ps @ dom)
    b2 = _orth(dom - ps @ dom)
    a0 = b1.conj().T @ a_op @ b1
    b0 = b1.conj().T @ a_op @ b2
    d0 = b2.conj().T @ a_op @ b2
    # d0 - b0* a0^+ b0 through the root of a0: y = a0^{+1/2} b0
    w, v = np.linalg.eigh(0.5 * (a0 + a0.conj().T))
    keep = w > RANK_REL * max(float(w[-1]) if w.size else 0.0, 1.0)
    y = (1.0 / np.sqrt(w[keep]))[:, None] * (v[:, keep].conj().T @ b0)
    shorted = b2 @ (d0 - y.conj().T @ y) @ b2.conj().T
    shorted = 0.5 * (shorted + shorted.conj().T)
    comp_mul = _orth(mul - ps @ mul)
    return _opnorm(a_op), (shorted, comp_mul), (a_op - shorted, mul)


def gap(graph: np.ndarray, want_op: np.ndarray, want_mul: np.ndarray,
        scale: float) -> float:
    """Relative distance of the relation with this graph to the expected one.

    The larger of the operator-part distance over ``scale`` and the gap
    between the multivalued parts' projectors; infinite when the mul
    dimensions differ.
    """
    n = want_op.shape[0]
    _, mul, op = operator_part(graph, n)
    if mul.shape[1] != want_mul.shape[1]:
        return float("inf")
    op_gap = _opnorm(op - want_op) / scale if scale > 0 else _opnorm(op)
    mul_gap = _opnorm(_projector(mul) - _projector(want_mul))
    return max(op_gap, mul_gap)


def columns_from_json(entries: list, length: int) -> np.ndarray:
    """Columns from the wire format: a list of vectors of [re, im] pairs."""
    if not entries:
        return np.zeros((length, 0), dtype=np.complex128)
    arr = np.asarray(entries, dtype=np.float64)
    return (arr[..., 0] + 1j * arr[..., 1]).T


def graph_from_json(obj: dict) -> np.ndarray:
    """Graph basis of a relation dumped in the wire format's graph form."""
    if obj["repr"]["type"] != "graph":
        raise ValueError("oracle reads relations in graph form only")
    return columns_from_json(obj["repr"]["basis"], obj["dim_in"] + obj["dim_out"])
