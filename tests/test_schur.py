"""Complements, compressions, membership, and the independent matrix oracle.

The shorted-matrix oracle tests come first: everything else in this file is
allowed to lean on them.
"""

from dataclasses import replace

import numpy as np
import pytest

from linrel import schur as schur_module
from linrel.block import analyze
from linrel.errors import (
    ConditionViolatedError,
    InternalInconsistencyError,
    NotPsdError,
    NotSelfAdjointError,
)
from linrel.generator import InstanceSpec, generate
from linrel.kernel import DEFAULT_TOL, opnorm
from linrel.nonneg import NonnegSelfAdjointRelation, leq, validate
from linrel.relation import LinearRelation, identity_relation, mul_only, zero_operator_on
from linrel.schur import (
    additive_decomposition,
    anderson_trapp,
    certify,
    compress,
    is_member,
    maximality_probe,
    pekarev,
    schur_analysis,
    schur_complement,
)
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
SPAN_E1 = Subspace.span([E1], 2)
SPAN_E2 = Subspace.span([E2], 2)


def _psd(rows):
    return np.array(rows, dtype=complex)


def _e2_relation():
    return validate(LinearRelation.from_matrix(_psd([[2.0, 1.0], [1.0, 1.0]])))


def _e3_relation():
    return validate(LinearRelation.from_operator_and_mul(
        SPAN_E1, np.eye(1, dtype=complex), SPAN_E2))


def _e4_relation():
    return validate(mul_only(Subspace.full(2)))


# ---------------------------------------------------------------- the oracle


def test_shorted_identity():
    assert np.allclose(anderson_trapp(np.eye(2), SPAN_E1), np.diag([0.0, 1.0]),
                       atol=1e-12)


def test_shorted_dense():
    out = anderson_trapp(_psd([[2.0, 1.0], [1.0, 1.0]]), SPAN_E1)
    assert np.allclose(out, [[0.0, 0.0], [0.0, 0.5]], atol=1e-12)


def test_shorted_block_diagonal():
    out = anderson_trapp(np.diag([3.0, 7.0]).astype(complex), SPAN_E1)
    assert np.allclose(out, np.diag([0.0, 7.0]), atol=1e-12)


def test_shorted_matches_classical_formula():
    c = np.array([[1.0, 2.0, 0.0],
                  [0.0, 1.0 + 1.0j, 1.0],
                  [1.0, 0.0, 1.0 - 0.5j]], dtype=complex)
    m = c.conj().T @ c
    s = Subspace.span([np.eye(3)[0].astype(complex), np.eye(3)[1].astype(complex)], 3)
    a, b, d = m[:2, :2], m[:2, 2:], m[2:, 2:]
    classical = d - b.conj().T @ np.linalg.pinv(a) @ b
    out = anderson_trapp(m, s)
    assert np.allclose(out[2:, 2:], classical, atol=1e-10)
    assert np.allclose(out[:2, :], 0.0, atol=1e-10)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e9, 1e12])
def test_shorted_matrix_is_scale_equivariant(scale):
    # the formula runs at unit scale, so the absolute floor of the rank
    # cutoffs cuts no spectrum of a small matrix
    for seed in range(100):
        a, s = generate(InstanceSpec(8, 4, 4, 4, seed=seed))
        m = a.to_matrix()
        want = scale * anderson_trapp(m, s)
        assert opnorm(anderson_trapp(scale * m, s) - want) <= 1e-12 * scale * opnorm(m)


def test_shorted_matrix_of_a_subnormal_matrix():
    # 2^-k for the norm's exponent k would overflow; the formula still runs
    out = anderson_trapp(1e-310 * _psd([[2.0, 1.0], [1.0, 1.0]]), SPAN_E1)
    assert np.allclose(out, np.diag([0.0, 0.5e-310]), rtol=1e-9, atol=0.0)


def test_shorted_rejects_indefinite():
    with pytest.raises(NotPsdError):
        anderson_trapp(_psd([[1.0, 2.0], [2.0, 1.0]]), SPAN_E1)


# ------------------------------------------------- frozen complement values


def test_complement_of_identity():
    res = schur_analysis(validate(identity_relation(2)), SPAN_E1)
    assert np.allclose(res.schur.to_matrix(), np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(res.compression.to_matrix(), np.diag([1.0, 0.0]), atol=1e-12)
    assert res.l_space.equals(SPAN_E1)


def test_complement_of_dense_matrix():
    res = schur_analysis(_e2_relation(), SPAN_E1)
    assert np.allclose(res.schur.to_matrix(), [[0.0, 0.0], [0.0, 0.5]], atol=1e-12)
    assert np.allclose(res.compression.to_matrix(), [[2.0, 1.0], [1.0, 0.5]], atol=1e-12)
    assert max(res.diagnostics.values()) < 1e-10


def test_complement_with_mul():
    res = schur_analysis(_e3_relation(), SPAN_E1)
    expected = zero_operator_on(SPAN_E1, 2).cw_sum(mul_only(SPAN_E2))
    assert res.schur.rel.graph_gap(expected) < 1e-10
    assert res.compression.rel.graph_gap(_e3_relation().rel) < 1e-10
    assert res.l_space.equals(SPAN_E1)


def test_complement_of_pure_mul():
    res = schur_analysis(_e4_relation(), SPAN_E1)
    assert res.schur.dom.equals(SPAN_E1)
    assert res.schur.mul.equals(SPAN_E2)
    assert np.allclose(res.schur.op_compressed, [[0.0]], atol=1e-12)
    assert res.compression.rel.equals(_e4_relation().rel)


def test_complement_matches_oracle_on_matrices():
    rng = np.random.default_rng(321)
    for n in (2, 3, 5):
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = c.conj().T @ c
        s = Subspace.span([rng.standard_normal(n) + 1j * rng.standard_normal(n)], n)
        a = validate(LinearRelation.from_matrix(m))
        formula = schur_complement(a, s)
        assert np.allclose(formula.to_matrix(), anderson_trapp(m, s), atol=1e-8)


def test_compression_shares_dom_and_mul(battery_analyses):
    for _, a, _, _, res in battery_analyses[:30]:
        assert res.compression.dom.gap(a.dom) < 1e-8
        assert res.compression.mul.gap(a.mul) < 1e-8


# -------------------------------------------------------- membership and max


def test_member_zero_and_complement():
    a = _e2_relation()
    zero = validate(LinearRelation.from_matrix(np.zeros((2, 2), dtype=complex)))
    assert is_member(a, SPAN_E1, zero)
    assert is_member(a, SPAN_E1, schur_complement(a, SPAN_E1))


def test_member_boundary():
    a = _e2_relation()
    assert is_member(a, SPAN_E1, validate(LinearRelation.from_matrix(np.diag([0.0, 0.5]))))
    assert not is_member(a, SPAN_E1, validate(LinearRelation.from_matrix(np.diag([0.0, 0.6]))))


def test_member_needs_range_in_complement():
    a = _e2_relation()
    sideways = validate(LinearRelation.from_matrix(np.diag([0.5, 0.0])))
    assert not is_member(a, SPAN_E1, sideways)


def test_maximality_identity():
    a = validate(identity_relation(2))
    report = maximality_probe(schur_analysis(a, SPAN_E1), seed=5, samples=50)
    assert report.ok
    assert report.members + report.rejected == 50
    assert report.members >= 25


def test_maximality_dense():
    report = maximality_probe(schur_analysis(_e2_relation(), SPAN_E1),
                              seed=11, samples=100)
    assert report.ok and report.members >= 50


def test_scaled_complement_is_member():
    a = _e2_relation()
    res = schur_analysis(a, SPAN_E1)
    assert is_member(a, SPAN_E1, res.schur.scale(1.0))
    assert is_member(a, SPAN_E1, res.schur.scale(0.3))


# ------------------------------------------------------------ decompositions


def test_additive_identity():
    dec = additive_decomposition(schur_analysis(validate(identity_relation(2)), SPAN_E1))
    assert dec.verified and dec.sum_gap < 1e-12
    total = dec.compression.rel.add(dec.schur.rel)
    assert total.equals(identity_relation(2))


def test_additive_dense():
    dec = additive_decomposition(schur_analysis(_e2_relation(), SPAN_E1))
    assert dec.verified
    assert np.allclose(dec.compression.to_matrix() + dec.schur.to_matrix(),
                       [[2.0, 1.0], [1.0, 1.0]], atol=1e-10)


def test_additive_absorbs_mul():
    dec = additive_decomposition(schur_analysis(_e3_relation(), SPAN_E1))
    assert dec.verified
    assert dec.compression.rel.add(dec.schur.rel).graph_gap(_e3_relation().rel) < 1e-10


def test_complement_idempotent():
    a = _e2_relation()
    first = schur_complement(a, SPAN_E1)
    second = schur_complement(first, SPAN_E1)
    assert second.rel.equals(first.rel)


def test_complement_idempotent_on_battery(battery_analyses):
    for _, _, s, _, res in battery_analyses[:15]:
        again = schur_complement(res.schur, s)
        assert again.rel.graph_gap(res.schur.rel) < 1e-8


def test_complement_below_and_ranged(battery_analyses):
    for _, a, s, _, res in battery_analyses[:30]:
        assert leq(res.schur, a)
        assert res.rep.s_perp.containment_defect(res.schur.rel.ran) < 1e-8


# ------------------------------------------------------- projection route


def test_projection_route_matches_formula():
    for rel in (_e2_relation(), _e3_relation(), _e4_relation(),
                validate(identity_relation(2))):
        out = pekarev(schur_analysis(rel, SPAN_E1))
        assert out.diagnostics["schur_gap"] < 1e-10
        assert out.diagnostics["compression_gap"] < 1e-10
        assert max(out.diagnostics["condition_residuals"]) < 1e-10


def test_projection_route_pivot_spaces():
    out = pekarev(schur_analysis(_e3_relation(), SPAN_E1))
    assert out.l_space.equals(SPAN_E1)
    out = pekarev(schur_analysis(_e4_relation(), SPAN_E1))
    assert out.l_space.dim == 0


def test_projection_route_on_battery(battery_analyses):
    for _, a, s, _, res in battery_analyses[:30]:
        out = pekarev(res)
        assert out.diagnostics["schur_gap"] < 1e-8
        assert out.diagnostics["compression_gap"] < 1e-8


def test_projection_route_rejects_a_contraction_leaving_the_far_domain():
    # g = u x* with u in S and x half in D2, half in M2: g* g sends the D2
    # part of x into M2, so condition c2 reads 1/2
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    res = schur_analysis(a, s)
    rep = res.rep
    assert rep.m2.dim == 1
    x = (rep.d2.basis[:, :1] + rep.m2.basis) / np.sqrt(2.0)
    with pytest.raises(ConditionViolatedError):
        pekarev(replace(res, rep=_with_ambient_g(rep, s.basis[:, :1] @ x.conj().T)))


# ------------------------------------------- certificates in coordinates


def _with_ambient_g(rep, g):
    """A copy of ``rep`` whose ambient g is ``g``.

    The block analysis stores g in D1 x D2 coordinates, where it vanishes on
    M2 by construction; a g that does not is set on the ambient matrix the
    certificates build from those coordinates.
    """
    out = replace(rep)
    out.g = g
    return out


def _with_tampered_analysis(monkeypatch, tamper):
    """Make ``schur_analysis`` read the block analysis ``tamper(rep)``."""
    monkeypatch.setattr(schur_module, "analyze", lambda a, s: tamper(analyze(a, s)))


def test_row_with_a_corrupted_contraction_is_caught(monkeypatch):
    # the row a^{1/2} P_S - g d^{1/2} P_Sp gives a compression that is not
    # below A, which the domination certificate raises on
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    _with_tampered_analysis(monkeypatch, lambda rep: replace(rep, g_c=-rep.g_c))
    with pytest.raises(InternalInconsistencyError, match="compression is not dominated"):
        schur_analysis(a, s)


def test_row_mul_gap_sees_a_contraction_leaving_m2_alive(monkeypatch):
    # g must vanish on M2; one that sends M2 into S adds a multivalued
    # direction to the row, read in S coordinates against M1
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    assert certify(schur_analysis(a, s)).diagnostics["row_mul_gap"] <= 1e-12
    _with_tampered_analysis(monkeypatch, lambda rep: _with_ambient_g(
        rep, rep.g + s.basis[:, :1] @ rep.m2.basis.conj().T))
    diag = certify(schur_analysis(a, s)).diagnostics
    assert diag["row_mul_gap"] == 1.0
    assert diag["compression_alt_gap"] > 0.1


def test_far_gram_alt_gap_sees_a_defect_root_the_complement_did_not_use():
    # certify builds T = Dg d^{1/2} from the block analysis it is handed and
    # compares T* T with the complement schur_analysis returned
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    res = schur_analysis(a, s)
    tampered = replace(res, rep=replace(res.rep, dg_c=0.5 * res.rep.dg_c), diagnostics={})
    assert certify(tampered).diagnostics["far_gram_alt_gap"] > 0.1
    assert certify(res).diagnostics["far_gram_alt_gap"] <= 1e-12


# seeds on which certify still raises, so the pinned defect stays in view
@pytest.mark.parametrize("seed, scale, error", [
    (54, 1e7, InternalInconsistencyError),
    (1, 1e8, InternalInconsistencyError),
    (5, 1e8, NotSelfAdjointError),
])
def test_closed_forms_hold_where_the_gram_products_give_out(seed, scale, error):
    """At spectrum scale 1e7 and 1e8 the Gram products fail to validate.

    Their operator-part solve residual or Hermitian defect grows with the
    scale against the absolute ``eq_abs``, so :func:`certify` raises as
    ``schur_analysis`` raised when it computed both results that way.  The
    closed forms stay exact: both results are ``scale`` times the scale-1
    results, since ``generate`` scales the form.
    """
    base = schur_analysis(*generate(InstanceSpec(8, 4, 4, 4, seed=seed)))
    a, s = generate(InstanceSpec(8, 4, 4, 4, seed=seed, spectrum_scale=scale))
    res = schur_analysis(a, s)
    norm = opnorm(a.op_ambient)
    for name in ("schur", "compression"):
        got, want = getattr(res, name), getattr(base, name)
        assert opnorm(got.op_ambient - scale * want.op_ambient) <= 1e-12 * norm
        assert got.dom.gap(want.dom) <= 1e-12
    with pytest.raises(error):
        certify(res)


def _tilted_line(theta):
    """A0 = [[2]] on span(cos(theta) e1 + sin(theta) e3), with S = span(e1, e2)."""
    e = np.eye(3, dtype=complex)
    dom = Subspace(3, np.cos(theta) * e[:, :1] + np.sin(theta) * e[:, 2:])
    return (NonnegSelfAdjointRelation(dom, np.array([[2.0]], dtype=complex), DEFAULT_TOL),
            Subspace(3, e[:, :2]))


def test_a_domain_tilted_within_eq_abs_splits_as_it_was_accepted():
    # the invariance residual is about theta, within eq_abs, so the check
    # accepts the domain, and the block analysis splits it as it stands:
    # D1 is all of it, D2 is zero
    a, s = _tilted_line(1e-9)
    res = certify(schur_analysis(a, s))
    assert (res.rep.d1.dim, res.rep.d2.dim) == (1, 0)
    flat = schur_analysis(*_tilted_line(0.0))
    for name in ("schur", "compression"):
        got, want = getattr(res, name), getattr(flat, name)
        assert opnorm(got.op_ambient - want.op_ambient) <= 1e-8
        assert got.dom.gap(want.dom) <= 1e-8
