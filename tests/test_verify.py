"""Work done per result and per trial of the verification harness."""

import sys
from functools import cached_property

import numpy as np
import pytest

import linrel
from linrel import block, kernel, nonneg, schur
from linrel.errors import InternalInconsistencyError
from linrel.generator import InstanceSpec, generate
from linrel.kernel import Tolerances
from linrel.relation import LinearRelation
from linrel.subspace import Subspace
from linrel.verify import run_verification


def _counting(original, calls):
    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    return counting


def _patch_bindings(monkeypatch, original, name, replacement):
    """Rebind ``name`` in every linrel module that bound ``original``.

    Covers every import style; returns the names of the patched modules.
    """
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != linrel.__name__:
            continue
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)
            patched.append(modname)
    return patched


def test_verify_analyzes_each_instance_once(monkeypatch):
    original = block.analyze
    calls = []
    counting = _counting(original, calls)

    patched = _patch_bindings(monkeypatch, original, "analyze", counting)
    assert "linrel.block" in patched and "linrel.schur" in patched

    trials = 6
    report = run_verification(seed=5, trials=trials, max_dim=4)
    assert report.ok
    assert len(calls) == trials


def _count_validate(monkeypatch):
    calls = []
    counting = _counting(nonneg.validate, calls)
    assert _patch_bindings(monkeypatch, nonneg.validate, "validate", counting)
    return calls


def test_relations_proven_by_construction_are_not_revalidated(monkeypatch):
    calls = _count_validate(monkeypatch)
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    a.sqrt()
    a.scale(0.5)
    partial = LinearRelation.from_operator_and_mul(
        Subspace(2, np.eye(2)[:, :1]), np.eye(1), Subspace.zero(2))
    nonneg.friedrichs(partial)
    assert calls == []

    # the two diagonal corners and the two Gram products; the complement
    # is the orthogonal sum of the far Gram product and zero on S
    res = schur.schur_analysis(a, s)
    assert len(calls) == 4
    calls.clear()
    schur.maximality_probe(res, samples=10)
    assert calls == []


def test_verify_validates_seven_relations_per_trial(monkeypatch):
    calls = _count_validate(monkeypatch)
    trials = 3
    report = run_verification(seed=5, trials=trials, max_dim=4)
    assert report.ok
    assert len(calls) == 7 * trials


def test_validate_keeps_its_input_and_form_results_keep_mul():
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    t = a.rel
    assert nonneg.validate(t).rel is t
    res = schur.schur_analysis(a, s)
    for x in (a.sqrt(), a.scale(0.5), a.scale(0.0), res.schur):
        assert x.mul.equals(x.dom.complement())
        assert x.rel.mul.equals(x.mul) and x.rel.dom.equals(x.dom)


def test_verify_computes_projected_root_image_defect_once(monkeypatch):
    # pekarev (condition c1) and additive_decomposition both read the
    # defect; the result computes it on first use and keeps it
    prop = vars(schur.SchurResult).get("projected_root_image_defect")
    assert isinstance(prop, cached_property)
    calls = []
    monkeypatch.setattr(prop, "func", _counting(prop.func, calls))

    trials = 6
    report = run_verification(seed=5, trials=trials, max_dim=4)
    assert report.ok
    assert len(calls) == trials


def test_analyze_reuses_the_invariance_slices(monkeypatch):
    # proper domain and nontrivial multivalued part: every slice is nonzero
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    calls = []
    monkeypatch.setattr(Subspace, "intersect", _counting(Subspace.intersect, calls))

    rep = block.analyze(a, s, a.tol)
    # S and S-perp against dom(A) inside the invariance check, then mul(A)
    assert len(calls) == 4
    assert (rep.d1.dim, rep.d2.dim) == (2, 2)


def test_complement_of_s_is_taken_once(monkeypatch):
    calls = []
    counting = _counting(kernel.full_complement, calls)
    assert _patch_bindings(monkeypatch, kernel.full_complement, "full_complement", counting)

    # the generator, the invariance check, analyze and assemble all need S-perp
    a, s = generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1))
    res = schur.schur_analysis(a, s)
    assert sum(args[0] is s.basis for args in calls) == 1
    calls.clear()
    # every membership test reuses S-perp
    schur.maximality_probe(res, samples=10)
    assert not any(args[0] is s.basis for args in calls)


def test_custom_tolerances_reach_every_rank_decision(monkeypatch):
    tol = Tolerances(rank_rel=2e-10, eq_abs=2e-8)
    instances = [
        generate(InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1), tol),
        generate(InstanceSpec(ambient_dim=5, s_dim=2, d1_dim=1, d2_dim=2, seed=4), tol),
    ]
    calls = []
    counting = _counting(kernel.rank_cutoff, calls)
    assert _patch_bindings(monkeypatch, kernel.rank_cutoff, "rank_cutoff", counting)

    for a, s in instances:
        res = schur.schur_analysis(a, s, tol)
        schur.pekarev(res)
        schur.additive_decomposition(res)
    assert calls
    assert [args[1] for args in calls if args[1] is not tol] == []


def test_schur_analysis_work_budget(monkeypatch):
    # spectral norms go through the Gram eigenvalue route, and products
    # with a plain matrix never build the matrix's graph
    a, s = generate(InstanceSpec(ambient_dim=16, s_dim=8, d1_dim=6, d2_dim=6, seed=2))
    norm_calls, graph_calls = [], []
    counting_norm = _counting(np.linalg.norm, norm_calls)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    counting_graph = staticmethod(_counting(LinearRelation.from_matrix, graph_calls))
    monkeypatch.setattr(LinearRelation, "from_matrix", counting_graph)

    svd_inputs, orthonormal_callers = [], []
    original_svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        svd_inputs.append((m.shape, m.tobytes()))
        rows, cols = m.shape
        if 0 < cols <= rows and np.allclose(m.conj().T @ m, np.eye(cols), atol=1e-12):
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            orthonormal_callers.append(callers)
        return original_svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)

    schur.schur_analysis(a, s)
    matrix_2norms = [args for args in norm_calls
                     if len(args) > 1 and args[1] == 2 and np.ndim(args[0]) == 2]
    assert matrix_2norms == []
    assert graph_calls == []
    # a relation factors its graph's input block once, for dom, mul and
    # the operator part together; no SVD input repeats an earlier one
    assert len(set(svd_inputs)) == len(svd_inputs)
    # spanning sets independent by construction take a QR, and products
    # that are orthonormal by construction are used as they stand
    assert len(svd_inputs) <= 67
    by_construction = {"restrict", "ker", "compress_to", "_input_split"}
    assert [c & by_construction for c in orthonormal_callers if c & by_construction] == []


def test_operator_part_makes_at_most_one_svd(monkeypatch, relation_battery):
    calls = []
    monkeypatch.setattr(np.linalg, "svd", _counting(np.linalg.svd, calls))
    for t in relation_battery[:40]:
        fresh = LinearRelation(t.dim_in, t.dim_out, t.graph)
        calls.clear()
        dec = fresh.operator_part()
        # one SVD of the input block; mul's basis is a product that is
        # orthonormal as it stands
        assert len(calls) <= 1
        assert dec.domain.dim + dec.mul.dim == t.graph.dim


def test_operator_part_raises_when_the_rank_rule_cuts_real_input():
    # rank_rel = 0.9 cuts the input singular value 0.5, whose graph
    # direction is not multivalued: the operator part is inconsistent
    tol = Tolerances(rank_rel=0.9)
    pairs = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [0.0, 0.75 ** 0.5]], dtype=complex)
    rel = LinearRelation(2, 2, Subspace(4, pairs), tol=tol)
    with pytest.raises(InternalInconsistencyError):
        rel.operator_part(tol)
