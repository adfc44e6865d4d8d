"""One tolerance per object: inputs carry their ``Tolerances``, results pass it on."""

import inspect

import numpy as np

from linrel import block, kernel, nonneg, relation, schur
from linrel.generator import InstanceSpec, generate
from linrel.kernel import Tolerances
from linrel.relation import LinearRelation

from test_verify import _counting, _patch_bindings

CUSTOM = Tolerances(rank_rel=1e-6, eq_abs=1e-6)
SPECS = [InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1),
         InstanceSpec(ambient_dim=5, s_dim=2, d1_dim=2, d2_dim=3, seed=4)]


def _exercise(a, s):
    """Every tolerance-reading operation on one instance; returns the results."""
    rel = a.rel
    m = np.eye(a.dim, dtype=complex)
    corner = rel.restrict(s).map_output(s.projector)  # graph inside S x S
    res = schur.schur_analysis(a, s)
    schur.pekarev(res)
    schur.additive_decomposition(res)
    schur.maximality_probe(res, samples=4)
    return {
        "map_output": rel.map_output(m),
        "pull_input": rel.pull_input(m),
        "restrict": rel.restrict(s),
        "compose": rel.compose(rel),
        "compose with a default-tolerance factor": rel.compose(LinearRelation.from_matrix(m)),
        "add": rel.add(rel),
        "cw_sum": rel.cw_sum(rel),
        "compress_to": corner.compress_to(s, s),
        "adjoint_between": corner.adjoint_between(s, s),
        "operator_part": rel.operator_part(),
        "operator_part().as_relation()": rel.operator_part().as_relation(),
        "operator_part().reassemble()": rel.operator_part().reassemble(),
        "validate": nonneg.validate(rel),
        "gram": nonneg.gram(rel),
        "friedrichs": nonneg.friedrichs(rel),
        "analyze": block.analyze(a, s),
        "assemble": block.assemble(res.rep.a, res.rep.b, res.rep.c, res.rep.d, s),
        "schur_analysis.rep": res.rep,
        "schur_analysis.schur": res.schur,
        "schur_analysis.compression": res.compression,
        "schur_complement": schur.schur_complement(a, s),
        "compress": schur.compress(a, s),
    }


def test_results_carry_the_input_tolerance():
    for spec in SPECS:
        a, s = generate(spec, CUSTOM)
        assert a.tol is CUSTOM and a.rel.tol is CUSTOM
        results = _exercise(a, s)
        assert {name: out.tol for name, out in results.items()
                if out.tol is not CUSTOM} == {}
        assert results["validate"].rel.tol is CUSTOM
        assert results["schur_analysis.schur"].rel.tol is CUSTOM


def test_rank_decisions_see_only_the_input_tolerance(monkeypatch):
    instances = [generate(spec, CUSTOM) for spec in SPECS]
    calls = []
    counting = _counting(kernel.rank_cutoff, calls)
    assert _patch_bindings(monkeypatch, kernel.rank_cutoff, "rank_cutoff", counting)

    for a, s in instances:
        _exercise(a, s)
        assert schur.is_member(a, s, schur.schur_complement(a, s))
        assert nonneg.leq(a.sqrt(), a.sqrt())
        nonneg.order_contraction(a, a)
    assert calls
    assert [args[1] for args in calls if args[1] is not CUSTOM] == []


# Raw-data constructors take the tolerance every later operation reads; an
# operator-part decomposition keeps the tolerance of its relation.
TOL_ALLOWED = {
    "linrel.relation.LinearRelation",
    "linrel.relation.LinearRelation.from_graph",
    "linrel.relation.LinearRelation.from_matrix",
    "linrel.relation.LinearRelation.from_operator_and_mul",
    "linrel.relation.LinearRelation.from_images_and_mul",
    "linrel.relation.zero_operator_on",
    "linrel.relation.mul_only",
    "linrel.nonneg.NonnegSelfAdjointRelation",
    "linrel.schur.anderson_trapp",
    "linrel.relation.OperatorPartDecomposition",
}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        qualified = f"{module.__name__}.{name}"
        if inspect.isfunction(obj):
            yield qualified, obj
        elif inspect.isclass(obj):
            yield qualified, obj
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{qualified}.{attr}", member


def test_tol_is_a_parameter_only_of_raw_data_constructors():
    callables = dict(c for mod in (relation, nonneg, block, schur)
                     for c in _public_callables(mod))
    # the walk reaches the methods and functions that read a stored tolerance
    assert {"linrel.relation.LinearRelation.compose",
            "linrel.relation.OperatorPartDecomposition.as_relation",
            "linrel.nonneg.validate", "linrel.block.analyze",
            "linrel.schur.schur_analysis"} <= callables.keys()
    with_tol = {name for name, obj in callables.items()
                if "tol" in inspect.signature(obj).parameters}
    assert with_tol == TOL_ALLOWED
