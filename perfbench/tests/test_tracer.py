"""The tracer's wrappers: reach, span structure, and no effect on outputs.

Each workload runs a few ops untraced and then the same ops traced, once
for the whole module; the tests below inspect those runs.
"""

import sys

import numpy as np
import pytest

import linrel
import linrel.cli
from run import run_ops
from tracer import LAYERS, Tracer, traced
from workloads import WORKLOADS

# Ops per workload: every instance shape and every subcommand at least once.
OPS = {"schur-small": 24, "schur-large": 2, "verify": 6, "cli-schur": 12}

# Public callables no op reaches.  The benchmark times the paths a user runs;
# these are other entry points, helpers only tests call, or (the report's
# to_json and to_obj) what the verify check calls between ops.
NOT_EXERCISED = {
    "block.operator_block",
    "nonneg.gram",
    "nonneg.order_contraction",
    "relation.LinearRelation.adjoint_between",
    "relation.LinearRelation.closure",
    "relation.LinearRelation.equals",
    "relation.LinearRelation.from_graph",
    "relation.LinearRelation.is_operator",
    "relation.LinearRelation.scale_output",
    "relation.OperatorPartDecomposition.ambient_matrix",
    "relation.identity_relation",
    "schur.compress",
    "schur.schur_complement",
    "serialize.dump_block_representation",
    "serialize.dump_matrix",
    "serialize.dump_schur_result",
    "serialize.load_matrix",
    "subspace.Subspace.apply",
    "subspace.Subspace.contains_vector",
    "subspace.Subspace.full",
    "subspace.Subspace.span",
    "verify.VerificationReport.to_json",
    "verify.VerificationReport.to_obj",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, count in OPS.items():
        wl = WORKLOADS[name]
        inputs = wl.build(11, tmp_path_factory.mktemp(name))
        wl.warmup(inputs)
        plain = run_ops(wl, inputs, count=count)
        tracer = Tracer(keep_spans=True)
        with traced(tracer) as inst:
            records = run_ops(wl, inputs, count=count, tracer=tracer)
        out[name] = (plain, records, tracer, dict(inst.wrapped))
    return out


def test_every_binding_is_rebound_and_restored():
    named = [(linrel.schur, "analyze"), (linrel.verify, "analyze"),
             (linrel.verify, "pekarev"), (linrel.cli, "opnorm"),
             (linrel, "schur_analysis"), (np.linalg, "svd")]
    before = {(id(ns), attr): getattr(ns, attr) for ns, attr in named}
    with traced(Tracer()) as inst:
        originals = {id(fn) for fn in inst.wrapped.values()}
        for key, mod in sys.modules.items():
            if key == "linrel" or key.startswith("linrel."):
                for attr, value in vars(mod).items():
                    assert id(value) not in originals, f"{key}.{attr} still unwrapped"
        for ns, attr in named:
            assert getattr(ns, attr) is not before[(id(ns), attr)]
    for ns, attr in named:
        assert getattr(ns, attr) is before[(id(ns), attr)]


def test_every_wrapped_function_records_calls(runs):
    called, wrapped = set(), set()
    for _, _, tracer, names in runs.values():
        called |= {n for n, c in tracer.func_calls.items() if c}
        wrapped |= set(names)
    assert wrapped - called <= NOT_EXERCISED, sorted(wrapped - called - NOT_EXERCISED)
    for layer in LAYERS:
        assert any(t.layer_calls[layer] for _, _, t, _ in runs.values()), layer
    # the import bindings named in the module docstring of tracer.py
    by_workload = {name: t.func_calls for name, (_, _, t, _) in runs.items()}
    assert by_workload["schur-small"]["block.analyze"] > 0
    assert by_workload["verify"]["block.analyze"] == 2 * OPS["verify"]
    assert by_workload["verify"]["schur.pekarev"] == OPS["verify"]
    assert by_workload["cli-schur"]["kernel.opnorm"] > 0
    assert by_workload["schur-large"]["kernel.opnorm"] > 0


def test_spans_nest_and_self_times_add_up(runs):
    for name, (_, records, tracer, _) in runs.items():
        spans = {(s[0], s[1]): s for s in tracer.spans}
        roots = {}
        self_sum = {}
        for op_id, span_id, parent, layer, _, start, end, self_s in tracer.spans:
            assert op_id is not None
            self_sum[op_id] = self_sum.get(op_id, 0.0) + self_s
            assert self_s >= -1e-9
            if parent is None:
                assert layer == "op"
                roots[op_id] = end - start
                continue
            assert layer in LAYERS
            p = spans[(op_id, parent)]
            assert p[5] <= start <= end <= p[6], name
        assert sorted(roots) == [r[0] for r in records]
        for i, elapsed, *_ in records:
            assert self_sum[i] == pytest.approx(roots[i], rel=1e-9, abs=1e-9)
            assert roots[i] <= elapsed < roots[i] + 1e-3


def test_traced_outputs_equal_untraced(runs):
    for name, (plain, records, _, _) in runs.items():
        assert all(r[2] for r in plain + records), name
        assert [r[4] for r in plain] == [r[4] for r in records], name


def test_library_errors_are_counted_and_propagate():
    tracer = Tracer()
    with traced(tracer):
        with tracer.op(0):
            with pytest.raises(linrel.DimensionMismatchError):
                linrel.kernel.hermitian_eig(np.zeros((2, 3)))
    assert tracer.layer_errors["kernel"] == 1
    assert tracer.layer_calls["kernel"] >= 1

