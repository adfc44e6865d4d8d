"""Work done per trial by the verification harness."""

import sys
from functools import cached_property

import linrel
from linrel import block, schur
from linrel.generator import InstanceSpec, generate
from linrel.subspace import Subspace
from linrel.verify import run_verification


def _counting(original, calls):
    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    return counting


def test_verify_analyzes_each_instance_once(monkeypatch):
    original = block.analyze
    calls = []
    counting = _counting(original, calls)

    # patch every module that bound the function, whatever its import style
    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != linrel.__name__:
            continue
        if vars(module).get("analyze") is original:
            monkeypatch.setattr(module, "analyze", counting)
            patched.append(name)
    assert "linrel.block" in patched and "linrel.schur" in patched

    trials = 6
    report = run_verification(seed=5, trials=trials, max_dim=4)
    assert report.ok
    assert len(calls) == trials


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
