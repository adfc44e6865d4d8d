"""Work done per trial by the verification harness."""

import sys

import linrel
from linrel import block
from linrel.verify import run_verification


def test_verify_analyzes_each_instance_once(monkeypatch):
    original = block.analyze
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

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
