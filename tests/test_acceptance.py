"""Acceptance suite: the nine gate criteria, one test (and one verdict line) each.

Run with ``-s`` to see the verdict lines on passing runs; under plain ``-v``
the per-test PASSED/FAILED markers carry the same information.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from linrel.block import analyze, factorize, operator_block, reconstruct_b, reconstruct_c
from linrel.generator import random_psd, random_subspace, rng_for
from linrel.kernel import DEFAULT_TOL, opnorm
from linrel.nonneg import gram, gram_with_diagnostics, leq, validate
from linrel.relation import LinearRelation, mul_only, zero_operator_on
from linrel.schur import (
    additive_decomposition,
    anderson_trapp,
    is_member,
    maximality_probe,
    pekarev,
    schur_analysis,
    schur_complement,
)
from linrel.subspace import Subspace, invariance_report

ORACLE_SEED = 4242
SRC = Path(__file__).resolve().parents[1] / "src"

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
SPAN_E1 = Subspace.span([E1], 2)
SPAN_E2 = Subspace.span([E2], 2)


def _verdict(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {mark}{suffix}")
    return ok


def test_criterion_1_worked_instance():
    a = validate(LinearRelation.from_matrix(
        np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)))
    rep = analyze(a, SPAN_E1)
    res = schur_analysis(a, SPAN_E1)
    w, z = factorize(rep)
    column = LinearRelation.from_matrix(w).compose(z)

    worst = max(
        float(np.abs(res.schur.to_matrix() - [[0.0, 0.0], [0.0, 0.5]]).max()),
        float(np.abs(res.compression.to_matrix() - [[2.0, 1.0], [1.0, 0.5]]).max()),
        abs(rep.g[0, 1] - 1.0 / np.sqrt(2.0)),
        float(np.abs(gram(column).to_matrix() - [[2.0, 1.0], [1.0, 1.0]]).max()),
        float(np.abs(res.schur.to_matrix()
                     - anderson_trapp(a.to_matrix(), SPAN_E1)).max()),
    )
    ok = worst <= 1e-12
    assert _verdict(1, "worked 2x2 instance", ok, f"worst entry gap {worst:.2e}")


def test_criterion_2_relation_calculus(relation_battery):
    start = time.monotonic()
    worst = 0.0
    for t in relation_battery:
        adj = t.adjoint()
        worst = max(
            worst,
            adj.adjoint().graph_gap(t),
            adj.mul.gap(t.dom.complement()),
            adj.ker.gap(t.ran.complement()),
            t.operator_part().reassemble().graph_gap(t),
        )
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    assert _verdict(2, "relation calculus on 1000 relations", ok,
                    f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_vonneumann_identities(relation_battery):
    worst = 0.0
    for t in relation_battery:
        _, diag = gram_with_diagnostics(t)
        worst = max(worst, max(diag.values()))
    ok = worst < 1e-8
    assert _verdict(3, "Gram-product identities on 1000 relations", ok,
                    f"worst residual {worst:.2e}")


def test_criterion_4_block_suite(battery_analyses):
    worst_gap = 0.0
    worst_norm = 0.0
    splits_agree = True
    for _, a, s, rep, _ in battery_analyses:
        operator_block(rep)
        worst_gap = max(
            worst_gap,
            rep.diagnostics["assemble_roundtrip"],
            reconstruct_b(rep).graph_gap(rep.b),
            reconstruct_c(rep).graph_gap(rep.c),
            rep.diagnostics["s_split"],
            rep.diagnostics["s_perp_split"],
        )
        worst_norm = max(worst_norm, rep.diagnostics["g_norm_excess"])
        report = invariance_report(a.dom, s)
        splits_agree = splits_agree and report.invariant and report.consistent
    ok = worst_gap < 1e-8 and worst_norm <= 1e-10 and splits_agree
    assert _verdict(4, "block suite on 1000 instances", ok,
                    f"worst gap {worst_gap:.2e}, norm excess {worst_norm:.2e}")


def test_criterion_5_schur_suite(battery_analyses):
    worst = 0.0
    members_ok = True
    total_members = 0
    for i, (_, a, s, _, res) in enumerate(battery_analyses):
        worst = max(
            worst,
            res.rep.s_perp.containment_defect(res.schur.rel.ran),
            res.diagnostics["far_gram_alt_gap"],
        )
        members_ok = members_ok and is_member(a, s, res.schur)
        probe = maximality_probe(res, seed=ORACLE_SEED + i, samples=40)
        members_ok = members_ok and probe.ok and probe.members >= 20
        total_members += probe.members
    ok = worst < 1e-8 and members_ok
    assert _verdict(5, "complement maximality on 1000 instances", ok,
                    f"worst gap {worst:.2e}, {total_members} members, 0 violations")


def test_criterion_6_bounded_case_oracle():
    worst = 0.0
    for i in range(500):
        rng = rng_for(ORACLE_SEED, 6, i)
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        m = random_psd(rng, n, scale=float(rng.uniform(0.25, 4.0)))
        s = random_subspace(rng, n, k)
        formula = schur_complement(validate(LinearRelation.from_matrix(m)), s)
        gap = float(np.abs(formula.to_matrix() - anderson_trapp(m, s)).max())
        worst = max(worst, gap)
    ok = worst < 1e-8
    assert _verdict(6, "matrix formula vs shorted-matrix oracle, 500 draws", ok,
                    f"worst entry gap {worst:.2e}")


def test_criterion_7_decomposition_suite(battery_analyses):
    worst = 0.0
    all_true = True
    for _, a, s, _, res in battery_analyses:
        dec = additive_decomposition(res)
        pek = pekarev(res)
        all_true = all_true and dec.verified and leq(res.compression, a)
        worst = max(
            worst,
            dec.sum_gap,
            pek.diagnostics["schur_gap"],
            pek.diagnostics["compression_gap"],
            max(pek.diagnostics["condition_residuals"]),
        )
    ok = worst < 1e-8 and all_true
    assert _verdict(7, "additive splitting and projection route", ok,
                    f"worst gap {worst:.2e}")


def test_criterion_8_degenerate_instances():
    e3 = validate(LinearRelation.from_operator_and_mul(
        SPAN_E1, np.eye(1, dtype=complex), SPAN_E2))
    res3 = schur_analysis(e3, SPAN_E1)
    zero_with_mul = zero_operator_on(SPAN_E1, 2).cw_sum(mul_only(SPAN_E2))
    worst = max(
        res3.schur.rel.graph_gap(zero_with_mul),
        res3.compression.rel.graph_gap(e3.rel),
    )

    e4 = validate(mul_only(Subspace.full(2)))
    res4 = schur_analysis(e4, SPAN_E1)
    worst = max(
        worst,
        res4.schur.rel.graph_gap(zero_with_mul),
        res4.compression.rel.graph_gap(e4.rel),
    )
    ok = worst < 1e-10
    assert _verdict(8, "degenerate instances with multivalued parts", ok,
                    f"worst gap {worst:.2e}")


def test_criterion_9_deterministic_verification():
    cmd = [sys.executable, "-m", "linrel.cli", "verify",
           "--seed", "7", "--trials", "500", "--max-dim", "8"]
    # the child imports linrel from this checkout's src, as pytest does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and elapsed < 60.0)
    assert _verdict(9, "byte-identical verification reports", ok,
                    f"exit codes {first.returncode}/{second.returncode}, {elapsed:.1f}s")
