"""Verification harness: re-check the library's identities on random inputs.

Each trial draws one general relation and one generated nonnegative
selfadjoint instance from streams keyed by (seed, trial index), then runs
twelve named checks.  A check passes when its residual stays under the
equality tolerance (the contraction bound uses the rank tolerance), so
counts always sum to the trial count and the report is a pure function of
the flags.  Failures carry the full instance so they can be replayed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import serialize
from .block import factorize, operator_block, reconstruct_b, reconstruct_c
from .errors import LinRelError
from .generator import InstanceSpec, generate, random_relation, rng_for
from .kernel import DEFAULT_TOL, Tolerances
from .nonneg import gram_with_diagnostics
from .schur import (
    additive_decomposition,
    certify,
    is_member,
    maximality_probe,
    pekarev,
    schur_analysis,
)

__all__ = ["CHECK_NAMES", "CheckStat", "VerificationReport", "check_counts",
           "run_verification"]

CHECK_NAMES = (
    "adjoint_involution",
    "vonneumann_identities",
    "block_roundtrip",
    "contraction_bound",
    "reconstruction_bc",
    "factorize_wz",
    "schur_membership",
    "schur_maximality",
    "schur_lemma_equality",
    "compression_domination",
    "additive_decomposition",
    "pekarev_equality",
)

# checks 0-1 run on a general relation, the rest on a generated instance
_GENERAL_CHECKS = CHECK_NAMES[:2]
_INSTANCE_CHECKS = CHECK_NAMES[2:]


@dataclass
class CheckStat:
    passed: int = 0
    failed: int = 0
    worst_residual: float = 0.0


@dataclass
class VerificationReport:
    seed: int
    trials: int
    max_dim: int
    samples: int
    tol: Tolerances
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(stat.failed == 0 for stat in self.checks.values())

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "max_dim": self.max_dim,
            "samples": self.samples,
            "tolerances": {
                "rank_rel": self.tol.rank_rel,
                "eq_abs": self.tol.eq_abs,
            },
            "checks": {
                name: {
                    "pass": stat.passed,
                    "fail": stat.failed,
                    "worst_residual": stat.worst_residual,
                }
                for name, stat in self.checks.items()
            },
            "failures": self.failures,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_obj())


def _record(report: VerificationReport, name: str, trial: int, instance,
            residual: float | None, threshold: float, error: str | None = None):
    stat = report.checks[name]
    if error is None and residual is not None and residual <= threshold:
        stat.passed += 1
        stat.worst_residual = max(stat.worst_residual, residual)
        return
    stat.failed += 1
    if residual is not None:
        stat.worst_residual = max(stat.worst_residual, residual)
    report.failures.append({
        "check": name,
        "trial": trial,
        "residual": residual,
        "error": error,
        "instance": instance,
    })


def _run_checks(report: VerificationReport, trial: int, instance,
                checks: list, default_threshold: float):
    for name, fn, threshold in checks:
        try:
            residual = float(fn())
        except LinRelError as exc:
            _record(report, name, trial, instance, None, default_threshold,
                    error=f"{type(exc).__name__}: {exc}")
            continue
        _record(report, name, trial, instance, residual,
                threshold if threshold is not None else default_threshold)


def _general_relation_checks(t, tol: Tolerances) -> list:
    def involution():
        adj = t.adjoint()
        return max(
            adj.adjoint().graph_gap(t),
            adj.mul.gap(t.dom.complement()),
            adj.ker.gap(t.ran.complement()),
            t.operator_part().reassemble().graph_gap(t),
        )

    def vonneumann():
        _, diag = gram_with_diagnostics(t)
        return max(diag.values(), default=0.0)

    return [
        ("adjoint_involution", involution, None),
        ("vonneumann_identities", vonneumann, None),
    ]


def _instance_checks(a, s, probe_seed: int, samples: int,
                     tol: Tolerances) -> list:
    res = certify(schur_analysis(a, s))
    rep = res.rep

    def roundtrip():
        operator_block(rep)
        return max(v for k, v in rep.diagnostics.items()
                   if k == "assemble_roundtrip" or k.endswith("_decomposed"))

    def contraction():
        return rep.diagnostics["g_norm_excess"]

    def reconstruction():
        return max(reconstruct_b(rep).graph_gap(rep.b),
                   reconstruct_c(rep).graph_gap(rep.c))

    def wz():
        factorize(rep)
        return rep.diagnostics["factorize_gap"]

    def membership():
        member = is_member(a, s, res.schur)
        residual = max(res.diagnostics["schur_ran_outside_far"],
                       res.diagnostics["schur_below_defect"])
        # a residual under tolerance must agree with the membership verdict
        return residual if member else max(residual, 2 * tol.eq_abs)

    def maximality():
        probe = maximality_probe(res, seed=probe_seed, samples=samples)
        if not probe.ok:
            return max(probe.worst_defect, 2 * tol.eq_abs)
        return probe.worst_defect

    def lemma_equality():
        return max(res.diagnostics["far_gram_alt_gap"],
                   res.diagnostics["compression_alt_gap"])

    def domination():
        return res.diagnostics["compression_below_defect"]

    def additive():
        ad = additive_decomposition(res)
        worst = max(ad.conditions.values())
        return worst if ad.verified else max(worst, 2 * tol.eq_abs)

    def pekarev_gap():
        pk = pekarev(res)
        return max(pk.diagnostics["schur_gap"],
                   pk.diagnostics["compression_gap"])

    return [
        ("block_roundtrip", roundtrip, None),
        ("contraction_bound", contraction, tol.rank_rel),
        ("reconstruction_bc", reconstruction, None),
        ("factorize_wz", wz, None),
        ("schur_membership", membership, None),
        ("schur_maximality", maximality, None),
        ("schur_lemma_equality", lemma_equality, None),
        ("compression_domination", domination, None),
        ("additive_decomposition", additive, None),
        ("pekarev_equality", pekarev_gap, None),
    ]


def check_counts(trials: int, max_dim: int, samples: int) -> None:
    """Raise ``ValueError`` for a run size :func:`run_verification` rejects."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    if samples < 0:
        raise ValueError("samples must be nonnegative")


def run_verification(seed: int, trials: int, max_dim: int = 8,
                     tol: Tolerances = DEFAULT_TOL,
                     samples: int = 10) -> VerificationReport:
    """Run every check on ``trials`` independent random draws."""
    check_counts(trials, max_dim, samples)
    report = VerificationReport(seed=seed, trials=trials, max_dim=max_dim,
                                samples=samples, tol=tol,
                                checks={name: CheckStat() for name in CHECK_NAMES})

    for trial in range(trials):
        rng = rng_for(seed, trial, 0)
        dim_in = int(rng.integers(1, max_dim + 1))
        dim_out = int(rng.integers(1, max_dim + 1))
        t = random_relation(rng, dim_in, dim_out, tol=tol)
        t_instance = {
            "kind": "relation",
            "trial": trial,
            "relation": serialize.dump_relation(t),
        }
        _run_checks(report, trial, t_instance,
                    _general_relation_checks(t, tol), tol.eq_abs)

        rng = rng_for(seed, trial, 1)
        n = int(rng.integers(1, max_dim + 1))
        s_dim = int(rng.integers(0, n + 1))
        spec = InstanceSpec(
            ambient_dim=n,
            s_dim=s_dim,
            d1_dim=int(rng.integers(0, s_dim + 1)),
            d2_dim=int(rng.integers(0, n - s_dim + 1)),
            seed=int(rng.integers(0, 2**63 - 1)),
            spectrum_scale=float(rng.uniform(0.25, 4.0)),
        )
        instance = {"kind": "generated", "trial": trial, "spec": asdict(spec)}
        try:
            a, s = generate(spec, tol)
            instance["relation"] = serialize.dump_relation(a.rel, validated=True)
            instance["subspace"] = serialize.dump_subspace(s)
            checks = _instance_checks(a, s, spec.seed, samples, tol)
        except LinRelError as exc:
            # shared setup failed: every instance check fails for this trial
            message = f"{type(exc).__name__}: {exc}"
            for name in _INSTANCE_CHECKS:
                _record(report, name, trial, instance, None, tol.eq_abs,
                        error=message)
            continue
        _run_checks(report, trial, instance, checks, tol.eq_abs)

    return report
