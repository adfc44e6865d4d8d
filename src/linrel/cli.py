"""Command-line front end: generate, decompose, order, and verify.

Subcommands load UTF-8 JSON files in the wire formats of ``serialize``,
run the corresponding library routine, and print a report to stdout
(diagnostic messages go to stderr).  Exit codes: 0 on success, 1 when a
mathematical precondition or a verification check fails, 2 for input
that cannot be parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .block import analyze, operator_block
from .errors import ConditionViolatedError, FormatError, LinRelError
from .generator import InstanceSpec, generate
from .kernel import Tolerances, opnorm
from .nonneg import NonnegSelfAdjointRelation, leq, validate
from .relation import LinearRelation
from .schur import anderson_trapp, certify, pekarev, schur_analysis
from .verify import check_counts, run_verification

__all__ = ["main"]


def _load_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError, the int digit limit, too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _load_validated(path: str, tol: Tolerances) -> NonnegSelfAdjointRelation:
    rel = serialize.load_relation(_load_json_file(path), tol, where=path)
    return validate(rel)


def _load_subspace(path: str, tol: Tolerances):
    return serialize.load_subspace(_load_json_file(path), tol, where=path)


def _write_json_file(path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps(obj))


# -- text rendering ----------------------------------------------------------


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _relation_lines(rel: LinearRelation, label: str) -> list[str]:
    lines = [
        f"{label}: dim_in={rel.dim_in} dim_out={rel.dim_out} "
        f"dom={rel.dom.dim} ran={rel.ran.dim} ker={rel.ker.dim} mul={rel.mul.dim}",
        "  graph basis:",
    ]
    if rel.graph.dim == 0:
        lines.append("    (zero subspace)")
    for col in rel.graph.basis.T:
        lines.append("    [" + ", ".join(_fmt_complex(z) for z in col) + "]")
    return lines


def _subspace_lines(s, label: str) -> list[str]:
    lines = [f"{label}: ambient_dim={s.ambient_dim} dim={s.dim}"]
    for col in s.basis.T:
        lines.append("  [" + ", ".join(_fmt_complex(z) for z in col) + "]")
    return lines


def _diagnostic_lines(diag: dict) -> list[str]:
    lines = ["diagnostics:"]
    for key in sorted(diag):
        value = diag[key]
        if isinstance(value, list):
            rendered = "[" + ", ".join(repr(float(v)) for v in value) + "]"
        else:
            rendered = repr(float(value))
        lines.append(f"  {key} = {rendered}")
    return lines


def _emit(args, obj: dict, render) -> None:
    """Print ``obj`` as JSON, or under ``--format text`` the lines of ``render()``."""
    if args.format == "json":
        sys.stdout.write(serialize.dumps(obj))
    else:
        sys.stdout.write("\n".join(render()) + "\n")


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args, tol: Tolerances) -> int:
    spec = InstanceSpec(
        ambient_dim=args.ambient_dim,
        s_dim=args.s_dim,
        d1_dim=args.d1_dim,
        d2_dim=args.d2_dim,
        seed=args.seed,
        spectrum_scale=args.spectrum_scale,
    )
    a, s = generate(spec, tol)
    rel_obj = serialize.dump_relation(a.rel, validated=True)
    sub_obj = serialize.dump_subspace(s)
    if args.out_relation:
        _write_json_file(args.out_relation, rel_obj)
    if args.out_subspace:
        _write_json_file(args.out_subspace, sub_obj)
    obj = {"spec": asdict(spec), "relation": rel_obj, "subspace": sub_obj}

    def render():
        return ([f"generated instance for seed {spec.seed}"]
                + _relation_lines(a.rel, "relation")
                + _subspace_lines(s, "subspace"))

    _emit(args, obj, render)
    return 0


def _cmd_block(args, tol: Tolerances) -> int:
    a = _load_validated(args.relation, tol)
    s = _load_subspace(args.subspace, tol)
    rep = analyze(a, s)
    operator_block(rep)
    obj = serialize.dump_block_representation(rep)

    def render():
        lines = []
        for label in ("a", "b", "c", "d"):
            lines += _relation_lines(getattr(rep, label), f"block {label}")
        lines.append(
            "components: "
            f"d1={rep.d1.dim} d2={rep.d2.dim} m1={rep.m1.dim} m2={rep.m2.dim}"
        )
        return lines + _diagnostic_lines(obj["diagnostics"])

    _emit(args, obj, render)
    return 0


def _cmd_schur(args, tol: Tolerances) -> int:
    a = _load_validated(args.relation, tol)
    s = _load_subspace(args.subspace, tol)
    res = certify(schur_analysis(a, s))
    diagnostics = serialize.dump_diagnostics(res.diagnostics)

    pk = pekarev(res)
    diagnostics["pekarev_schur_gap"] = pk.diagnostics["schur_gap"]
    diagnostics["pekarev_compression_gap"] = pk.diagnostics["compression_gap"]
    diagnostics["pekarev_condition_residuals"] = [
        float(v) for v in pk.diagnostics["condition_residuals"]
    ]

    at_matrix = None
    if a.dom.dim == a.dim and a.mul.dim == 0:
        # everywhere-defined operator: the bounded-case oracle applies
        at_matrix = anderson_trapp(a.to_matrix(), s, tol)
        diagnostics["anderson_trapp_gap"] = float(
            opnorm(res.schur.to_matrix() - at_matrix))

    if args.method == "formula":
        chosen = res.schur
    elif args.method == "pekarev":
        chosen = pk.schur
    else:
        if at_matrix is None:
            raise ConditionViolatedError(
                "anderson-trapp requires an everywhere-defined operator "
                "(full domain, trivial multivalued part)"
            )
        chosen = validate(LinearRelation.from_matrix(at_matrix, tol))

    obj = {
        "method": args.method,
        "schur": serialize.dump_relation(chosen.rel, validated=True),
        "compression": serialize.dump_relation(res.compression.rel, validated=True),
        "L": serialize.dump_subspace(res.l_space),
        "diagnostics": diagnostics,
    }

    def render():
        return ([f"method: {args.method}"]
                + _relation_lines(chosen.rel, "schur complement")
                + _relation_lines(res.compression.rel, "compression")
                + _subspace_lines(res.l_space, "L")
                + _diagnostic_lines(diagnostics))

    _emit(args, obj, render)
    return 0


def _cmd_compress(args, tol: Tolerances) -> int:
    a = _load_validated(args.relation, tol)
    s = _load_subspace(args.subspace, tol)
    res = certify(schur_analysis(a, s))
    diagnostics = serialize.dump_diagnostics(res.diagnostics)
    obj = {
        "compression": serialize.dump_relation(res.compression.rel, validated=True),
        "diagnostics": diagnostics,
    }

    def render():
        return (_relation_lines(res.compression.rel, "compression")
                + _diagnostic_lines(diagnostics))

    _emit(args, obj, render)
    return 0


def _cmd_order(args, tol: Tolerances) -> int:
    a = _load_validated(args.a, tol)
    b = _load_validated(args.b, tol)
    ab = leq(a, b)
    ba = leq(b, a)
    if ab and ba:
        verdict = "both (equal)"
    elif ab:
        verdict = "A<=B"
    elif ba:
        verdict = "B<=A"
    else:
        verdict = "incomparable"
    obj = {"a_leq_b": ab, "b_leq_a": ba, "verdict": verdict}
    _emit(args, obj, lambda: [verdict])
    return 0


def _cmd_verify(args, tol: Tolerances) -> int:
    try:
        check_counts(args.trials, args.max_dim, args.samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_verification(args.seed, args.trials, args.max_dim, tol,
                              samples=args.samples)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        lines = [
            f"verification seed={report.seed} trials={report.trials} "
            f"max_dim={report.max_dim} samples={report.samples}",
            f"{'check':<26} {'pass':>6} {'fail':>6}  worst residual",
        ]
        for name in report.checks:
            stat = report.checks[name]
            lines.append(
                f"{name:<26} {stat.passed:>6} {stat.failed:>6}  "
                f"{stat.worst_residual!r}"
            )
        lines.append("ok" if report.ok else f"FAILED ({len(report.failures)} failures)")
        sys.stdout.write("\n".join(lines) + "\n")
    if not report.ok:
        print(f"verification failed: {len(report.failures)} check failures",
              file=sys.stderr)
        return 1
    return 0


# -- argument parsing --------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=1e-10, metavar="X",
                        help="relative rank decision cutoff (default 1e-10)")
    parser.add_argument("--tol-eq", type=float, default=1e-8, metavar="X",
                        help="absolute equality tolerance (default 1e-8)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept.

    ``parse_args`` returns a fresh namespace on every call and the parser
    holds no per-call state, so one instance serves every :func:`main`.
    """
    parser = argparse.ArgumentParser(
        prog="linrel",
        description="Schur complements and compressions of nonnegative "
                    "selfadjoint linear relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--s-dim", type=int, required=True)
    p.add_argument("--d1-dim", type=int, required=True)
    p.add_argument("--d2-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectrum-scale", type=float, default=1.0)
    p.add_argument("--out-relation", metavar="PATH",
                   help="also write the relation JSON to this file")
    p.add_argument("--out-subspace", metavar="PATH",
                   help="also write the subspace JSON to this file")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("block", help="block decomposition along a subspace")
    p.add_argument("--relation", required=True, metavar="PATH")
    p.add_argument("--subspace", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("schur", help="Schur complement by a subspace")
    p.add_argument("--relation", required=True, metavar="PATH")
    p.add_argument("--subspace", required=True, metavar="PATH")
    p.add_argument("--method", choices=("formula", "pekarev", "anderson-trapp"),
                   default="formula",
                   help="computation route to report (default formula)")
    _add_common(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("compress", help="compression to a subspace")
    p.add_argument("--relation", required=True, metavar="PATH")
    p.add_argument("--subspace", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("order", help="compare two relations in the form order")
    p.add_argument("--a", required=True, metavar="PATH")
    p.add_argument("--b", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--samples", type=int, default=10,
                   help="membership samples per instance (default 10)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = Tolerances(rank_rel=args.tol_rank, eq_abs=args.tol_eq)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, tol)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LinRelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
