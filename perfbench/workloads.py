"""The four benchmark workloads: inputs from a seed, one op, its check.

Every workload is a closed loop with one client: op ``i + 1`` starts only
after op ``i`` has returned.  Inputs are a pure function of
``(workload, seed)``: shapes, scales and generator seeds are drawn here from
numpy's Philox keyed by the workload seed, and the library only receives
the drawn instances.  Ops reach the library through attribute lookups on
the ``linrel`` modules at call time, so wrappers installed by the tracer
see them.

A workload provides ``build(seed, workdir)`` (the timed set-up),
``warmup(inputs)``, ``prepare(inputs, i)`` (untimed; hands op ``i`` a fresh
copy of its input), ``op(arg)`` (the timed call) and
``check(inputs, i, output)``, which returns ``(ok, oracle_gap,
fingerprint)``.  The fingerprint is what a traced and an untraced run of the
same op must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
from pathlib import Path

import numpy as np

import linrel
import linrel.cli
import oracle

# A perf change must also pass on this seed, which no change may be tuned on.
HELD_OUT_SEED = 7919


def _rng(seed: int, key: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key, index))
    return np.random.Generator(np.random.Philox(ss))


def _log_uniform_scale(rng: np.random.Generator) -> float:
    """Spectrum scale log-uniform in [1e-3, 1e3], inside the supported range."""
    return float(10.0 ** rng.uniform(-3.0, 3.0))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class SchurWorkload:
    """``schur_analysis`` over a pool of generated instances, cycled.

    Each op unpickles a fresh copy of its instance, so every op starts from
    the state ``generate`` returned (no cached square roots or projectors
    left over from an earlier op on the same instance).
    """

    def __init__(self, name: str, key: int):
        self.name = name
        self.key = key

    def specs(self, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int, workdir: Path) -> dict:
        blobs, graphs, subspaces = [], [], []
        specs = self.specs(seed)
        for spec in specs:
            a, s = linrel.generate(spec)
            blobs.append(pickle.dumps((a, s), protocol=pickle.HIGHEST_PROTOCOL))
            graphs.append(a.rel.graph.basis.copy())
            subspaces.append(s.basis.copy())
        return {"specs": specs, "blobs": blobs, "graphs": graphs,
                "subspaces": subspaces, "expected": {}}

    def warmup(self, inputs: dict) -> None:
        spec = linrel.InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1)
        linrel.schur_analysis(*linrel.generate(spec))

    def prepare(self, inputs: dict, i: int):
        return pickle.loads(inputs["blobs"][i % len(inputs["blobs"])])

    def op(self, arg):
        a, s = arg
        return linrel.schur_analysis(a, s)

    def describe(self, inputs: dict, i: int) -> str:
        return repr(inputs["specs"][i % len(inputs["specs"])])

    def _expected(self, inputs: dict, k: int):
        if k not in inputs["expected"]:
            inputs["expected"][k] = oracle.expected(inputs["graphs"][k],
                                                    inputs["subspaces"][k])
        return inputs["expected"][k]

    def check(self, inputs: dict, i: int, res):
        k = i % len(inputs["blobs"])
        scale, (c_op, c_mul), (p_op, p_mul) = self._expected(inputs, k)
        schur_graph = res.schur.rel.graph.basis
        comp_graph = res.compression.rel.graph.basis
        gap = max(oracle.gap(schur_graph, c_op, c_mul, scale),
                  oracle.gap(comp_graph, p_op, p_mul, scale))
        fingerprint = f"{gap!r} {_digest(schur_graph, comp_graph)}"
        return gap <= oracle.PASS_GAP, gap, fingerprint


class SchurSmall(SchurWorkload):
    """n from 1 to 8 with shapes drawn as ``run_verification`` draws them."""

    POOL = 192

    def specs(self, seed: int) -> list:
        out = []
        for i in range(self.POOL):
            rng = _rng(seed, self.key, i)
            n = int(rng.integers(1, 9))
            s_dim = int(rng.integers(0, n + 1))
            out.append(linrel.InstanceSpec(
                ambient_dim=n,
                s_dim=s_dim,
                d1_dim=int(rng.integers(0, s_dim + 1)),
                d2_dim=int(rng.integers(0, n - s_dim + 1)),
                seed=int(rng.integers(0, 2**63 - 1)),
                spectrum_scale=_log_uniform_scale(rng),
            ))
        return out


class SchurLarge(SchurWorkload):
    """n = 128, s_dim = 64: a full-domain operator, then a proper relation."""

    SLICES = ((64, 64), (48, 48))

    def specs(self, seed: int) -> list:
        out = []
        for i, (d1, d2) in enumerate(self.SLICES):
            rng = _rng(seed, self.key, i)
            out.append(linrel.InstanceSpec(
                ambient_dim=128, s_dim=64, d1_dim=d1, d2_dim=d2,
                seed=int(rng.integers(0, 2**63 - 1)),
                spectrum_scale=_log_uniform_scale(rng),
            ))
        return out


class Verify:
    """``run_verification`` at the CLI defaults, one trial per op.

    Op ``i`` runs the single trial of ``run_verification(seed_i, 1)``, with
    ``seed_i`` drawn from the workload seed, so each op is timed on its own.
    """

    name = "verify"
    key = 3
    TRIAL_SEEDS = 4096
    MAX_DIM = 8
    SAMPLES = 10

    def build(self, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, self.key, 0)
        return {"seeds": [int(v) for v in rng.integers(0, 2**62, size=self.TRIAL_SEEDS)]}

    def warmup(self, inputs: dict) -> None:
        linrel.run_verification(0, 1, max_dim=self.MAX_DIM, samples=self.SAMPLES)

    def prepare(self, inputs: dict, i: int):
        return inputs["seeds"][i % len(inputs["seeds"])]

    def op(self, trial_seed: int):
        return linrel.run_verification(trial_seed, 1, max_dim=self.MAX_DIM,
                                       samples=self.SAMPLES)

    def describe(self, inputs: dict, i: int) -> str:
        return f"run_verification(seed={self.prepare(inputs, i)}, trials=1)"

    def check(self, inputs: dict, i: int, report):
        ok = report.ok and all(stat.passed == report.trials
                               for stat in report.checks.values())
        return ok, 0.0, report.to_json()


class CliSchur:
    """``linrel.cli.main`` in process: ``schur``, ``compress``, ``schur`` per file.

    ``linrel gen`` writes the n = 32 instance files during set-up; they
    alternate between a full-domain operator (which adds the
    ``anderson_trapp`` route to ``schur``) and a proper relation.  A
    ``schur`` call takes about 1.6 times as long as a ``compress`` call; with
    the two in equal numbers the op-time median would fall in the gap
    between them and be set by the slowest ``compress`` and the fastest
    ``schur``.  Two ``schur`` calls per ``compress`` keep it inside the
    ``schur`` mode.
    """

    name = "cli-schur"
    key = 4
    SLICES = ((16, 16), (12, 12), (16, 16), (12, 12))
    COMMANDS = ("schur", "compress", "schur")

    def build(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for i, (d1, d2) in enumerate(self.SLICES):
            rng = _rng(seed, self.key, i)
            rel_path = workdir / f"relation{i}.json"
            sub_path = workdir / f"subspace{i}.json"
            argv = ["gen", "--ambient-dim", "32", "--s-dim", "16",
                    "--d1-dim", str(d1), "--d2-dim", str(d2),
                    "--seed", str(int(rng.integers(0, 2**63 - 1))),
                    "--spectrum-scale", repr(_log_uniform_scale(rng)),
                    "--out-relation", str(rel_path), "--out-subspace", str(sub_path)]
            rc, _ = self._main(argv)
            if rc != 0:
                raise RuntimeError(f"linrel gen exited {rc}: {argv}")
            files.append((str(rel_path), str(sub_path)))
        return {"files": files, "expected": {}}

    @staticmethod
    def _main(argv: list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = linrel.cli.main(argv)
        return rc, buf.getvalue()

    def warmup(self, inputs: dict) -> None:
        for i in range(len(self.COMMANDS)):
            self.op(self.prepare(inputs, i))

    def prepare(self, inputs: dict, i: int):
        rel_path, sub_path = inputs["files"][self._file(inputs, i)]
        return [self._command(i), "--relation", rel_path, "--subspace", sub_path]

    def _command(self, i: int) -> str:
        return self.COMMANDS[i % len(self.COMMANDS)]

    def _file(self, inputs: dict, i: int) -> int:
        return (i // len(self.COMMANDS)) % len(inputs["files"])

    def op(self, argv: list):
        return self._main(argv)

    def describe(self, inputs: dict, i: int) -> str:
        return "linrel " + " ".join(self.prepare(inputs, i))

    def _expected(self, inputs: dict, k: int):
        if k not in inputs["expected"]:
            rel_path, sub_path = inputs["files"][k]
            rel = json.loads(Path(rel_path).read_text(encoding="utf-8"))
            sub = json.loads(Path(sub_path).read_text(encoding="utf-8"))
            s_basis = oracle.columns_from_json(sub["basis"], sub["ambient_dim"])
            inputs["expected"][k] = oracle.expected(oracle.graph_from_json(rel), s_basis)
        return inputs["expected"][k]

    def check(self, inputs: dict, i: int, output):
        rc, text = output
        if rc != 0:
            return False, float("inf"), text
        scale, (c_op, c_mul), (p_op, p_mul) = self._expected(inputs, self._file(inputs, i))
        obj = json.loads(text)
        gap = oracle.gap(oracle.graph_from_json(obj["compression"]), p_op, p_mul, scale)
        if self._command(i) == "schur":
            gap = max(gap, oracle.gap(oracle.graph_from_json(obj["schur"]),
                                      c_op, c_mul, scale))
        fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return gap <= oracle.PASS_GAP, gap, fingerprint


WORKLOADS = {
    "schur-small": SchurSmall("schur-small", 1),
    "schur-large": SchurLarge("schur-large", 2),
    "verify": Verify(),
    "cli-schur": CliSchur(),
}
