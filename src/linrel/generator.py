"""Deterministic random instances: nonnegative selfadjoint relations plus a
decomposing subspace.

Instances are built so the projection onto the chosen subspace S leaves the
domain invariant by construction: S is drawn first, then the domain slices
are drawn inside S and its complement, and the operator part acts on their
span.  The spectrum is Hermitian PSD with eigenvalues uniform in
``[0, spectrum_scale]``.

Randomness comes from Philox, a counter-based 64-bit generator, keyed through
``SeedSequence`` so that streams derived from ``(seed, path...)`` are
independent, reproducible across platforms, and safe to evaluate in any
order.  The same ``InstanceSpec`` always yields bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import SpecInvalidError
from .kernel import DEFAULT_TOL, Tolerances
from .nonneg import NonnegSelfAdjointRelation
from .relation import LinearRelation
from .subspace import Subspace, require_invariant

__all__ = [
    "InstanceSpec",
    "generate",
    "rng_for",
    "random_subspace",
    "random_psd",
    "random_relation",
]


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Philox stream for the given seed and derivation path.

    Distinct paths give statistically independent streams; the same
    ``(seed, path)`` always reproduces the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class InstanceSpec:
    """Shape and seed of one random instance.

    ``s_dim`` is the dimension of the decomposing subspace, ``d1_dim`` and
    ``d2_dim`` the domain slice dimensions inside it and its complement.
    """

    ambient_dim: int
    s_dim: int
    d1_dim: int
    d2_dim: int
    seed: int
    spectrum_scale: float = 1.0

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise SpecInvalidError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not 0 <= self.s_dim <= self.ambient_dim:
            raise SpecInvalidError(
                f"s_dim must lie in [0, {self.ambient_dim}], got {self.s_dim}"
            )
        if not 0 <= self.d1_dim <= self.s_dim:
            raise SpecInvalidError(
                f"d1_dim must lie in [0, {self.s_dim}], got {self.d1_dim}"
            )
        if not 0 <= self.d2_dim <= self.ambient_dim - self.s_dim:
            raise SpecInvalidError(
                f"d2_dim must lie in [0, {self.ambient_dim - self.s_dim}], got {self.d2_dim}"
            )
        if not 0 < self.spectrum_scale < np.inf:
            raise SpecInvalidError("spectrum_scale must be positive and finite")


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def random_subspace(rng: np.random.Generator, ambient_dim: int, dim: int,
                    tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Haar-distributed subspace: orthonormalized complex Gaussian frame."""
    frame = _complex_gaussian(rng, ambient_dim, dim)
    basis = kernel.orthonormal_columns(frame, tol)
    if basis.shape[1] != dim:
        raise SpecInvalidError("Gaussian frame was rank deficient; choose another seed")
    return Subspace(ambient_dim, basis)


def random_psd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian PSD matrix with eigenvalues uniform in [0, scale]."""
    if dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    q, r = np.linalg.qr(_complex_gaussian(rng, dim, dim))
    # fix the phase so the distribution does not depend on the QR convention
    q = q * np.exp(-1j * np.angle(np.diagonal(r)))
    vals = rng.uniform(0.0, scale, size=dim)
    return kernel.hermitian_part((q * vals) @ q.conj().T)


def random_relation(rng: np.random.Generator, dim_in: int, dim_out: int,
                    graph_dim: int | None = None,
                    tol: Tolerances = DEFAULT_TOL) -> LinearRelation:
    """Random relation: a Haar subspace of the product space as graph."""
    total = dim_in + dim_out
    if graph_dim is None:
        graph_dim = int(rng.integers(0, total + 1))
    if not 0 <= graph_dim <= total:
        raise SpecInvalidError(f"graph_dim must lie in [0, {total}]")
    if graph_dim == 0:
        return LinearRelation(dim_in, dim_out, Subspace.zero(total), tol=tol)
    g = random_subspace(rng, total, graph_dim, tol)
    return LinearRelation(dim_in, dim_out, g, tol=tol)


def generate(spec: InstanceSpec,
             tol: Tolerances = DEFAULT_TOL) -> tuple[NonnegSelfAdjointRelation, Subspace]:
    """Build the instance described by ``spec``.

    Draw order is fixed (S, then the two domain slices, then the operator
    spectrum), so output is a deterministic function of the spec.  The
    returned relation is the drawn form on the drawn domain, and its domain
    is invariant under the projection onto the returned subspace by
    construction.
    """
    rng = rng_for(spec.seed)
    n = spec.ambient_dim
    s = random_subspace(rng, n, spec.s_dim, tol)
    s_perp = s.complement()

    d1_coords = kernel.orthonormal_columns(
        _complex_gaussian(rng, spec.s_dim, spec.d1_dim), tol)
    d2_coords = kernel.orthonormal_columns(
        _complex_gaussian(rng, n - spec.s_dim, spec.d2_dim), tol)
    if d1_coords.shape[1] != spec.d1_dim or d2_coords.shape[1] != spec.d2_dim:
        raise SpecInvalidError("domain frame was rank deficient; choose another seed")
    dom_basis = np.hstack([s.basis @ d1_coords, s_perp.basis @ d2_coords])
    dom = Subspace(n, dom_basis)

    form = random_psd(rng, dom.dim, spec.spectrum_scale)
    out = NonnegSelfAdjointRelation(dom, form, tol)
    require_invariant(out.dom, s, tol)
    return out, s
