"""Instance generator: determinism, validity, and shape coverage."""

import numpy as np
import pytest

from linrel import generator
from linrel.block import analyze
from linrel.errors import SpecInvalidError
from linrel.generator import (
    InstanceSpec,
    generate,
    random_psd,
    random_relation,
    random_subspace,
    rng_for,
)
from linrel.subspace import invariance_report


def test_generate_is_deterministic():
    spec = InstanceSpec(ambient_dim=5, s_dim=2, d1_dim=1, d2_dim=2, seed=314)
    a1, s1 = generate(spec)
    a2, s2 = generate(spec)
    assert a1.rel.graph_gap(a2.rel) == 0.0
    assert s1.gap(s2) == 0.0


def test_generate_varies_with_seed():
    base = dict(ambient_dim=5, s_dim=2, d1_dim=1, d2_dim=2)
    a1, s1 = generate(InstanceSpec(seed=1, **base))
    a2, s2 = generate(InstanceSpec(seed=2, **base))
    assert s1.gap(s2) > 1e-3
    assert a1.rel.graph_gap(a2.rel) > 1e-3


@pytest.mark.parametrize("kwargs", [
    dict(ambient_dim=0, s_dim=0, d1_dim=0, d2_dim=0, seed=0),
    dict(ambient_dim=2, s_dim=3, d1_dim=0, d2_dim=0, seed=0),
    dict(ambient_dim=2, s_dim=1, d1_dim=2, d2_dim=0, seed=0),
    dict(ambient_dim=2, s_dim=1, d1_dim=1, d2_dim=2, seed=0),
    dict(ambient_dim=2, s_dim=1, d1_dim=1, d2_dim=1, seed=0, spectrum_scale=0.0),
    dict(ambient_dim=2, s_dim=1, d1_dim=1, d2_dim=1, seed=0, spectrum_scale=float("inf")),
])
def test_spec_rejects_bad_shapes(kwargs):
    with pytest.raises(SpecInvalidError):
        InstanceSpec(**kwargs)


def test_generate_full_domain():
    a, s = generate(InstanceSpec(ambient_dim=2, s_dim=1, d1_dim=1, d2_dim=1, seed=3))
    assert a.dom.dim == 2 and a.mul.dim == 0
    assert s.dim == 1


def test_generate_with_mul():
    a, s = generate(InstanceSpec(ambient_dim=2, s_dim=1, d1_dim=1, d2_dim=0, seed=3))
    assert a.dom.dim == 1 and a.mul.dim == 1
    assert s.contains(a.dom)


def test_generate_announced_slice_dims():
    spec = InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=1, seed=42)
    a, s = generate(spec)
    rep = analyze(a, s)
    assert rep.d1.dim == 2 and rep.d2.dim == 1
    assert rep.m1.dim == 1 and rep.m2.dim == 2
    assert invariance_report(a.dom, s).invariant


def test_generate_spectrum_scale():
    spec = InstanceSpec(ambient_dim=4, s_dim=2, d1_dim=2, d2_dim=2, seed=7,
                        spectrum_scale=0.001)
    a, _ = generate(spec)
    w = np.linalg.eigvalsh(a.op_compressed)
    assert w[-1] <= 0.001 + 1e-12 and w[0] >= -1e-12


@pytest.mark.parametrize("scale", [1e-9, 1e9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_at_both_ends_of_the_scale(monkeypatch, scale, seed):
    drawn = []

    def recording_psd(*args, **kwargs):
        drawn.append(random_psd(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(generator, "random_psd", recording_psd)
    a, _ = generate(InstanceSpec(8, 4, 4, 4, seed=seed, spectrum_scale=scale))
    assert len(drawn) == 1
    assert np.array_equal(a.op_compressed, drawn[0])
    w = np.linalg.eigvalsh(a.op_compressed)
    assert w[0] >= -1e-12 * scale and w[-1] <= scale * (1 + 1e-12)


def test_battery_covers_degenerate_shapes(battery):
    mul_dims = {a.mul.dim for _, a, _ in battery}
    assert 0 in mul_dims and max(mul_dims) >= 3
    s_dims = {s.dim for _, _, s in battery}
    assert 0 in s_dims
    assert any(spec.d2_dim == 0 for spec, _, _ in battery)
    assert any(spec.d1_dim == 0 and spec.s_dim > 0 for spec, _, _ in battery)
    assert any(spec.s_dim == spec.ambient_dim for spec, _, _ in battery)


def test_rng_for_reproducible_paths():
    assert rng_for(5, 1).uniform() == rng_for(5, 1).uniform()
    assert rng_for(5, 1).uniform() != rng_for(5, 2).uniform()
    assert rng_for(5).uniform() != rng_for(6).uniform()


def test_random_subspace_is_orthonormal():
    s = random_subspace(rng_for(0, 3), 6, 3)
    assert s.ambient_dim == 6 and s.dim == 3
    assert np.allclose(s.basis.conj().T @ s.basis, np.eye(3), atol=1e-12)


def test_random_psd_spectrum():
    m = random_psd(rng_for(0, 4), 5, scale=2.5)
    assert np.allclose(m, m.conj().T, atol=1e-14)
    w = np.linalg.eigvalsh(m)
    assert w[0] >= -1e-12 and w[-1] <= 2.5 + 1e-12


def test_random_relation_shapes():
    t = random_relation(rng_for(0, 5), 3, 4, graph_dim=5)
    assert t.dim_in == 3 and t.dim_out == 4
    assert t.graph.dim == 5
    assert t.dom.dim + t.mul.dim == 5
    empty = random_relation(rng_for(0, 6), 2, 2, graph_dim=0)
    assert empty.dom.dim == 0 and empty.mul.dim == 0
