"""Shared fixtures: deterministic instance batteries reused across suites.

The batteries are session scoped because the property suites and the
acceptance criteria run over the same thousand instances; building the
block and Schur analyses once keeps the whole run fast.
"""

import pytest

from linrel.generator import InstanceSpec, generate, random_relation, rng_for
from linrel.kernel import DEFAULT_TOL
from linrel.schur import certify, schur_analysis

BATTERY_SIZE = 1000
BATTERY_SEED = 9001
RELATION_SEED = 7777
MAX_DIM = 8


def battery_specs(count=BATTERY_SIZE, seed=BATTERY_SEED, max_dim=MAX_DIM):
    """Deterministic mixed-shape specs covering every degenerate branch."""
    specs = []
    for i in range(count):
        rng = rng_for(seed, i)
        n = int(rng.integers(1, max_dim + 1))
        k = int(rng.integers(0, n + 1))
        specs.append(InstanceSpec(
            ambient_dim=n,
            s_dim=k,
            d1_dim=int(rng.integers(0, k + 1)),
            d2_dim=int(rng.integers(0, n - k + 1)),
            seed=int(rng.integers(0, 2**62)),
            spectrum_scale=float(rng.uniform(0.25, 4.0)),
        ))
    return specs


@pytest.fixture(scope="session")
def battery():
    """(spec, relation, subspace) triples for the generated-instance suites."""
    return [(spec, *generate(spec, DEFAULT_TOL)) for spec in battery_specs()]


@pytest.fixture(scope="session")
def battery_analyses(battery):
    """The battery with certified Schur analyses and the block analyses they used."""
    analyses = []
    for spec, a, s in battery:
        res = certify(schur_analysis(a, s))
        analyses.append((spec, a, s, res.rep, res))
    return analyses


@pytest.fixture(scope="session")
def relation_battery():
    """Random closed relations of mixed shape for the calculus suites."""
    rels = []
    for i in range(BATTERY_SIZE):
        rng = rng_for(RELATION_SEED, i)
        dim_in = int(rng.integers(1, MAX_DIM + 1))
        dim_out = int(rng.integers(1, MAX_DIM + 1))
        rels.append(random_relation(rng, dim_in, dim_out, tol=DEFAULT_TOL))
    return rels
