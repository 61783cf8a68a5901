import dataclasses
import math

import numpy as np
import pytest

from intermod.channel import (
    ChannelPair,
    inner_product,
    make_correlated_pair,
)


def test_inner_product_self_is_one():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    assert inner_product(v, v) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_orthogonal_is_zero():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert inner_product(a, b) == 0.0


def test_inner_product_conjugates_first_argument():
    # hand computation on a 2-entry vector: <v, c v> = c for unit v, |c| = 1
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    c = np.exp(1j * 0.7)
    assert inner_product(v, c * v) == pytest.approx(c, abs=1e-12)
    assert inner_product(c * v, v) == pytest.approx(np.conj(c), abs=1e-12)
    # explicit: conj([1, -1j]/sqrt2) . ([c, cj]/sqrt2) = (c + c)/2
    by_hand = (np.conj(v[0]) * c * v[0]) + (np.conj(v[1]) * c * v[1])
    assert inner_product(v, c * v) == pytest.approx(by_hand, abs=1e-12)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(np.ones(3), np.ones(4))


def test_pair_orthogonal_construction():
    pair = make_correlated_pair(4, 0.0, 1.3, seed=11)
    assert abs(inner_product(pair.h_su, pair.h_pu)) < 1e-10


def test_pair_requested_correlation_hit():
    # derived check: recompute the inner product after construction
    pair = make_correlated_pair(8, 0.8, np.pi / 3, seed=7)
    want = 0.8 * np.exp(1j * np.pi / 3)
    assert abs(pair.rho - want) < 1e-10
    assert abs(inner_product(pair.h_su, pair.h_pu) - want) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_pair_invariants_random(seed):
    rng = np.random.default_rng(seed + 1000)
    k = int(rng.integers(3, 20))
    rho_mag = float(rng.uniform(0.0, 0.95))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    pair = make_correlated_pair(k, rho_mag, phase, seed=seed)
    assert np.linalg.norm(pair.h_pu) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pair.h_su) == pytest.approx(1.0, abs=1e-12)
    assert abs(abs(pair.rho) - rho_mag) < 1e-10


def test_pair_deterministic_and_seed_sensitive():
    a = make_correlated_pair(6, 0.4, 0.2, seed=5)
    b = make_correlated_pair(6, 0.4, 0.2, seed=5)
    c = make_correlated_pair(6, 0.4, 0.2, seed=6)
    assert np.array_equal(a.h_pu, b.h_pu) and np.array_equal(a.h_su, b.h_su)
    assert not np.array_equal(a.h_su, c.h_su)


def test_pair_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_correlated_pair(2, 0.1)
    with pytest.raises(ValueError):
        make_correlated_pair(4, 1.0)
    with pytest.raises(ValueError):
        make_correlated_pair(4, 1.2)
    with pytest.raises(ValueError, match="k must be an integer"):
        make_correlated_pair(8.0, 0.5)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rho_phase must be finite"):
            make_correlated_pair(8, 0.5, phase)


def test_near_singular_flag():
    assert not make_correlated_pair(4, 0.999, seed=0).near_singular
    assert make_correlated_pair(4, 0.9999999, seed=0).near_singular


def test_pair_validates_stored_fields():
    pair = make_correlated_pair(4, 0.3, seed=0)
    with pytest.raises(ValueError):
        ChannelPair(h_pu=2 * pair.h_pu, h_su=pair.h_su)


def test_pair_stores_only_its_vectors():
    pair = make_correlated_pair(6, 0.4, 0.2, seed=5)
    assert [f.name for f in dataclasses.fields(ChannelPair)] == ["h_pu", "h_su"]
    # rho is derived from the stored vectors, bit for bit
    assert pair.rho == inner_product(pair.h_su, pair.h_pu)
