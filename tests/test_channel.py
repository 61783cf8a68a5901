import dataclasses
import math

import numpy as np
import pytest

from intermod.channel import ChannelPair, make_correlated_pair


def test_rho_conjugates_h_su():
    # rho = <h_su, h_pu> conjugates h_su: for unit v and |c| = 1,
    # <v, c v> = c and <c v, v> = conj(c)
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    c = np.exp(1j * 0.7)
    assert ChannelPair(h_pu=c * v, h_su=v).rho == pytest.approx(c, abs=1e-12)
    assert ChannelPair(h_pu=v, h_su=c * v).rho == pytest.approx(np.conj(c), abs=1e-12)
    # explicit: conj([1, -1j]/sqrt2) . ([c, cj]/sqrt2) = (c + c)/2
    by_hand = (np.conj(v[0]) * c * v[0]) + (np.conj(v[1]) * c * v[1])
    assert ChannelPair(h_pu=c * v, h_su=v).rho == pytest.approx(by_hand, abs=1e-12)


def test_pair_orthogonal_construction():
    pair = make_correlated_pair(4, 0.0, 1.3, seed=11)
    assert abs(np.vdot(pair.h_su, pair.h_pu)) < 1e-10


def test_pair_requested_correlation_hit():
    # derived check: recompute the inner product after construction
    pair = make_correlated_pair(8, 0.8, np.pi / 3, seed=7)
    want = 0.8 * np.exp(1j * np.pi / 3)
    assert abs(pair.rho - want) < 1e-10
    assert abs(np.vdot(pair.h_su, pair.h_pu) - want) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_pair_invariants_random(seed):
    rng = np.random.default_rng(seed + 1000)
    k = int(rng.integers(3, 20))
    rho_mag = float(rng.uniform(0.0, 0.95))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    for k, rho_mag in ((k, rho_mag), (1024, rho_mag), (k, 0.999), (1024, 0.999)):
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


def test_near_singular_flag():
    assert not make_correlated_pair(4, 0.999, seed=0).near_singular
    assert make_correlated_pair(4, 0.9999999, seed=0).near_singular


def test_pair_validates_stored_fields():
    pair = make_correlated_pair(4, 0.3, seed=0)
    with pytest.raises(ValueError, match="not unit-norm"):
        ChannelPair(h_pu=2 * pair.h_pu, h_su=pair.h_su)
    for h_pu, h_su in ((pair.h_pu, pair.h_su[:3]), (pair.h_pu[None, :], pair.h_su[None, :])):
        with pytest.raises(ValueError, match="1-D vectors of equal length"):
            ChannelPair(h_pu=h_pu, h_su=h_su)
    # a NaN norm passes the unit-norm comparison, so the finite check must catch it
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            ChannelPair(h_pu=[1.0, bad, 0.0], h_su=[0.0, 1.0, 0.0])


def test_pair_stores_read_only_complex_vectors():
    # the vectors are checked unit-norm when the pair is built, so they are stored read-only
    pair = ChannelPair([1, 0, 0], [0, 1, 0])
    for h in (pair.h_pu, pair.h_su):
        assert type(h) is np.ndarray and h.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            h[0] = 2.0


def test_pair_stores_only_its_vectors():
    pair = make_correlated_pair(6, 0.4, 0.2, seed=5)
    assert [f.name for f in dataclasses.fields(ChannelPair)] == ["h_pu", "h_su"]
    # rho is derived from the stored vectors, bit for bit
    assert pair.rho == np.vdot(pair.h_su, pair.h_pu)
