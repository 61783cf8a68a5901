"""Construction of correlated complex channel-vector pairs.

A transmitter with K antennas sees two single-antenna users through the
unit-norm channel vectors ``h_pu`` and ``h_su``.  The weight design depends
on the pair only through the correlation ``rho = <h_su, h_pu>``, so channels
are synthesized directly with a prescribed correlation (Gram-Schmidt
construction) instead of drawing them from a geometric model.  The SU/PU
amplitude gain ratio ``g`` scales the SU response downstream of the pair.

Inner-product convention used throughout the package: the FIRST argument is
conjugated, ``<a, b> = sum_i conj(a_i) * b_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import check_count

#: |rho|^2 closer to 1 than this makes the 2x2 Gram system ill-conditioned.
NEAR_SINGULAR_TOL = 1e-6

_UNIT_NORM_TOL = 1e-12


class IllConditionedCorrelationError(ValueError):
    """Raised when |rho|^2 is within NEAR_SINGULAR_TOL of 1."""


def inner_product(a, b) -> complex:
    """Complex inner product ``<a, b> = sum_i conj(a_i) * b_i``.

    The first argument is conjugated.  Under this convention
    ``rho = inner_product(h_su, h_pu)``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


@dataclass(frozen=True)
class ChannelPair:
    """Unit-norm channel vectors; their correlation is derived, not stored.

    Attributes:
        h_pu: unit-norm channel vector of the primary user, length K.
        h_su: unit-norm channel vector of the secondary user, length K.
    """

    h_pu: np.ndarray
    h_su: np.ndarray

    def __post_init__(self):
        h_pu = np.asarray(self.h_pu, dtype=complex)
        h_su = np.asarray(self.h_su, dtype=complex)
        if h_pu.ndim != 1 or h_su.ndim != 1 or h_pu.shape != h_su.shape:
            raise ValueError("h_pu and h_su must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(h_pu.view(float))) and np.all(np.isfinite(h_su.view(float)))):
            raise ValueError("channel entries must be finite")
        for name, h in (("h_pu", h_pu), ("h_su", h_su)):
            nrm = float(np.linalg.norm(h))
            if abs(nrm - 1.0) > _UNIT_NORM_TOL:
                raise ValueError(f"{name} is not unit-norm: ||{name}|| = {nrm!r}")
        h_pu.setflags(write=False)
        h_su.setflags(write=False)
        object.__setattr__(self, "h_pu", h_pu)
        object.__setattr__(self, "h_su", h_su)

    @property
    def rho(self) -> complex:
        """Correlation <h_su, h_pu> (conjugate-first convention)."""
        return inner_product(self.h_su, self.h_pu)

    @property
    def k(self) -> int:
        """Number of transmit antennas."""
        return self.h_pu.shape[0]

    @property
    def near_singular(self) -> bool:
        """True when |rho|^2 is within NEAR_SINGULAR_TOL of 1."""
        return abs(self.rho) ** 2 > 1.0 - NEAR_SINGULAR_TOL


def _complex_gaussian(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def make_correlated_pair(
    k: int,
    rho_mag: float,
    rho_phase: float = 0.0,
    seed: int = 0,
) -> ChannelPair:
    """Draw a random unit-norm pair with prescribed correlation.

    Construction: ``h_pu`` is a normalized complex Gaussian vector, ``u`` is
    a second random vector orthonormalized against ``h_pu``, and
    ``h_su = conj(rho) * h_pu + sqrt(1 - |rho|^2) * u`` so that the pair's
    ``rho = <h_su, h_pu>`` equals ``rho_mag * exp(j * rho_phase)``.
    Deterministic given ``seed``.

    Args:
        k: antenna count, must be >= 3 (required for weight solving).
        rho_mag: requested |rho| in [0, 1).
        rho_phase: requested arg(rho) in radians.
        seed: RNG seed.
    """
    if check_count("k", k) < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if not (0.0 <= rho_mag < 1.0):
        raise ValueError(f"rho_mag must be in [0, 1), got {rho_mag!r}")
    if not math.isfinite(rho_phase):
        raise ValueError(f"rho_phase must be finite, got {rho_phase!r}")
    rng = np.random.default_rng(seed)
    h_pu = _complex_gaussian(rng, k)
    h_pu /= np.linalg.norm(h_pu)
    v = _complex_gaussian(rng, k)
    u = v - inner_product(h_pu, v) * h_pu
    u /= np.linalg.norm(u)
    rho = rho_mag * np.exp(1j * rho_phase)
    # <c*x, y> = conj(c) <x, y>, so the h_pu coefficient is conj(rho).
    h_su = np.conj(rho) * h_pu + np.sqrt(1.0 - rho_mag**2) * u
    h_su /= np.linalg.norm(h_su)
    return ChannelPair(h_pu=h_pu, h_su=h_su)
