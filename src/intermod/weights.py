"""Minimum-norm beamforming weights for interference modulation.

Two weight vectors are toggled per OOK bit: ``omega1`` steers an amplitude
``sqrt(alpha)`` response onto the SU channel while keeping ``sqrt(1-alpha)``
on the PU channel; ``omega0`` nulls the SU and keeps the same PU response.
With K >= 3 antennas the two constraints are underdetermined, and the
minimum-norm solution is taken.

Algebraic convention: the physical responses are the plain-transpose
products ``h^T omega``.  Stacking the two constraint rows into
``C = [h_su^T; h_pu^T]`` gives the min-norm solution
``omega = C^H (C C^H)^{-1} b`` with Gram matrix
``C C^H = [[1, conj(rho)], [rho, 1]]`` where ``rho = <h_su, h_pu>``
(conjugate-first inner product).  The squared norm is then

    |omega|^2 = (|b_su|^2 + |b_pu|^2 - 2 Re{rho b_su conj(b_pu)}) / (1 - |rho|^2)

Note the factor 2 on the cross term: expanding b^H (C C^H)^{-1} b yields it
unavoidably, so the closed forms (``sumrate.closed_form_norms``) carry it.
A variant without the factor 2 circulates in the literature;
``sumrate.paper_closed_form_norms`` exposes it for comparison, but it is NOT
consistent with the constructive solution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._domain import check
from .channel import ChannelPair, IllConditionedCorrelationError


@dataclass(frozen=True)
class WeightSet:
    """Solved weight pair; the norms and the normalization scalar xi derive from it.

    xi is the average of the two squared norms; the transmitted vectors are
    ``omega_k / sqrt(xi)`` so the average transmitted squared norm is 1.
    xi > 1 means extra power is burned to satisfy the channel geometry; xi
    must be positive and finite.  xi is checked when the set is built, so
    the vectors are made read-only.
    """

    omega0: np.ndarray
    omega1: np.ndarray

    def __post_init__(self):
        self.omega0.setflags(write=False)
        self.omega1.setflags(write=False)
        check("xi", self.xi)

    @property
    def norm0_sq(self) -> float:
        """|omega0|^2."""
        return float(np.vdot(self.omega0, self.omega0).real)

    @property
    def norm1_sq(self) -> float:
        """|omega1|^2."""
        return float(np.vdot(self.omega1, self.omega1).real)

    @property
    def xi(self) -> float:
        """Mean squared norm of the two weight vectors."""
        return 0.5 * (self.norm0_sq + self.norm1_sq)

    def tx_weight(self, bit: int) -> np.ndarray:
        """xi-normalized weight vector transmitted for the given OOK bit."""
        omega = self.omega1 if bit else self.omega0
        return omega / math.sqrt(self.xi)


def solve_min_norm(pair: ChannelPair, b_su: complex, b_pu: complex) -> np.ndarray:
    """Minimum-norm omega with ``h_su^T omega = b_su`` and ``h_pu^T omega = b_pu``.

    Solves the underdetermined 2-constraint system via the pseudoinverse,
    ``omega = C^H (C C^H)^{-1} b``; the result has no component in the
    nullspace of the constraints.  ``ChannelPair`` has already checked the
    shapes and the unit norms; K >= 3, a |rho| not near 1 and finite targets
    are checked here.
    """
    try:
        check("k", len(pair.h_pu))
    except ValueError as exc:
        raise ValueError(f"weight solving requires K >= 3 antennas; {exc}") from None
    if pair.near_singular:
        raise IllConditionedCorrelationError(
            f"|rho|^2 = {abs(pair.rho)**2!r} is too close to 1; "
            "the constraint Gram matrix is near-singular"
        )
    b = np.array([check("b_su", b_su), check("b_pu", b_pu)], dtype=complex)
    c = np.stack([pair.h_su, pair.h_pu])  # rows apply as plain-transpose products
    return c.conj().T @ np.linalg.solve(c @ c.conj().T, b)


def build_weight_set(pair: ChannelPair, alpha: float) -> WeightSet:
    """Solve both OOK weight vectors for a channel pair and power split.

    The OOK one targets b_su = sqrt(alpha) exp(-j arg(rho)), the phase that
    maximizes Re{rho b_su conj(b_pu)} and hence minimizes |omega1|^2 (for
    rho = 0 the phase is irrelevant and set to 0); both vectors target
    b_pu = sqrt(1-alpha).  Norms and xi are computed from the solved vectors,
    not the closed forms (the closed forms serve as an independent
    cross-check in tests).
    """
    theta = cmath.phase(pair.rho) if pair.rho != 0 else 0.0
    alpha = check("alpha", alpha)
    b_pu = math.sqrt(1.0 - alpha)
    return WeightSet(
        omega0=solve_min_norm(pair, 0.0, b_pu),
        omega1=solve_min_norm(pair, math.sqrt(alpha) * cmath.exp(-1j * theta), b_pu),
    )
