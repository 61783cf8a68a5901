import dataclasses
import math

import numpy as np
import pytest

from intermod.channel import (
    NEAR_SINGULAR_TOL, ChannelPair, IllConditionedCorrelationError, make_correlated_pair,
)
from intermod.sumrate import closed_form_norms, paper_closed_form_norms
from intermod.weights import WeightSet, build_weight_set, solve_min_norm


def _nullspace_project(pair, v):
    """Remove the components of v seen by either constraint row."""
    c = np.stack([pair.h_su, pair.h_pu])
    gram = c @ c.conj().T
    return v - c.conj().T @ np.linalg.solve(gram, c @ v)


class TestSolveMinNorm:
    def test_pu_only_orthogonal_channels(self):
        pair = make_correlated_pair(5, 0.0, seed=1)
        omega = solve_min_norm(pair, 0.0, 1.0)
        assert np.vdot(omega, omega).real == pytest.approx(1.0, abs=1e-10)
        assert abs(pair.h_pu @ omega - 1.0) < 1e-10
        assert abs(pair.h_su @ omega) < 1e-10

    def test_norm_matches_closed_form(self):
        # |omega0|^2 = (1 - alpha) / (1 - |rho|^2) = 0.8 / 0.36
        pair = make_correlated_pair(6, 0.8, 0.9, seed=2)
        omega = solve_min_norm(pair, 0.0, math.sqrt(0.8))
        assert np.vdot(omega, omega).real == pytest.approx(0.8 / 0.36, abs=1e-9)

    def test_minimum_norm_property(self):
        rng = np.random.default_rng(9)
        pair = make_correlated_pair(8, 0.6, 1.1, seed=3)
        b_su = math.sqrt(0.4) * np.exp(-1j * np.angle(pair.rho))
        omega = solve_min_norm(pair, b_su, math.sqrt(0.6))
        base = np.vdot(omega, omega).real
        for _ in range(20):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            delta = _nullspace_project(pair, v)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = omega + delta
            # still satisfies the constraints, but with strictly larger norm
            assert abs(pair.h_su @ perturbed - b_su) < 1e-9
            assert np.vdot(perturbed, perturbed).real > base

    def test_rejects_bad_inputs(self):
        two = ChannelPair(h_pu=np.array([1.0, 0.0]), h_su=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="K >= 3"):
            solve_min_norm(two, 0.0, 1.0)
        near = make_correlated_pair(4, 0.9999999, seed=0)
        with pytest.raises(IllConditionedCorrelationError):
            solve_min_norm(near, 0.0, 1.0)


class TestOokOneTargets:
    """The OOK-one targets build_weight_set solves for, read off h_su^T omega1; the phase
    scan of test_criterion_2_min_norm_oracle shows that -arg(rho) gives the least norm."""

    def test_definition(self):
        # b_pu = sqrt(1 - alpha), b_su = sqrt(alpha) exp(-j arg(rho))
        pair = make_correlated_pair(6, 0.6, np.pi / 4, seed=2)
        ws = build_weight_set(pair, 0.5)
        assert pair.h_pu @ ws.omega1 == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert pair.h_su @ ws.omega1 == pytest.approx(
            math.sqrt(0.5) * np.exp(-1j * np.pi / 4), abs=1e-9
        )

    def test_alpha_zero_degenerates(self):
        pair = make_correlated_pair(6, abs(0.3 + 0.1j), np.angle(0.3 + 0.1j), seed=3)
        ws = build_weight_set(pair, 0.0)
        assert abs(pair.h_su @ ws.omega1) < 1e-12

    def test_rho_zero_phase_is_zero(self):
        # an exactly orthogonal pair: rho == 0, so the SU target is real
        h_pu, h_su = np.eye(3)[:2]
        pair = ChannelPair(h_pu=h_pu, h_su=h_su)
        assert pair.rho == 0
        ws = build_weight_set(pair, 0.3)
        assert pair.h_su @ ws.omega1 == pytest.approx(math.sqrt(0.3), abs=1e-12)


class TestClosedForms:
    """test_criterion_2_min_norm_oracle checks them against the solver on random tuples."""

    @pytest.mark.parametrize(
        "alpha,rho,expect",
        [
            (0.0, 0.0, (1.0, 1.0, 1.0)),
            (0.5, 0.0, (0.5, 1.0, 0.75)),
            (0.2, 0.8, (20.0 / 9.0, 1.0, 29.0 / 18.0)),
        ],
    )
    def test_values(self, alpha, rho, expect):
        got = closed_form_norms(alpha, rho)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_paper_variant_reports_discrepancy(self):
        n0, n1, xi = paper_closed_form_norms(0.2, 0.8)
        assert n0 == pytest.approx(20.0 / 9.0, abs=1e-12)
        assert n1 == pytest.approx(17.0 / 9.0, abs=1e-12)
        assert xi == pytest.approx(37.0 / 18.0, abs=1e-12)
        # the two variants only agree where the cross term vanishes
        assert paper_closed_form_norms(0.3, 0.0) == pytest.approx(
            closed_form_norms(0.3, 0.0), abs=1e-15
        )
        assert paper_closed_form_norms(0.3, 0.5)[1] > closed_form_norms(0.3, 0.5)[1]

    def test_match_the_solver_at_three_antennas(self):
        # the fewest antennas the solver takes, which the criterion does not draw
        alpha, rho_mag = 0.45, 0.85
        ws = build_weight_set(make_correlated_pair(3, rho_mag, 2.5, seed=21), alpha)
        got = (ws.norm0_sq, ws.norm1_sq, ws.xi)
        assert got == pytest.approx(closed_form_norms(alpha, rho_mag), abs=1e-9)


class TestBuildWeightSet:
    def test_alpha_zero_orthogonal(self):
        pair = make_correlated_pair(5, 0.0, seed=6)
        ws = build_weight_set(pair, 0.0)
        np.testing.assert_allclose(ws.omega0, ws.omega1, atol=1e-12)
        assert ws.xi == pytest.approx(1.0, abs=1e-10)

    def test_xi_from_solved_norms(self):
        pair = make_correlated_pair(9, 0.8, 0.4, seed=8)
        ws = build_weight_set(pair, 0.2)
        assert ws.norm0_sq == pytest.approx(np.vdot(ws.omega0, ws.omega0).real, abs=1e-12)
        assert ws.norm1_sq == pytest.approx(np.vdot(ws.omega1, ws.omega1).real, abs=1e-12)
        assert ws.xi == pytest.approx(0.5 * (ws.norm0_sq + ws.norm1_sq), abs=1e-12)
        assert ws.xi == pytest.approx(29.0 / 18.0, abs=1e-9)

    def test_stores_only_the_solved_vectors(self):
        assert [f.name for f in dataclasses.fields(WeightSet)] == ["omega0", "omega1"]
        ws = WeightSet(omega0=np.array([0.0, 1.0, 0.0]), omega1=np.array([1.0, 1.0, 1.0]))
        assert (ws.norm0_sq, ws.norm1_sq, ws.xi) == (1.0, 3.0, 2.0)
        np.testing.assert_array_equal(ws.tx_weight(1), ws.omega1 / math.sqrt(2.0))
        # xi is checked when the set is built, so a vector changed in place
        # could make it zero or NaN unchecked
        for omega in (ws.omega0, ws.omega1):
            with pytest.raises(ValueError, match="read-only"):
                omega[0] = 2.0

    @pytest.mark.parametrize("omega", [np.zeros(3), np.array([1.0, math.nan, 0.0])])
    def test_rejects_xi_not_positive_and_finite(self, omega):
        # tx_weight divided by sqrt(xi) and returned NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="xi must be"):
            WeightSet(omega0=omega, omega1=omega)

    def test_constraints_pre_normalization(self):
        # also at |rho|^2 just inside the near-singular tolerance, where the
        # Gram inverse reaches 1 / NEAR_SINGULAR_TOL and |omega0| is about 800,
        # so the SU null rounds to about 2e-10 and gets the other rows' 1e-9
        alpha = 0.35
        for rho_mag, null_tol in ((0.6, 1e-10), (math.sqrt(1.0 - 1.01 * NEAR_SINGULAR_TOL), 1e-9)):
            pair = make_correlated_pair(8, rho_mag, 2.2, seed=10)
            ws = build_weight_set(pair, alpha)
            assert abs(pair.h_su @ ws.omega1) == pytest.approx(math.sqrt(alpha), abs=1e-9)
            assert abs(pair.h_pu @ ws.omega1) == pytest.approx(math.sqrt(1 - alpha), abs=1e-9)
            assert abs(pair.h_su @ ws.omega0) < null_tol
            assert abs(pair.h_pu @ ws.omega0) == pytest.approx(math.sqrt(1 - alpha), abs=1e-9)

    def test_normalized_powers(self):
        # scaling by 1/sqrt(xi) scales received powers by 1/xi
        pair = make_correlated_pair(8, 0.7, 1.0, seed=12)
        alpha = 0.25
        ws = build_weight_set(pair, alpha)
        assert abs(pair.h_pu @ ws.tx_weight(1)) ** 2 == pytest.approx(
            (1 - alpha) / ws.xi, abs=1e-9
        )
        assert abs(pair.h_su @ ws.tx_weight(1)) ** 2 == pytest.approx(
            alpha / ws.xi, abs=1e-9
        )

    def test_rejects_what_solve_min_norm_rejects(self):
        two = ChannelPair(h_pu=np.array([1.0, 0.0]), h_su=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="K >= 3"):
            build_weight_set(two, 0.3)
        for excess in (1.01, 2.0):  # |rho|^2 just past the tolerance, and further
            rho_mag = math.sqrt(1.0 - NEAR_SINGULAR_TOL / excess)
            with pytest.raises(IllConditionedCorrelationError, match="near-singular"):
                build_weight_set(make_correlated_pair(4, rho_mag, seed=0), 0.3)

    def test_xi_at_alpha_zero_increases_with_rho(self):
        values = [closed_form_norms(0.0, r)[2] for r in (0.0, 0.3, 0.6, 0.9)]
        for rho, xi in zip((0.0, 0.3, 0.6, 0.9), values):
            assert xi == pytest.approx(1.0 / (1.0 - rho**2), abs=1e-12)
        assert values == sorted(values)
        assert all(xi >= 1.0 for xi in values)

