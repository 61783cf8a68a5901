import dataclasses
import math

import numpy as np
import pytest

from intermod.channel import ChannelPair, IllConditionedCorrelationError, make_correlated_pair
from intermod.weights import (
    WeightSet,
    build_weight_set,
    closed_form_norms,
    paper_closed_form_norms,
    solve_min_norm,
)


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


class TestPhaseAlignTargets:
    """The OOK-one targets build_weight_set solves for, read off h_su^T omega1."""

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

    def test_phase_grid_search_oracle(self):
        # solve at 360 candidate phases; the phase build_weight_set targets must win
        alpha, rho_mag, phase = 0.3, 0.5, 0.8
        pair = make_correlated_pair(7, rho_mag, phase, seed=4)
        phases = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
        norms = []
        for p in phases:
            omega = solve_min_norm(pair, math.sqrt(alpha) * np.exp(1j * p), math.sqrt(1 - alpha))
            norms.append(np.vdot(omega, omega).real)
        best = phases[int(np.argmin(norms))]
        want = np.angle(pair.h_su @ build_weight_set(pair, alpha).omega1) % (2 * np.pi)
        assert abs(want - (-phase) % (2 * np.pi)) < 1e-9
        diff = abs((best - want + np.pi) % (2 * np.pi) - np.pi)
        assert diff <= 2 * np.pi / 360


class TestClosedForms:
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

    def test_domain_checks(self):
        for bad in ((1.0, 0.5), (-0.1, 0.5), (0.5, 1.0), (0.5, -0.1)):
            with pytest.raises(ValueError):
                closed_form_norms(*bad)

    def test_matches_solver_on_random_tuples(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            alpha = float(rng.uniform(0.0, 0.9))
            rho_mag = float(rng.uniform(0.0, 0.95))
            pair = make_correlated_pair(
                int(rng.integers(3, 16)), rho_mag, float(rng.uniform(0, 2 * np.pi)),
                seed=int(rng.integers(0, 2**31)),
            )
            ws = build_weight_set(pair, alpha)
            n0, n1, xi = closed_form_norms(alpha, rho_mag)
            assert ws.norm0_sq == pytest.approx(n0, abs=1e-9)
            assert ws.norm1_sq == pytest.approx(n1, abs=1e-9)
            assert ws.xi == pytest.approx(xi, abs=1e-9)


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

    def test_constraints_pre_normalization(self):
        pair = make_correlated_pair(8, 0.6, 2.2, seed=10)
        alpha = 0.35
        ws = build_weight_set(pair, alpha)
        assert abs(pair.h_su @ ws.omega1) == pytest.approx(math.sqrt(alpha), abs=1e-9)
        assert abs(pair.h_pu @ ws.omega1) == pytest.approx(math.sqrt(1 - alpha), abs=1e-9)
        assert abs(pair.h_su @ ws.omega0) < 1e-10
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

    def test_xi_channel_independent(self):
        alpha, rho_mag = 0.4, 0.65
        xis = []
        for seed in range(10):
            pair = make_correlated_pair(
                4 + seed, rho_mag, 0.37 * seed, seed=seed * 101 + 5
            )
            xis.append(build_weight_set(pair, alpha).xi)
        assert max(xis) - min(xis) < 1e-9

    def test_xi_at_alpha_zero_increases_with_rho(self):
        values = [closed_form_norms(0.0, r)[2] for r in (0.0, 0.3, 0.6, 0.9)]
        for rho, xi in zip((0.0, 0.3, 0.6, 0.9), values):
            assert xi == pytest.approx(1.0 / (1.0 - rho**2), abs=1e-12)
        assert values == sorted(values)
        assert all(xi >= 1.0 for xi in values)
