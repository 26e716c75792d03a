"""Pointwise algebra of (0,1)-forms on C: the twisted curvature term.

For a (0,1)-form u on C the curvature term of the twisted estimate is
theta |u|^2 with theta = tau lam_zzbar - tau_zzbar - |tau_z|^2 / tau, the
factor `oracles.theta_factor` evaluates for the twisted quadrature check.
"""

import numpy as np
import pytest

from oracles import abs2_field, constant_field, gaussian_decay_field, theta_factor


def random_points(rng, count, radius=1.0):
    return radius * (rng.normal(size=count) + 1j * rng.normal(size=count))


class TestTheta:
    def test_constant_tau_reduces_to_hessian(self):
        # tau = 1 has no derivatives: theta is the Hessian lam_zzbar
        rng = np.random.default_rng(17)
        tau = constant_field(1.0)
        for _ in range(25):
            scale = float(rng.normal())
            z = random_points(rng, 8)
            for lam in (abs2_field(scale), gaussian_decay_field(abs(scale))):
                assert theta_factor(lam, tau, z) == pytest.approx(
                    lam.zzbar(z), rel=1e-12, abs=1e-12
                )

    def test_zero_form(self):
        rng = np.random.default_rng(19)
        z = random_points(rng, 16)
        u = np.zeros_like(z)
        term = theta_factor(abs2_field(0.5), gaussian_decay_field(0.5), z) * np.abs(u) ** 2
        assert np.all(term == 0.0)

    def test_nonpositive_tau_rejected(self):
        z = np.array([0j, 1 + 1j])
        with pytest.raises(ValueError):
            theta_factor(constant_field(0.0), constant_field(0.0), z)
        with pytest.raises(ValueError):
            theta_factor(constant_field(0.0), constant_field(-1.0), z)

    def test_gaussian_twist_lower_bound(self):
        # lam = a|z|^2, tau = exp(-a|z|^2) on points |z| <= D:
        # theta |u|^2 >= a exp(-a|z|^2) 2 (1 - a D^2) |u|^2
        rng = np.random.default_rng(23)
        D = 1.5
        alpha = 1.0 / (2 * D * D)
        lam = abs2_field(alpha)
        tau = gaussian_decay_field(alpha)
        for _ in range(200):
            z = complex(rng.normal(), rng.normal())
            z *= D * rng.uniform(0, 1) / max(abs(z), 1e-9)
            u = complex(rng.normal(), rng.normal())
            t_val = float(np.exp(-alpha * abs(z) ** 2))
            lhs = float(theta_factor(lam, tau, np.array([z]))[0]) * abs(u) ** 2
            rhs = alpha * t_val * 2 * (1 - alpha * D * D) * abs(u) ** 2
            assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))
