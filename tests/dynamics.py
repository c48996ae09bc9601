"""Analytic companion to the iteration: fixed points, the closed-form
solution of the continuous dynamics, and the update-rate bound.

Everything here runs in plain binary64; this module is an oracle for
convergence properties, not a datapath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OutOfBasinError(ValueError):
    """The closed-form bracket went nonpositive: a0 outside the positive basin."""


@dataclass(frozen=True)
class DynamicsParams:
    norm_sq: float          # m = ||y||_2^2
    lam: float              # update rate (Euler step over time constant)
    a0: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("norm_sq", "lam", "a0", "alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


def k_fixed_points(norm: float, alpha: float = 1.0) -> tuple[float, float, float]:
    """Fixed points of the projected scalar dynamics: the unstable origin and
    the two stable points +-alpha^(-1/2) * ||y||_2."""
    if not (norm > 0 and alpha > 0):
        raise ValueError("norm and alpha must be positive")
    stable = norm / math.sqrt(alpha)
    return 0.0, stable, -stable


def steady_norm_sq(alpha: float) -> float:
    """Steady-state squared norm of the auxiliary vector: 1/alpha."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return 1.0 / alpha


def analytic_a(params: DynamicsParams, n: int) -> float:
    """Closed-form a(n) = a0 * [(1 - m*a0^2) e^(-2*m*n*lam) + m*a0^2]^(-1/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m, a0, lam = params.norm_sq, params.a0, params.lam
    ma02 = m * a0 * a0
    bracket = (1.0 - ma02) * math.exp(-2.0 * m * n * lam) + ma02
    if not bracket > 0:
        raise OutOfBasinError(f"bracket {bracket} <= 0 for m*a0^2 = {ma02}")
    return a0 / math.sqrt(bracket)


def exponential_term(params: DynamicsParams, n: int) -> float:
    """The decaying term (1 - m*a0^2) e^(-2*m*n*lam) that sets the
    convergence rate of :func:`analytic_a`."""
    m, a0, lam = params.norm_sq, params.a0, params.lam
    return (1.0 - m * a0 * a0) * math.exp(-2.0 * m * n * lam)


def lambda_lower_bound(m_exponent_minus_bias: int, delta_c: float = 1e-3,
                       n_c: int = 5) -> float:
    """Exponent-relaxed update-rate bound (-ln(delta_c) / (2 n_c)) * 2^(-e-1).

    Derived from lambda > -ln(delta_c) / (2 m n_c) by replacing 1/m with the
    low end of its binade range, 0.5 * 2^(-e) where e = E(m) - bias.  For
    delta_c = 1e-3 and n_c = 5 the coefficient is 0.69/2 ~ 0.3454.
    """
    if not 0 < delta_c < 1:
        raise ValueError("delta_c must lie in (0, 1)")
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    coeff = -math.log(delta_c) / (2.0 * n_c)
    return coeff * math.ldexp(1.0, -(m_exponent_minus_bias + 1))


def simulate_vector_recursion(y: np.ndarray, y_tilde0: np.ndarray, lam: float,
                              steps: int) -> np.ndarray:
    """Directly iterate the vector recursion
    y~_{i+1} = (1 - lam*k_i^2) y~_i + lam*k_i*y with k_i = y . y~_i.

    Binary64 test oracle for the basin structure (sign of k0 selects which
    stable point +-y/||y|| the recursion lands on); production code uses the
    collinear scalar reduction instead.
    """
    y = np.asarray(y, dtype=np.float64)
    yt = np.asarray(y_tilde0, dtype=np.float64).copy()
    for _ in range(steps):
        k = float(y @ yt)
        yt = (1.0 - lam * k * k) * yt + lam * k * y
    return yt
