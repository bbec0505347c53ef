"""Reaction system for the ordered eigenvalues of the curvature operator
in dimension three.

The flow family is parametrised by a real number ``rho`` (the coefficient
coupling the scalar curvature back into the metric evolution).  Dropping
the diffusion term leaves a quadratic reaction system for the eigenvalues
``lam >= mu >= nu`` of the curvature operator:

    lam' = 2 lam^2 + 2 mu nu  - 4 rho lam (lam + mu + nu)
    mu'  = 2 mu^2  + 2 lam nu - 4 rho mu  (lam + mu + nu)
    nu'  = 2 nu^2  + 2 lam mu - 4 rho nu  (lam + mu + nu)

Everything downstream (pinching functions, cones, the verifier) is built
on these right-hand sides.  All operations here are pure functions on
immutable values.

:class:`FlowParams` states each hypothesis of the paper once: the two
time factors and the three parameter windows of the claims.  Every
region, scan and estimate reads them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BlowUpReached, DomainError

__all__ = [
    "RHO_MAX",
    "EigenTriple",
    "FlowParams",
    "rhs_array",
    "isotropic_solution",
]

RHO_MAX = 0.25  # every statement implemented below needs rho < 1/4


@dataclass(frozen=True)
class EigenTriple:
    """Ordered eigenvalue triple ``lam >= mu >= nu`` of the curvature operator.

    Construction rejects unordered or non-finite input.  Use
    :meth:`sorted_from` to build a triple from values of unknown order.
    """

    lam: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        values = (self.lam, self.mu, self.nu)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"eigenvalues must be finite, got {values}")
        if not (self.lam >= self.mu >= self.nu):
            raise DomainError(
                f"eigenvalues must satisfy lam >= mu >= nu, got {values}; "
                "use EigenTriple.sorted_from for unordered input"
            )

    @classmethod
    def sorted_from(cls, a: float, b: float, c: float) -> "EigenTriple":
        """Build a triple from values in any order."""
        lam, mu, nu = sorted((a, b, c), reverse=True)
        return cls(lam, mu, nu)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam, self.mu, self.nu)

    @property
    def trace(self) -> float:
        return self.lam + self.mu + self.nu


@dataclass(frozen=True)
class FlowParams:
    """Parameters of the flow family.

    ``rho`` is the trace-coupling coefficient (all implemented statements
    need ``rho < 1/4``).  ``eta`` and ``theta`` shape the time-dependent
    cones and the logarithmic pinching quantity; ``theta`` must be
    positive, and ``1 + eta*rho > 0`` is checked at the points of use
    (cone membership, xi) rather than here, because several operations
    never touch it.
    """

    rho: float
    eta: float = -4.0
    theta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rho", "eta", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.rho >= RHO_MAX:
            raise DomainError(f"rho must be < 1/4, got {self.rho}")
        if self.theta <= 0:
            raise DomainError(f"theta must be > 0, got {self.theta}")

    @property
    def eta_factor(self) -> float:
        """``1 + eta*rho``, the coefficient inside the K/Y time factor."""
        return 1.0 + self.eta * self.rho

    def sectional_time_factor(self, t):
        """1 + 2(1+eta rho) t (float or array t), the time factor of K, Y
        and xi; at eta = -4 it is the nonnegative-rho factor."""
        return 1.0 + 2.0 * self.eta_factor * t

    def ricci_time_factor(self, t):
        """1 - 4 rho t (float or array t), the time factor of W."""
        return 1.0 - 4.0 * self.rho * t

    # The parameter windows of the claims.  Each returns why these
    # parameters lie outside it, or None, and leaves the policy (raise,
    # or run as an observation) to its caller.  A claim whose kernel
    # fixes eta or theta itself skips the check of that field.

    def neg_rho_window(self) -> str | None:
        """rho < 0: regions X and W, the J scans, the scalar estimate."""
        return None if self.rho < 0 else f"rho < 0, got rho={self.rho}"

    @property
    def sectional_theta(self) -> float:
        """-1/(2 rho), the theta of the negative-rho sectional window."""
        return -1.0 / (2.0 * self.rho)

    def neg_rho_sectional_window(self, check_theta: bool = True) -> str | None:
        """eta > 0, -1/eta < rho < 0 and theta = -1/(2 rho): region Y, the
        xi-prime scan, the sectional estimate (theta built in)."""
        eta, rho = self.eta, self.rho
        if not (eta > 0 and -1.0 / eta < rho < 0.0):
            return f"eta > 0 and -1/eta < rho < 0, got eta={eta}, rho={rho}"
        want = self.sectional_theta
        if check_theta and not math.isclose(self.theta, want, rel_tol=1e-9):
            return f"theta = -1/(2 rho) = {want}, got {self.theta}"
        return None

    def nonneg_rho_window(self, check_eta_theta: bool = True) -> str | None:
        """0 <= rho < 1/4, eta = -4 and theta = 1: region K, the i-poly
        scan, the nonnegative-rho estimate (eta and theta built in).
        rho < 1/4 holds for every FlowParams."""
        if self.rho < 0:
            return f"0 <= rho < 1/4, got rho={self.rho}"
        fixed = math.isclose(self.eta, -4.0) and math.isclose(self.theta, 1.0)
        if check_eta_theta and not fixed:
            return f"eta = -4 and theta = 1, got eta={self.eta}, theta={self.theta}"
        return None

    def require_cone_admissible(self) -> None:
        if self.eta_factor <= 0:
            raise DomainError(
                f"1 + eta*rho must be > 0 for time-dependent cones, got "
                f"{self.eta_factor} (eta={self.eta}, rho={self.rho})"
            )


def rhs_array(l, m, n, rho: float):
    """Reaction right-hand side (dl, dm, dn) on aligned arrays or floats.

    Evaluated in one pass with no reordering; the system preserves the
    eigenvalue ordering on its own (differences of consecutive
    derivatives factor through differences of consecutive eigenvalues).
    The integrator's stages evaluate it, so its operand order fixes
    every trajectory bit for bit.
    """
    t4 = 4.0 * rho * (l + m + n)
    return (
        2.0 * l * l + 2.0 * m * n - t4 * l,
        2.0 * m * m + 2.0 * l * n - t4 * m,
        2.0 * n * n + 2.0 * l * m - t4 * n,
    )


def isotropic_solution(c0: float, params: FlowParams, t: float) -> float:
    """Closed-form solution through the isotropic state (c0, c0, c0).

    On the isotropic line the system collapses to the scalar Riccati
    equation c' = 4(1-3 rho) c^2, solved by

        c(t) = c0 / (1 - 4 (1 - 3 rho) c0 t),

    which blows up at t = 1/(4(1-3 rho) c0) when c0 > 0 (rho < 1/3).
    Serves as the independent oracle for the adaptive integrator.
    """
    denom = 1.0 - 4.0 * (1.0 - 3.0 * params.rho) * c0 * t
    if denom <= 0.0:
        raise BlowUpReached(
            f"isotropic solution with c0={c0}, rho={params.rho} "
            f"has blown up by t={t} (denominator {denom})"
        )
    return c0 / denom
