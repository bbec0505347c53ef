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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    :meth:`sorted_from` to build a triple from values of unknown order;
    it sorts and records whether it had to.
    """

    lam: float
    mu: float
    nu: float
    reordered: bool = field(default=False, compare=False, repr=False)

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
        """Build a triple from values in any order.

        The result's ``reordered`` flag is True when the input was not
        already sorted descending, so callers can detect accidental
        disorder without being forced to crash on it.
        """
        lam, mu, nu = sorted((a, b, c), reverse=True)
        return cls(lam, mu, nu, reordered=not (a >= b >= c))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam, self.mu, self.nu)

    @property
    def trace(self) -> float:
        return self.lam + self.mu + self.nu

    @property
    def sup_norm(self) -> float:
        return max(abs(self.lam), abs(self.mu), abs(self.nu))

    def scaled(self, s: float) -> "EigenTriple":
        if s >= 0:
            return EigenTriple(self.lam * s, self.mu * s, self.nu * s)
        return EigenTriple(self.nu * s, self.mu * s, self.lam * s)


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
    The integrator inlines this; keep in step.
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
