"""Ready-made, test-anchored example systems and the action-angle
transform for the five-dimensional toric system.

Catalog ids:

``dissipative-2d``
    Planar mechanical system with momentum-proportional friction encoded by
    the ``gamma * z`` term and a single additive noise channel acting on the
    action coordinate z (noise Hamiltonian ``-eps``, so the generated
    z-equation carries ``+eps`` noise).  The flow rescales the contact form
    by exp(-gamma (t - t0)).

``sasaki-einstein-t11``
    Contact system on the homogeneous toric space T^{1,1} driven by five
    noise channels; all Hamiltonians are psi-independent, so the flow is a
    strict contactomorphism (conformal factor identically 1).  The triple
    {1, cos(theta1)/3, cos(theta2)/3} is an involutive, independent family
    of Reeb-type first integrals, while {cos(theta_i)/3, phi_i} are
    conjugate pairs with bracket 1.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import DarbouxChart, HamiltonianSystem, SasakiEinsteinChart

__all__ = [
    "CatalogEntry", "CATALOG", "get_entry",
    "dissipative_system", "sasaki_einstein_system",
    "ActionAngleMap", "se_action_angle_map", "action_angle_pushforward",
]


def dissipative_system(
    m: float = 1.0,
    gamma: float = 0.5,
    eps: float = 0.1,
    v_source: str = "(q1^2+q2^2)/2",
) -> HamiltonianSystem:
    """Planar dissipative mechanical system with additive z-noise.

    Drift Hamiltonian ``(p1^2 + p2^2)/(2m) + V(q) + gamma z`` on the Darboux
    chart with n = 2; one noise Hamiltonian ``-eps``.  The conformal factor
    along the flow is exp(-gamma (t - t0)).
    """
    if m <= 0.0:
        raise ConfigError("m must be positive")
    if gamma <= 0.0:
        raise ConfigError("gamma must be positive")
    h0 = f"(p1^2 + p2^2)/(2*m) + ({v_source}) + gamma*z"
    return HamiltonianSystem(
        DarbouxChart(2), h0, ["-eps"],
        constants={"m": float(m), "gamma": float(gamma), "eps": float(eps)},
    )


def sasaki_einstein_system() -> HamiltonianSystem:
    """Five-channel stochastic contact system on T^{1,1}.

    Drift Hamiltonian 1 (three times the Reeb direction) and noise
    Hamiltonians 1, cos(theta1)/3, cos(theta2)/3, phi1, phi2.
    """
    return HamiltonianSystem(
        SasakiEinsteinChart(),
        "1",
        ["1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)", "phi1", "phi2"],
    )


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    default_params: dict
    default_initial_state: tuple
    build: Callable[..., HamiltonianSystem]
    conformal_factor_source: Optional[Callable[[dict, float], str]] = None

    def system(self, **overrides) -> HamiltonianSystem:
        params = dict(self.default_params)
        unknown = set(overrides) - set(params)
        if unknown:
            raise ConfigError(f"unknown parameters for {self.id!r}: {sorted(unknown)}")
        for name, value in overrides.items():
            if isinstance(params[name], float) and (isinstance(value, bool)
                                                    or not isinstance(value, numbers.Real)):
                raise ConfigError(f"parameter {name!r} must be a number, got {value!r}")
        params.update(overrides)
        return self.build(**params)


CATALOG = {
    "dissipative-2d": CatalogEntry(
        id="dissipative-2d",
        description=(
            "Planar mechanical system with linear friction (gamma z term) and "
            "one additive noise channel on z; conformal factor exp(-gamma (t - t0))."
        ),
        default_params={"m": 1.0, "gamma": 0.5, "eps": 0.1, "v_source": "(q1^2+q2^2)/2"},
        default_initial_state=(1.0, 0.0, 2.0, 0.0, 0.0),
        build=dissipative_system,
        conformal_factor_source=lambda params, t0: f"exp(-{params['gamma']!r}*(t - {t0!r}))",
    ),
    "sasaki-einstein-t11": CatalogEntry(
        id="sasaki-einstein-t11",
        description=(
            "Completely integrable five-channel contact system on T^{1,1}; "
            "strict contactomorphism (conformal factor 1)."
        ),
        default_params={},
        default_initial_state=(math.pi / 2, math.pi / 2, 0.3, -0.4, 0.25),
        build=sasaki_einstein_system,
        conformal_factor_source=lambda params, t0: "1",
    ),
}


def get_entry(catalog_id: str) -> CatalogEntry:
    try:
        return CATALOG[catalog_id]
    except KeyError:
        raise ConfigError(
            f"unknown system id {catalog_id!r}; available: {sorted(CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# Action-angle transform for the T^{1,1} system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionAngleMap:
    """Diffeomorphism onto generalized action-angle coordinates
    (y1, y2, angle1, angle2, angle0):

        y_i = cos(theta_i)/3,  angle_i = phi_i,  angle0 = psi/3.

    In these coordinates the contact form is dz-like:
    eta0 = d angle0 + y1 d angle1 + y2 d angle2, and the pullback of eta0
    through the map equals the chart form exactly.
    """

    system: HamiltonianSystem

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([
            math.cos(x[0]) / 3.0,
            math.cos(x[1]) / 3.0,
            x[2],
            x[3],
            x[4] / 3.0,
        ])

    def inverse(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        for v in (y[0], y[1]):
            if abs(3.0 * v) > 1.0:
                raise DomainError(f"action value {v!r} outside [-1/3, 1/3]")
        return np.array([
            math.acos(3.0 * y[0]),
            math.acos(3.0 * y[1]),
            y[2],
            y[3],
            3.0 * y[4],
        ])

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros((5, 5))
        out[0, 0] = -math.sin(x[0]) / 3.0
        out[1, 1] = -math.sin(x[1]) / 3.0
        out[2, 2] = 1.0
        out[3, 3] = 1.0
        out[4, 4] = 1.0 / 3.0
        return out

    def eta_actionangle(self, y) -> np.ndarray:
        """The canonical form eta0 = d angle0 + y1 d angle1 + y2 d angle2 as a
        covector in (y1, y2, angle1, angle2, angle0) component order."""
        y = np.asarray(y, dtype=float)
        return np.array([0.0, 0.0, y[0], y[1], 1.0])


def se_action_angle_map(system: HamiltonianSystem | None = None) -> ActionAngleMap:
    return ActionAngleMap(system=system if system is not None else sasaki_einstein_system())


def action_angle_pushforward(aa_map: ActionAngleMap, x):
    """Drift and diffusion of the T^{1,1} system expressed in action-angle
    coordinates: the chart coefficients at ``x`` pushed through the map's
    Jacobian (Stratonovich differentials obey the ordinary chain rule).

    Returns ``(drift, diffusion)`` with shapes (5,) and (5, 5).
    """
    x = np.asarray(x, dtype=float)
    drift, diffusion = aa_map.system.drift_diffusion(x)
    jac = aa_map.jacobian(x)
    return jac @ drift, jac @ diffusion
