"""Brute-force quadrature evaluation of the defining integrals.

Everything here integrates the literal Gaussian-kernel integrands with
adaptive quadrature (QUADPACK via scipy), truncated at |mu| = truncation
radius where the weight is below 1e-62.  Nothing imports the fast evaluators
in :mod:`qplasma.special_functions`; these routines exist solely so the test
suite has an independent route to every value the fast path produces.  They
are slow by design and must stay out of any hot path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

from qplasma.dielectric import PlasmaParams, QueryPoint

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    truncation_radius: float = 12.0
    max_subdivisions: int = 10000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.truncation_radius < 8:
            raise ValueError(
                f"truncation_radius must be >= 8, got {self.truncation_radius}"
            )
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


class OracleError(RuntimeError):
    """Quadrature did not converge within the requested budget."""


def _quad_complex(f, spec: QuadratureSpec, interior_point=None):
    """Adaptive quadrature of complex-valued f over [-R, R]; returns
    (value, error_estimate).  Raises OracleError on non-convergence."""
    R = spec.truncation_radius
    points = None
    if interior_point is not None and -R < interior_point < R:
        points = [interior_point]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            re, re_err = quad(
                lambda s: f(s).real, -R, R, points=points,
                epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
            )
            im, im_err = quad(
                lambda s: f(s).imag, -R, R, points=points,
                epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
            )
        except IntegrationWarning as exc:
            raise OracleError(f"quadrature failed to converge: {exc}") from exc
    return complex(re, im), math.hypot(re_err, im_err)


def quad_t(z: complex, spec: QuadratureSpec = DEFAULT_SPEC, with_error: bool = False):
    """(1/sqrt(pi)) Int e^{-mu^2}/(mu - z) dmu by literal quadrature.

    Defined only for Im z > 0, where the pole is off the integration path.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"quad_t requires Im z > 0, got z={z!r}")
    val, err = _quad_complex(
        lambda mu: math.exp(-mu * mu) / (mu - z) / SQRT_PI, spec, z.real
    )
    return (val, err) if with_error else val


def quad_lambda0(z: complex, spec: QuadratureSpec = DEFAULT_SPEC,
                 with_error: bool = False):
    """(1/sqrt(pi)) Int mu e^{-mu^2}/(mu - z) dmu; Im z > 0 required."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"quad_lambda0 requires Im z > 0, got z={z!r}")
    val, err = _quad_complex(
        lambda mu: mu * math.exp(-mu * mu) / (mu - z) / SQRT_PI, spec, z.real
    )
    return (val, err) if with_error else val


def quad_J0(z: complex, q: float, spec: QuadratureSpec = DEFAULT_SPEC,
            with_error: bool = False):
    """-(1/sqrt(pi)) Int e^{-mu^2} / ((mu - z)^2 - q^2/4) dmu.

    Sign convention matches the symmetric t-difference, so this equals
    ``t_diff_over_q(z, q)``.  Poles sit at z +- q/2, off the real axis for
    any Im z > 0.
    """
    z = complex(z)
    q = float(q)
    if not q > 0.0:
        raise ValueError(f"q must be strictly positive, got {q!r}")
    if not z.imag > 0.0:
        raise ValueError(f"quad_J0 requires Im z > 0, got z={z!r}")
    q2_4 = 0.25 * q * q
    val, err = _quad_complex(
        lambda mu: -math.exp(-mu * mu) / ((mu - z) ** 2 - q2_4) / SQRT_PI,
        spec, z.real,
    )
    return (val, err) if with_error else val


def quad_dawson_integral(u: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """e^{-u^2} Int_0^u e^{s^2} ds by quadrature (finite smooth integral).

    Used by the identity checks on t(-q/2) - t(q/2); independent of
    :func:`qplasma.special_functions.dawson`.
    """
    u = float(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            raw, _ = quad(lambda s: math.exp(s * s), 0.0, u,
                          epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                          limit=spec.max_subdivisions)
        except IntegrationWarning as exc:
            raise OracleError(f"quadrature failed to converge: {exc}") from exc
    return math.exp(-u * u) * raw


def quad_epsilon_quantum(params: PlasmaParams, point: QueryPoint,
                         spec: QuadratureSpec = DEFAULT_SPEC,
                         with_error: bool = False):
    """Quantum longitudinal permittivity with both kernel integrals done by
    quadrature; the independent reference for the fast dielectric path."""
    q = point.q
    if not q > 0.0:
        raise ValueError(f"q must be strictly positive, got {q!r}")
    if not params.y > 0.0:
        raise ValueError(f"oracle permittivity requires y > 0, got {params.y!r}")
    x = point.x
    y = params.y
    z = complex(x, y) / q
    q2_4 = 0.25 * q * q
    num, num_err = _quad_complex(
        lambda s: math.exp(-s * s) / ((s - z) ** 2 - q2_4) / SQRT_PI, spec, z.real
    )
    den, den_err = _quad_complex(
        lambda s: s * math.exp(-s * s) / (s - z) / SQRT_PI, spec, z.real
    )
    xy = complex(x, y)
    val = 1.0 - (params.x_p ** 2 / q ** 2) * xy * num / (x + 1j * y * den)
    err = abs(params.x_p ** 2 / q ** 2) * (abs(num) + abs(den)) * max(num_err, den_err)
    return (val, err) if with_error else val
