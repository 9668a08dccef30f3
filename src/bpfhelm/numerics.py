"""Scalar special functions and wavenumber-dependent constants.

Everything here is a pure function of real/complex scalars: the Bernoulli
function B(z) = z/(e^z - 1) that generates the one-way flux weights, the
phase-fitted stencil weight Theta(s) = s^2 / (4 sin^2(s/2)), the boundary
correction factor m(s) = e^{-is/2} cos(s/2), the shifted wavenumber
(2/h) sin(kh/2), and the stability envelope constant A0. Guards convert
near-singular parameter choices (kh near pi*Z, s near 2*pi*Z) into typed
exceptions instead of silently returning huge numbers.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NearNyquist, SingularParameter

# Default guard tolerance, relative to pi, for distances from the singular
# sets pi*Z and 2*pi*Z. Keeps assembled condition numbers below ~1e8.
GUARD_TOL = 1e-8

# Below this |z| the closed form of B(z) is replaced by its Taylor series.
BERNOULLI_SERIES_THRESHOLD = 1e-3


def _check_tol(tol: float) -> None:
    # A NaN tolerance would compare false with every distance and switch the
    # guard off; an infinite one would reject every parameter.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _distance_to_multiples(s: float, period: float) -> tuple[float, int]:
    """Distance from s to the nearest multiple of `period`, and that multiple."""
    m = round(s / period)
    return abs(s - m * period), m


def _cexpm1(z: complex) -> complex:
    """e^z - 1 with full relative accuracy for small |z|.

    Splits into real/imaginary parts so that the cancellation in
    e^x cos y - 1 is performed analytically:
        e^z - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y.
    """
    x, y = z.real, z.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def _bernoulli_series(z: complex) -> complex:
    # Taylor series of z/(e^z-1); next omitted term is z^6/30240.
    z2 = z * z
    return 1.0 - 0.5 * z + z2 / 12.0 - z2 * z2 / 720.0


def _bernoulli_closed(z: complex) -> complex:
    return z / _cexpm1(z)


def bernoulli(z: complex) -> complex:
    """Bernoulli function B(z) = z/(e^z - 1), with B(0) = 1.

    Uses a 4-term Taylor series below |z| = 1e-3 and the closed form above;
    both branches carry >= 13 correct digits so the crossover is seamless.
    Total on finite inputs: the poles at 2*pi*i*Z (excluding 0) are the
    caller's responsibility (see theta / apply_one_way_*).
    """
    z = complex(z)
    if abs(z) < BERNOULLI_SERIES_THRESHOLD:
        return _bernoulli_series(z)
    return _bernoulli_closed(z)


def theta(s: float, tol: float = GUARD_TOL) -> float:
    """Phase-fitted stencil weight Theta(s) = s^2 / (4 sin^2(s/2)).

    Theta(0) = 1 by continuity; on [0, pi] the value lies in [1, pi^2/4].
    Raises SingularParameter when s is within guard tolerance of a nonzero
    multiple of 2*pi, where Theta blows up, and ValueError when tol is not
    finite and positive.
    """
    _check_tol(tol)
    dist, m = _distance_to_multiples(s, 2.0 * math.pi)
    if m != 0 and dist / math.pi <= tol:
        raise SingularParameter(
            f"theta({s!r}): within tolerance {tol:g} of {m}*2*pi"
        )
    if abs(s) < 1e-100:
        return 1.0
    half_sin = math.sin(0.5 * s)
    return s * s / (4.0 * half_sin * half_sin)


def phase_factor_m(s: float) -> complex:
    """Boundary correction factor m(s) = e^{-is/2} cos(s/2); nonzero on (0, pi)."""
    return cmath.exp(-0.5j * s) * math.cos(0.5 * s)


def shifted_wavenumber(k: float, h: float, tol: float = GUARD_TOL) -> float:
    """Shifted wavenumber (2/h) sin(kh/2) = k / sqrt(Theta(kh)).

    The standard three-point stencil with this wavenumber has exact symbol
    at frequency k. Shares theta's guard against kh near 2*pi*Z.
    """
    theta(k * h, tol)  # reject kh near nonzero multiples of 2*pi
    return 2.0 / h * math.sin(0.5 * k * h)


def stability_constant_a0(s: float, t: float, L: float) -> float:
    """Stability constant A0(s, t) = L/sqrt(2 Theta(s)) * |sec(s/2)| + L/(2t) * sec^2(s/2).

    Monotone increasing in s on (0, pi) and decreasing in t, so on
    {s <= s0 < pi, t >= pi} it is bounded by its value at (s0, pi).
    Raises SingularParameter when sec(s/2) is singular, i.e. s within
    guard tolerance of an odd multiple of pi.
    """
    if t <= 0:
        raise ValueError("t = k*L must be positive")
    dist, m = _distance_to_multiples(s, math.pi)
    if m % 2 == 1 and dist / math.pi <= GUARD_TOL:
        raise SingularParameter(
            f"stability_constant_a0({s!r}): sec(s/2) singular near {m}*pi"
        )
    sec = 1.0 / math.cos(0.5 * s)
    th = theta(s)
    return L / math.sqrt(2.0 * th) * abs(sec) + L / (2.0 * t) * sec * sec


def nyquist_guard(k: float, h: float, tol: float = GUARD_TOL) -> None:
    """Reject kh within (relative) tolerance of the Nyquist set pi*Z.

    Raises NearNyquist carrying the offending multiple; returns None when
    the distance to every multiple of pi exceeds tol*pi. Raises ValueError
    when tol is not finite and positive.
    """
    _check_tol(tol)
    s = k * h
    dist, m = _distance_to_multiples(s, math.pi)
    if dist / math.pi <= tol:
        raise NearNyquist(s, m, tol)


def _envelope_g(t: np.ndarray) -> np.ndarray:
    # g(t) = sin^2(sqrt(t)) / t, the squared sinc envelope in t = x^2.
    r = np.sqrt(t)
    return np.sin(r) ** 2 / t


def _envelope_h(t: np.ndarray) -> np.ndarray:
    # h(t) = sin(sqrt(t)) / sqrt(t).
    r = np.sqrt(t)
    return np.sin(r) / r


def envelope_derivative_sup(which: str) -> float:
    """Numerical sup of |g'| or |h'| for the stencil-symbol envelopes.

    g(t) = sin^2(sqrt t)/t and h(t) = sin(sqrt t)/sqrt t enter the mean-value
    bounds on the Fourier multipliers; their derivative sups are 1/3 and 1/6.
    Central differences with step 1e-6*max(t, 1) on a log-spaced sample of
    (0, 1e4] of 1e5 points. A numerical check, not a proof.
    """
    fn = {"g": _envelope_g, "h": _envelope_h}[which]
    t = np.logspace(-5, 4, 100_000)
    step = 1e-6 * np.maximum(t, 1.0)
    deriv = (fn(t + step) - fn(t - step)) / (2.0 * step)
    return float(np.max(np.abs(deriv)))
