"""Special functions and wavenumber-dependent constants.

Everything here is a pure function: the Bernoulli function
B(z) = z/(e^z - 1) that generates the one-way flux weights, evaluated
everywhere as the one formula z/expm1(z) with B(0) = 1, the phase-fitted
stencil weight Theta(s) = s^2 / (4 sin^2(s/2)), the boundary correction
factor m(s) = e^{-is/2} cos(s/2), the shifted wavenumber (2/h) sin(kh/2),
and the stability envelope constant A0. B and m work elementwise on arrays;
the rest, on the solve path, take scalars. One guard rule, `_guard`,
covers the singular sets: kh in pi*Z, the poles 2*pi*Z minus 0 of Theta and
the odd multiples of pi where sec(s/2) in A0 blows up. NaN or inf raises
ValueError; an argument whose floats are more than a period apart, or that
lies within GUARD_TOL*pi of a singular multiple, raises a typed guard error
that carries the nearest multiple as `multiple`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearNyquist, SingularParameter

# The guard tolerance, relative to pi, for distances from the singular sets
# pi*Z and 2*pi*Z: the one place it is set, read by every guard. Keeps
# assembled condition numbers below ~1e8.
GUARD_TOL = 1e-8
# Which multiples m of its period each guard rejects, built once per process.
_NONZERO, _ODD, _EVERY = (lambda m: m != 0), (lambda m: m % 2 == 1), (lambda m: True)


def _guard(label: str, s: float, period: float, name: str, singular, error) -> None:
    """The guard rule of the module docstring for s against the multiples
    of `period`, written `name`; a message starts with label.format(s)."""
    if not math.isfinite(s):
        raise ValueError(f"argument must be finite, got {s!r}")
    m = round(s / period)
    spacing = math.ulp(s)
    if spacing > period:
        why = f"too large to place against {name}*Z (float spacing {spacing:.3g} exceeds {name})"
    elif singular(m) and abs(s - m * period) / math.pi <= GUARD_TOL:
        why = f"within tolerance {GUARD_TOL:g} of {m}*{name}"
    else:
        return
    raise error(f"{label.format(s)} {why}", multiple=m)


def bernoulli(z):
    """Bernoulli function B(z) = z/(e^z - 1), with B(0) = 1, elementwise.

    One formula, z/expm1(z), accurate near 0 because numpy's complex expm1
    keeps full relative accuracy for small |z|. At z = 0 the quotient is
    taken at a stand-in and replaced by 1, so 0/0 never warns.
    Finite where Re z < 709 (e^z overflows above), except at the poles
    2*pi*i*Z minus 0, which are the caller's responsibility (see theta).
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, safe / np.expm1(safe))[()]  # [()]: a scalar for scalar z


def theta(s: float) -> float:
    """Phase-fitted stencil weight Theta(s) = s^2 / (4 sin^2(s/2)).

    Theta(0) = 1 by continuity; on [0, pi] the value lies in [1, pi^2/4].
    Guarded against the nonzero multiples of 2*pi, where Theta blows up:
    raises SingularParameter there, and from |s| = 2^55 on.
    """
    _guard("theta({!r}):", s, 2.0 * math.pi, "2*pi", _NONZERO, SingularParameter)
    if abs(s) < 1e-100:
        return 1.0
    half_sin = math.sin(0.5 * s)
    return s * s / (4.0 * half_sin * half_sin)


def phase_factor_m(s):
    """Boundary correction factor m(s) = e^{-is/2} cos(s/2), elementwise; nonzero on (0, pi)."""
    return np.exp(-0.5j * s) * np.cos(0.5 * s)


def shifted_wavenumber(k: float, h: float) -> float:
    """Shifted wavenumber (2/h) sin(kh/2) = k / sqrt(Theta(kh)).

    The standard three-point stencil with this wavenumber has exact symbol
    at frequency k. Shares theta's guard against kh within GUARD_TOL*pi of
    2*pi*Z.
    """
    theta(k * h)  # reject kh near nonzero multiples of 2*pi
    return 2.0 / h * math.sin(0.5 * k * h)


def stability_constant_a0(s: float, t: float, L: float) -> float:
    """Stability constant A0(s, t) = L/sqrt(2 Theta(s)) * |sec(s/2)| + L/(2t) * sec^2(s/2).

    Monotone increasing in s on (0, pi) and decreasing in t, so on
    {s <= s0 < pi, t >= pi} it is bounded by its value at (s0, pi).
    Guarded against the odd multiples of pi, where sec(s/2) blows up:
    raises SingularParameter there, and from |s| = 2^54 on.
    """
    if t <= 0:
        raise ValueError("t = k*L must be positive")
    _guard("stability_constant_a0({!r}):", s, math.pi, "pi", _ODD, SingularParameter)
    sec = 1.0 / math.cos(0.5 * s)
    th = theta(s)
    return L / math.sqrt(2.0 * th) * abs(sec) + L / (2.0 * t) * sec * sec


def nyquist_guard(k: float, h: float) -> None:
    """Reject kh within GUARD_TOL*pi of the Nyquist set pi*Z.

    Raises NearNyquist carrying the offending multiple; returns None when
    the distance to every multiple of pi exceeds GUARD_TOL*pi. From
    kh = 2^54 on, floats are more than pi apart, so that distance is an
    artefact of rounding m*pi; every such kh is rejected.
    """
    _guard("kh = {!r} is", k * h, math.pi, "pi", _EVERY, NearNyquist)


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
