"""Special functions: values, identities, elementwise evaluation, guards."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from bpfhelm.errors import NearNyquist, SingularParameter
from bpfhelm.numerics import (
    bernoulli,
    envelope_derivative,
    nyquist_guard,
    phase_factor_m,
    shifted_wavenumber,
    stability_constant_a0,
    theta,
)

EPS = np.finfo(float).eps


class TestBernoulli:
    def test_value_at_zero(self):
        assert bernoulli(0.0) == 1.0

    def test_pi_difference_identity(self):
        # B(-z) - B(z) = z at z = i*pi
        diff = bernoulli(-1j * math.pi) - bernoulli(1j * math.pi)
        assert abs(diff - 1j * math.pi) <= 1e-13

    def test_value_at_one(self):
        # oracle: direct evaluation of z/(e^z - 1) at z = 1
        expected = 1.0 / (math.e - 1.0)
        assert abs(bernoulli(1.0) - expected) <= 1e-15

    def test_reflection_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10:
                continue
            lhs = bernoulli(-z)
            rhs = cmath.exp(z) * bernoulli(z)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)

    def test_difference_identity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            diff = bernoulli(-z) - bernoulli(z)
            assert abs(diff - z) <= 1e-12 * max(abs(z), 1e-300)

    @staticmethod
    def _disk_points(seed, radii=(10.0,) * 400 + (1e-3,) * 100):
        # random points of the disks |z| <= r, one per radius r
        rng = np.random.default_rng(seed)
        m = len(radii)
        return np.array(radii) * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * math.pi * rng.uniform(0, 1, m))

    def test_array_matches_scalar_calls(self):
        z = self._disk_points(21)
        got = bernoulli(z)
        expected = np.array([bernoulli(complex(v)) for v in z])
        assert got.shape == z.shape
        assert np.all(np.abs(got - expected) <= 4 * EPS * np.abs(expected))

    def test_matches_mpmath(self):
        # 40-digit z/(e^z - 1) at the same float inputs; the bound scales with
        # the condition number |z|/dist(z, poles) near the poles +-2*pi*i.
        # Points: the disks |z| <= 10, 1e-3 and 1e-8, and the imaginary axis
        # +-i*s for s in [1e-8, 3], where the flux weights B(+-i*kh) live
        s = np.geomspace(1e-8, 3.0, 200)
        z = np.concatenate([self._disk_points(22), self._disk_points(23, (1e-8,) * 100),
                            1j * s, -1j * s])
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.mpc(v) / mpmath.expm1(mpmath.mpc(v))) for v in z])
        dist = np.minimum(np.abs(z - 2j * math.pi), np.abs(z + 2j * math.pi))
        cond = np.maximum(1.0, np.abs(z) / dist)
        assert np.all(np.abs(bernoulli(z) - exact) <= 8 * EPS * cond * np.abs(exact))

    def test_array_with_zero_raises_no_warning(self):
        # 0 next to tiny, small and unit magnitudes, along four rays
        mags = np.array([0.0, 1e-300, 1e-12, 1e-4, 0.5, 1.0])
        z = np.concatenate([mags, 1j * mags, -mags, mags * cmath.exp(0.7j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bernoulli(z)
            expected = np.array([bernoulli(complex(v)) for v in z])
        assert np.all(got[z == 0] == 1.0)
        assert np.all(np.abs(got - expected) <= 4 * EPS * np.abs(expected))

    def test_scalar_input_gives_complex_scalar(self):
        for z in (0, 0.0, 1e-4, 2.5, 1j, np.complex128(3 - 1j)):
            b = bernoulli(z)
            assert np.ndim(b) == 0 and isinstance(b, complex)
        assert bernoulli(0) == 1.0


class TestTheta:
    def test_limit_at_zero(self):
        assert theta(0.0) == 1.0

    def test_value_at_pi(self):
        assert abs(theta(math.pi) - math.pi**2 / 4.0) <= 1e-14

    def test_value_at_half_pi(self):
        # oracle: direct evaluation s^2/(4 sin^2(s/2)) = pi^2/8
        expected = (math.pi / 2.0) ** 2 / (4.0 * math.sin(math.pi / 4.0) ** 2)
        assert abs(theta(math.pi / 2.0) - expected) <= 1e-14
        assert abs(expected - math.pi**2 / 8.0) <= 1e-14

    def test_matches_bernoulli_magnitude(self):
        for s in np.linspace(0.01, 2.0 * math.pi - 0.05, 200):
            assert abs(theta(s) - abs(bernoulli(1j * s)) ** 2) <= 1e-13 * theta(s)

    def test_range_on_principal_band(self):
        s = np.linspace(0.0, math.pi, 500)
        vals = np.array([theta(float(v)) for v in s])
        assert np.all(vals >= 1.0 - 1e-12)
        assert np.all(vals <= math.pi**2 / 4.0 + 1e-12)

    def test_singular_at_two_pi(self):
        with pytest.raises(SingularParameter):
            theta(2.0 * math.pi)
        with pytest.raises(SingularParameter) as exc:
            theta(4.0 * math.pi + 1e-12)
        assert "of 2*2*pi" in str(exc.value)

    def test_zero_not_singular(self):
        assert theta(1e-9) == pytest.approx(1.0)


class TestPhaseFactor:
    def test_array_matches_scalar_calls(self):
        s = np.linspace(-7.0, 7.0, 301)
        got = phase_factor_m(s)
        assert np.ndim(phase_factor_m(0.3)) == 0 and isinstance(phase_factor_m(0.3), complex)
        expected = np.array([phase_factor_m(float(v)) for v in s])
        assert np.all(np.abs(got - expected) <= 4 * EPS * np.abs(expected))

    def test_values(self):
        assert phase_factor_m(0.0) == 1.0
        assert abs(phase_factor_m(math.pi)) <= 1e-16
        # oracle: direct evaluation at s = pi/2
        expected = cmath.exp(-1j * math.pi / 4.0) * math.sqrt(2.0) / 2.0
        assert abs(phase_factor_m(math.pi / 2.0) - expected) <= 1e-15

    def test_nonzero_inside_band(self):
        for s in np.linspace(0.01, math.pi - 0.01, 100):
            assert abs(phase_factor_m(float(s))) > 0.0

    def test_key_identity_b_over_m(self):
        for s in np.linspace(0.05, math.pi - 0.05, 100):
            lhs = bernoulli(1j * s) / phase_factor_m(s)
            rhs = s / math.sin(s)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestShiftedWavenumber:
    def test_small_kh_limit(self):
        k = 3.0
        assert shifted_wavenumber(k, 1e-8) == pytest.approx(k, rel=1e-12)

    def test_value(self):
        # oracle: 2 sin(pi/2)/1 = 2
        assert shifted_wavenumber(math.pi, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_consistency_with_theta(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = rng.uniform(0.5, 50.0)
            h = rng.uniform(1e-3, 0.05)
            khat = shifted_wavenumber(k, h)
            assert abs(khat * math.sqrt(theta(k * h)) - k) <= 1e-13 * k

    def test_propagates_singularity(self):
        with pytest.raises(SingularParameter):
            shifted_wavenumber(2.0 * math.pi, 1.0)


class TestStabilityConstant:
    def test_small_s_limit(self):
        L, t = 1.0, 4.0
        expected = L / math.sqrt(2.0) + L / (2.0 * t)
        assert stability_constant_a0(1e-9, t, L) == pytest.approx(expected, rel=1e-8)

    def test_reference_value(self):
        # oracle: direct evaluation at s = pi/2, t = pi, L = 1
        th = math.pi**2 / 8.0
        sec = 1.0 / math.cos(math.pi / 4.0)
        expected = 1.0 / math.sqrt(2.0 * th) * sec + 1.0 / (2.0 * math.pi) * sec**2
        got = stability_constant_a0(math.pi / 2.0, math.pi, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_s(self):
        s = np.linspace(1e-6, math.pi - 1e-3, 300)
        vals = [stability_constant_a0(float(v), math.pi, 1.0) for v in s]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bounded_by_corner_value(self):
        s0, t0 = 2.5, math.pi
        corner = stability_constant_a0(s0, t0, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = rng.uniform(1e-3, s0)
            t = rng.uniform(t0, 50.0)
            assert stability_constant_a0(s, t, 1.0) <= corner * (1.0 + 1e-12)

    def test_singular_near_odd_pi(self):
        with pytest.raises(SingularParameter):
            stability_constant_a0(math.pi, 4.0, 1.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            stability_constant_a0(1.0, 0.0, 1.0)


@pytest.mark.parametrize("call, period", [(lambda: theta(1e300), "2[*]pi"),
                                          (lambda: stability_constant_a0(1e300, 4.0, 1.0), "pi")],
                         ids=["theta", "stability_constant_a0"])
def test_guard_message_at_huge_argument_is_short(call, period):
    # floats near 1e300 are 1.5e284 apart: the message says so instead of
    # naming a 300-digit multiple of the guard's period
    with pytest.raises(SingularParameter, match=f"too large to place against {period}[*]Z") as exc:
        call()
    assert len(str(exc.value)) < 100


class TestNyquistGuard:
    def test_high_wavenumber_coarse_grid_passes(self):
        nyquist_guard(2.0**7, 2.0**-3)  # kh = 16

    def test_exact_multiple_rejected(self):
        with pytest.raises(NearNyquist) as exc:
            nyquist_guard(math.pi, 1.0)
        assert "of 1*pi" in str(exc.value)

    @pytest.mark.parametrize("kh, placed", [(1e6 * math.pi, True), (2.0**54, False)])
    def test_message_names_the_multiple_while_floats_resolve_pi(self, kh, placed):
        # from 2^54 on floats are 4 apart, so no multiple of pi can be named
        with pytest.raises(NearNyquist) as exc:
            nyquist_guard(kh, 1.0)
        assert (f"of {round(kh / math.pi)}*pi" in str(exc.value)) == placed
        assert ("too large to place against pi*Z" in str(exc.value)) != placed

    @pytest.mark.parametrize("call, error, first", [
        (lambda s: nyquist_guard(s, 1.0), NearNyquist, 2.0**54),
        (theta, SingularParameter, 2.0**55),
        (lambda s: stability_constant_a0(s, 4.0, 1.0), SingularParameter, 2.0**54),
    ], ids=["nyquist_guard", "theta", "stability_constant_a0"])
    def test_rejects_every_kh_floats_cannot_place(self, call, error, first):
        # from `first` on, floats are more than the guard's period (pi or
        # 2*pi) apart; the distance of 7.7e40 / 8 to pi*Z rounds to more
        # than GUARD_TOL*pi
        for s in (first, 1e18, 7.7e40 / 8, 1e100, 1e300):
            for arg in (s, -s):
                with pytest.raises(error, match="too large to place against"):
                    call(arg)

    def test_near_multiple_rejected_at_default_tol(self):
        with pytest.raises(NearNyquist) as exc:
            nyquist_guard(3.0 * math.pi + 1e-12, 1.0)
        assert "of 3*pi" in str(exc.value)



class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("call", [
        lambda v: theta(v),
        lambda v: nyquist_guard(v, 1.0),
        lambda v: shifted_wavenumber(v, 1.0),
        lambda v: stability_constant_a0(v, 1.0, 1.0),
    ], ids=["theta", "nyquist_guard", "shifted_wavenumber", "stability_constant_a0"])
    def test_rejected_with_value_named(self, call, value):
        # checked before the guard's rounding, which overflows on inf and
        # rejects NaN with a message that names no argument
        with pytest.raises(ValueError, match=f"must be finite, got {value!r}"):
            call(value)


def _envelope_derivative_oracle(which: str, t: float) -> float:
    """g'(t) or h'(t) in 40 digits: h' from its Taylor series below t = 1,
    where the closed form cancels, and from the closed form above."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        s = mpmath.sqrt(t)
        if t < 1:
            dh = mpmath.fsum((-1) ** n * n * t ** (n - 1) / mpmath.factorial(2 * n + 1)
                             for n in range(1, 30))
        else:
            dh = (s * mpmath.cos(s) - mpmath.sin(s)) / (2 * s**3)
        return float(dh if which == "h" else 2 * (mpmath.sin(s) / s if t else 1) * dh)


class TestEnvelopeDerivatives:
    def test_sup_bounds(self):
        t = np.logspace(-5, 4, 100_000)
        assert np.max(np.abs(envelope_derivative("g", t))) <= 1.0 / 3.0 + 1e-6
        assert np.max(np.abs(envelope_derivative("h", t))) <= 1.0 / 6.0 + 1e-6

    def test_g_derivative_limit_at_zero(self):
        # series oracle: g(t) = 1 - t/3 + 2 t^2/45 - ..., so g'(t) ~ -1/3 + 4t/45
        t = 1e-4
        assert envelope_derivative("g", t) == pytest.approx(-1.0 / 3.0 + 4.0 * t / 45.0, abs=1e-9)

    def test_finite_without_warning_from_zero_to_huge_t(self):
        # the closed form divides by t rather than by sqrt(t)^3, which would
        # overflow above t = 3e205 (xi h ~ 1e103 in the multipliers' series)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert envelope_derivative("h", 0.0) == -1.0 / 6.0
            assert envelope_derivative("g", 0.0) == -1.0 / 3.0
            t = [0.0, 5e-324, 1e-300, 1e4, 1e210, 1e300]
            assert np.all(np.isfinite(envelope_derivative("g", t)))
            assert np.all(np.isfinite(envelope_derivative("h", t)))

    @pytest.mark.parametrize("which", ["g", "h"])
    def test_matches_mpmath(self, which):
        # [0, 1e4] on a log and a uniform sample, both sides of the switch
        # at sqrt(t) = 1/2, and the zeros s = j pi of g' and s cos s = sin s of h'
        # (both, with their neighbours), where only an absolute error means
        # anything. Measured worst, here and on a 10,000-point sample: 8.4e-15
        # relative just below t = 1/4, where the series' first omitted term
        # is 1.3e-15, and 8.4e-17 absolute from t = 1 on.
        rng = np.random.default_rng(7)
        below = np.nextafter(0.25, 0.0) - 2.0**-55 * np.arange(20)
        above = 0.25 + 2.0**-54 * np.arange(20)
        zeros = [j * math.pi for j in range(1, 32)]
        with mpmath.workdps(30):
            zeros += [float(mpmath.findroot(lambda s: s * mpmath.cos(s) - mpmath.sin(s),
                                            (j + 0.5) * math.pi - 1 / ((j + 0.5) * math.pi)))
                      for j in range(1, 32)]
        near = np.square(np.outer(zeros, [1.0 - 1e-9, 1.0, 1.0 + 1e-9])).ravel()
        t = np.concatenate([[0.0, 1e-300, 1e-20], below, above, np.logspace(-12, 4, 500),
                            rng.uniform(0.0, 1e4, 500), near[near <= 1e4]])
        exact = np.array([_envelope_derivative_oracle(which, x) for x in t])
        values = envelope_derivative(which, t)
        assert np.all(np.abs(values - exact) <= 1e-14 * np.abs(exact) + 2e-16)
        assert np.array_equal(values, [envelope_derivative(which, float(x)) for x in t])

    def test_unknown_envelope_rejected(self):
        with pytest.raises(KeyError):
            envelope_derivative("f", 1.0)
