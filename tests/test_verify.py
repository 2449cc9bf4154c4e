"""The numerical helpers of the verify suites against their plain definitions."""

import numpy as np

from hartogs.coeffspace import TorusSeries
from hartogs.verify import _bump, _torus_samples


def bump_formula(z1, z2):
    """The formula of _bump's docstring in np.longdouble, and its condition
    number: the relative change of the bump per relative change of x or y."""
    ld = np.longdouble
    r2 = np.asarray(z2.real, dtype=ld) ** 2 + np.asarray(z2.imag, dtype=ld) ** 2
    x = (np.asarray(z1.real, dtype=ld) ** 2 + np.asarray(z1.imag, dtype=ld) ** 2) / r2
    y = np.sqrt(r2)
    w1 = np.clip(4 * (x - ld("0.09")) * (ld("0.3025") - x) / ld("0.2125") ** 2, 0, None)
    w2 = np.clip(4 * (y - ld("0.25")) * (ld("0.9") - y) / ld("0.65") ** 2, 0, None)
    with np.errstate(divide="ignore"):
        cond = 12 * (
            np.abs(x * (1 / (x - ld("0.09")) - 1 / (ld("0.3025") - x)))
            + np.abs(y * (1 / (y - ld("0.25")) - 1 / (ld("0.9") - y)))
        )
    return (w1**12 * w2**12).astype(float), cond.astype(float)


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    z2 = rng.uniform(0.05, 0.99, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    ratio = rng.uniform(0.0, 0.99, count)
    return z2 * ratio * np.exp(2j * np.pi * rng.uniform(size=count)), z2, ratio


class TestBump:
    def test_matches_its_formula(self):
        """1e-14 relative, times the condition number, which grows without
        bound at the edges of the support, where the factors (x - 0.09) etc.
        cancel and an ulp of x is amplified 12-fold per power."""
        z1, z2, _ = random_pairs(3, 20_000)
        ref, cond = bump_formula(z1, z2)
        inside = ref > 0.0
        assert inside.sum() > 3000
        got = _bump(z1, z2)
        assert np.all(np.abs(got[inside] - ref[inside]) <= 1e-14 * (1.0 + cond[inside]) * ref[inside])

    def test_exactly_zero_off_its_support(self):
        z1, z2, ratio = random_pairs(4, 4000)
        outside = (ratio <= 0.3) | (ratio >= 0.55) | (np.abs(z2) <= 0.25) | (np.abs(z2) >= 0.9)
        assert outside.sum() > 2000
        assert np.all(_bump(z1, z2)[outside] == 0.0)


class TestTorusSamples:
    def test_matches_per_term_evaluation(self):
        degree, n = 32, 133
        rng = np.random.default_rng(5)
        keys = rng.integers(-degree, degree + 1, size=(16, 2))
        keys[:3] = [(-degree, -degree), (degree, -1), (-7, degree)]
        f = TorusSeries({tuple(key): complex(*rng.normal(size=2)) for key in keys.tolist()})
        theta = 2.0 * np.pi * np.arange(n) / n
        z1 = np.exp(1j * theta)[:, None]
        z2 = np.exp(1j * theta)[None, :]
        ref = sum(a * z1**j * z2**k for (j, k), a in f.items())
        assert np.max(np.abs(_torus_samples(f, n) - ref)) <= 1e-12

    def test_empty_series_is_zero(self):
        assert np.all(_torus_samples(TorusSeries({}), 7) == 0.0)
