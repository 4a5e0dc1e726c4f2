"""Closed-form surrogates: log-sum-exp max and shifted l-p."""

import math

import numpy as np
import pytest

from gradnorm.approx import ShiftedLpApprox, SoftmaxApprox, build_approx, parse_approx_spec
from gradnorm.approx import parse as approx_parse
from gradnorm.norms import NormParseError, normalize_spec, topk
from helpers import finite_diff_grad


class TestSoftmax:
    def test_value_at_zero(self):
        for d, eps in ((4, 1.0), (16, 0.5), (64, 2.0)):
            sm = SoftmaxApprox(d, eps)
            assert sm.value(np.zeros(d)) == pytest.approx(math.log(d) / eps)

    def test_shift_equivariance(self):
        sm = SoftmaxApprox(8, 0.7)
        rng = np.random.default_rng(0)
        z = rng.exponential(1.0, 8)
        for c in (0.5, 3.0, 17.0):
            assert sm.value(z + c) == pytest.approx(sm.value(z) + c, rel=1e-12)

    def test_two_point_closed_form(self):
        sm = SoftmaxApprox(2, 1.0)
        x = np.array([0.0, math.log(3.0)])
        assert sm.value(x) == pytest.approx(math.log(4.0))
        np.testing.assert_allclose(sm.gradient(x), [0.25, 0.75], rtol=1e-12)

    def test_gradient_is_probability_vector(self):
        sm = SoftmaxApprox(10, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = sm.gradient(rng.exponential(1.0, 10) * rng.choice([0.1, 1, 100]))
            assert g.min() >= 0.0
            assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_overflow_safe(self):
        sm = SoftmaxApprox(3, 1.0)
        x = np.array([1e6, 0.0, 5.0])
        assert sm.value(x) == pytest.approx(1e6)
        np.testing.assert_allclose(sm.gradient(x), [1.0, 0.0, 0.0], atol=1e-300)

    def test_stability_ratio_closed_form(self):
        """grad(x+y)_i / grad(x)_i >= exp(-eps * ||y||_inf), tight family."""
        sm = SoftmaxApprox(12, 1.3)
        rng = np.random.default_rng(2)
        for _ in range(500):
            x = rng.exponential(1.0, 12)
            y = rng.exponential(0.5, 12) * (rng.random(12) < 0.5)
            bound = math.exp(-1.3 * y.max())
            ratio = sm.gradient(x + y) / sm.gradient(x)
            assert (ratio >= bound - 1e-9).all()

    def test_gradient_bit_exact(self):
        """The softmax weights are exactly e / e.sum() with e = exp(z - max z)."""
        sm = SoftmaxApprox(9, 0.8)
        rng = np.random.default_rng(3)
        for scale in (0.01, 1.0, 50.0):
            x = rng.exponential(scale, 9)
            z = 0.8 * x
            e = np.exp(z - z.max())
            assert (sm.gradient(x) == e / e.sum()).all()

    def test_meta(self):
        sm = SoftmaxApprox(16, 0.25)
        assert sm.meta.delta == 0.0
        assert sm.meta.alpha == 1.0
        assert sm.meta.gamma == pytest.approx(math.log(16))
        assert sm.norm_spec().kind == "linf"


class TestShiftedLp:
    def test_p1_is_linear(self):
        sl = ShiftedLpApprox(5, 1.0, 0.3)
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, 5)
        assert sl.value(x) == pytest.approx(x.sum())
        np.testing.assert_allclose(sl.gradient(x), np.ones(5))
        assert sl.meta.gamma == 0.0

    def test_nan_exponent_refused(self):
        with pytest.raises(ValueError):
            ShiftedLpApprox(4, math.nan, 1.0)
        with pytest.raises(NormParseError):
            parse_approx_spec("slp:nan")
        assert parse_approx_spec("slp:inf").p == math.inf

    def test_zero_input_gives_shift(self):
        sl = ShiftedLpApprox(4, 2.0, 1.0)
        assert sl.value(np.zeros(4)) == pytest.approx(1.0)  # shift c = (q-1)/eps

    def test_exponent_cap(self):
        sl = ShiftedLpApprox(8, math.inf, 1.0)
        assert sl.q == pytest.approx(1.0 + math.log(8))
        assert sl.meta.gamma == pytest.approx(math.log(8))

    def test_gradient_matches_finite_differences(self):
        sl = ShiftedLpApprox(8, 2.0, 0.1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.exponential(1.0, 8)
            fd = finite_diff_grad(sl.value, x, 1e-5)
            np.testing.assert_allclose(sl.gradient(x), fd, atol=1e-6)

    def test_gradient_bit_exact(self):
        """The gradient is exactly (x / value(x)) ** (q - 1)."""
        lp = ShiftedLpApprox(7, 2.5, 0.4)
        rng = np.random.default_rng(4)
        for scale in (0.01, 1.0, 50.0):
            x = rng.exponential(scale, 7)
            assert (lp.gradient(x) == (x / lp.value(x)) ** (lp.q - 1.0)).all()

    def test_sandwich_exact(self):
        """||x||_q <= value(x) <= ||x||_q + (q-1)/eps on random probes."""
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 4.0, math.inf):
            sl = ShiftedLpApprox(6, p, 0.5)
            c = sl.shift
            for _ in range(1000):
                x = rng.exponential(1.0, 6) * rng.choice([0.1, 1.0, 10.0])
                nq = float(np.sum(x**sl.q) ** (1.0 / sl.q))
                v = sl.value(x)
                assert nq - 1e-9 * max(nq, 1.0) <= v <= nq + c + 1e-9 * max(nq, 1.0)

    def test_stability_zero_slack(self):
        """The shift makes the gradient decay at most exp(-eps*||y||_q)."""
        sl = ShiftedLpApprox(6, 3.0, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = rng.exponential(1.0, 6)
            y = rng.exponential(0.3, 6)
            bound = math.exp(-1.0 * float(np.sum(y**sl.q) ** (1.0 / sl.q)))
            g0, g1 = sl.gradient(x), sl.gradient(x + y)
            assert (g1 >= bound * g0 - 1e-9).all()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ShiftedLpApprox(4, 0.5, 1.0)

    def test_big_values_no_overflow(self):
        sl = ShiftedLpApprox(4, 4.0, 1.0)
        x = np.array([1e150, 1e149, 0.0, 1.0])
        assert np.isfinite(sl.value(x))
        assert np.isfinite(sl.gradient(x)).all()


class TestNoiseCap:
    """build_approx refuses a top-k build above NOISE_CAP noise floats before
    any draw.  The cap is lowered here, so no test allocates near the real one."""

    @pytest.mark.parametrize("text, dims, floats", [
        ("gstopk:4", [16], 16),  # one leaf of 16 coordinates
        ("sym", [16], 16 * 5),  # one leaf per dyadic rank 1, 2, 4, 8, 16
        ("nested:2", [8, 8], 2 * 8 * 4),  # a sym build of 4 leaves per resource
    ])
    def test_refused_above_the_cap(self, monkeypatch, text, dims, floats):
        norms = [normalize_spec(topk(d, 2)) for d in dims]
        monkeypatch.setattr(approx_parse, "NOISE_CAP", 100 * floats - 1)
        with pytest.raises(ValueError, match=f"samples=100 would draw {100 * floats} top-k"):
            build_approx(text, norms, 1.0, samples=100)

    def test_closed_forms_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(approx_parse, "NOISE_CAP", 0)
        norms = [normalize_spec(topk(16, 2))]
        assert build_approx("softmax", norms, 1.0, samples=10**12).dim == 16
        assert build_approx("slp:2", norms, 1.0, samples=10**12).dim == 16

    def test_cli_exits_2(self, monkeypatch, capsys):
        from gradnorm import cli

        monkeypatch.setattr(approx_parse, "NOISE_CAP", 100 * 16 - 1)
        code = cli.main(["verify", "--approx", "gstopk:4", "--norm", "topk:4", "--dim", "16",
                         "--samples", "100", "--trials", "1", "--check", "stability"])
        assert code == 2
        assert "error: samples=100 would draw 1600 top-k noise floats" in capsys.readouterr().err
