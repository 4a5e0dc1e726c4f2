"""Norm evaluation: closed-form values, axioms, profiles and the spec grammar."""

import math

import numpy as np
import pytest

from gradnorm.norms import (
    NormParseError,
    NormSpecError,
    OracleError,
    eval_norm,
    eval_norm_rows,
    format_norm_spec,
    l1,
    linf,
    lp,
    norm_subgradient,
    normalize_spec,
    ones_profile,
    oracle_sym,
    ordered,
    orlicz,
    parse_norm_spec,
    topk,
)

ALL_SPECS = [
    linf(6),
    lp(6, 1.0),
    lp(6, 2.0),
    lp(6, 3.5),
    lp(6, math.inf),
    topk(6, 1),
    topk(6, 3),
    topk(6, 6),
    ordered([3.0, 2.0, 1.0, 1.0, 0.5, 0.0]),
    orlicz(6, lambda z: z**2, name="pow:2"),
]


class TestClosedForms:
    def test_pythagorean(self):
        assert eval_norm(lp(2, 2.0), [3.0, 4.0]) == pytest.approx(5.0)

    def test_top2_of_three(self):
        assert eval_norm(topk(3, 2), [3.0, 1.0, 2.0]) == pytest.approx(5.0)

    def test_ordered_weighted_sorted_sum(self):
        # 2*5 + 1*2 + 0*1
        assert eval_norm(ordered([2.0, 1.0, 0.0]), [1.0, 5.0, 2.0]) == pytest.approx(12.0)

    def test_orlicz_square_is_l2(self):
        assert eval_norm(orlicz(2, lambda z: z * z), [3.0, 4.0]) == pytest.approx(5.0, rel=1e-9)

    def test_top_k_norm_extremes(self):
        assert eval_norm(topk(3, 1), [3.0, 1.0, 2.0]) == 3.0
        assert eval_norm(topk(3, 3), [3.0, 1.0, 2.0]) == 6.0
        assert eval_norm(topk(5, 2), np.zeros(5)) == 0.0

    def test_top_k_out_of_range(self):
        with pytest.raises(NormSpecError):
            topk(2, 0)
        with pytest.raises(NormSpecError):
            topk(2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(NormSpecError):
            eval_norm(lp(3, 2.0), [1.0, 2.0])


class TestAxioms:
    """Subadditivity, homogeneity, monotonicity, symmetry on random probes."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind + str(s.p or s.k or ""))
    def test_norm_axioms(self, spec):
        rng = np.random.default_rng(20260810)
        trials = 60 if spec.kind == "orlicz" else 400
        for _ in range(trials):
            x = rng.exponential(1.0, spec.dim) * rng.choice([0.1, 1.0, 10.0])
            y = rng.exponential(1.0, spec.dim)
            a = rng.uniform(0.0, 5.0)
            vx, vy = eval_norm(spec, x), eval_norm(spec, y)
            assert eval_norm(spec, x + y) <= vx + vy + 1e-9 * (vx + vy)
            assert eval_norm(spec, a * x) == pytest.approx(a * vx, rel=1e-9, abs=1e-12)
            assert eval_norm(spec, x + y) >= vx - 1e-9 * vx  # monotone: x+y >= x
            perm = rng.permutation(spec.dim)
            assert eval_norm(spec, x[perm]) == pytest.approx(vx, rel=1e-12)

    def test_linf_l1_envelope_after_normalization(self):
        rng = np.random.default_rng(7)
        specs = [normalize_spec(s) for s in ALL_SPECS if s.kind != "orlicz"]
        for _ in range(1000):
            x = rng.exponential(1.0, 6)
            lo, hi = x.max(), x.sum()
            for spec in specs:
                v = eval_norm(spec, x)
                assert lo - 1e-9 * hi <= v <= hi * (1 + 1e-9)

    def test_orlicz_power_matches_lp(self):
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 3.0):
            spec_o = orlicz(5, lambda z, _p=p: z**_p)
            spec_p = lp(5, p)
            for _ in range(1000):
                x = rng.exponential(1.0, 5) * rng.choice([0.01, 1.0, 100.0])
                assert eval_norm(spec_o, x) == pytest.approx(eval_norm(spec_p, x), rel=1e-8)

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(13)
        rows = rng.exponential(1.0, (50, 6))
        for spec in ALL_SPECS:
            if spec.kind == "orlicz":
                continue
            vals = eval_norm_rows(spec, rows)
            for row, v in zip(rows, vals):
                assert v == pytest.approx(eval_norm(spec, row), rel=1e-12)


class TestSubgradient:
    @pytest.mark.parametrize("spec", ALL_SPECS + [oracle_sym(6, lambda v: float(np.abs(v).sum()))],
                             ids=lambda s: s.kind)
    def test_dual_maximizer(self, spec):
        """<u, v> = ||v||, and <u, y> <= ||y|| at other points y (dual norm <= 1);
        to the difference step for orlicz and oracle norms."""
        rng = np.random.default_rng(4)
        tol = 1e-6 if spec.kind in ("orlicz", "oracle") else 1e-12
        spec = normalize_spec(spec)
        for v in (rng.exponential(1.0, 6), np.array([2.0, 0.0, 2.0, 1.0, 0.0, 0.5]), np.zeros(6)):
            u = norm_subgradient(spec, v)
            assert (u >= 0).all()
            assert u @ v == pytest.approx(eval_norm(spec, v), rel=tol, abs=1e-300)
            for y in rng.exponential(1.0, (20, 6)):
                assert u @ y <= eval_norm(spec, y) * (1 + tol)

    def test_closed_forms(self):
        v = np.array([1.0, 3.0, 2.0])
        assert norm_subgradient(linf(3), v).tolist() == [0.0, 1.0, 0.0]
        assert norm_subgradient(topk(3, 2), v).tolist() == [0.0, 1.0, 1.0]
        assert norm_subgradient(ordered([3.0, 2.0, 1.0]), v).tolist() == [1.0, 3.0, 2.0]
        np.testing.assert_allclose(norm_subgradient(lp(2, 2.0), [3.0, 4.0]), [0.6, 0.8])

    def test_negative_entries_flip_sign(self):
        u = norm_subgradient(lp(3, 3.0), [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(np.sign(u), [1.0, -1.0, 1.0])
        assert u @ [1.0, -2.0, 0.5] == pytest.approx(eval_norm(lp(3, 3.0), [1.0, -2.0, 0.5]))

    def test_orlicz_square_matches_l2(self):
        v = np.array([3.0, 4.0, 0.0])
        np.testing.assert_allclose(norm_subgradient(orlicz(3, lambda z: z * z), v),
                                   norm_subgradient(lp(3, 2.0), v), atol=1e-6)


class TestProfilesAndNormalization:
    def test_l1_profile_counts(self):
        assert ones_profile(l1(5)).c == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_linf_profile_flat(self):
        assert ones_profile(linf(5)).c == (1.0,) * 5

    def test_topk_profile_saturates(self):
        assert ones_profile(topk(5, 2)).c == (1.0, 2.0, 2.0, 2.0, 2.0)

    def test_ordered_profile_partial_sums(self):
        prof = ones_profile(ordered([4.0, 2.0, 2.0]))
        assert prof.c == pytest.approx((1.0, 1.5, 2.0))

    def test_normalize_ordered_rewrites_weights(self):
        spec = normalize_spec(ordered([4.0, 2.0]))
        assert spec.weights == (1.0, 0.5)
        e1 = np.array([1.0, 0.0])
        assert eval_norm(spec, e1) == pytest.approx(1.0)

    def test_normalize_keeps_lp_and_topk(self):
        assert normalize_spec(lp(4, 3.0)).scale == 1.0
        assert normalize_spec(topk(4, 2)).scale == 1.0

    def test_normalize_oracle_scale(self):
        spec = normalize_spec(oracle_sym(3, lambda v: 2.0 * np.abs(v).max()))
        assert eval_norm(spec, [1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_non_monotone_oracle_rejected(self):
        # larger support must not decrease the value for a monotone norm
        broken = oracle_sym(4, lambda v: max(np.abs(v).max(), 3.0 - np.count_nonzero(v)))
        with pytest.raises(OracleError):
            ones_profile(broken)

    def test_degenerate_orlicz_rejected(self):
        with pytest.raises(NormSpecError):
            eval_norm(orlicz(3, lambda z: 0.0 * z), [1.0, 2.0, 0.5])

    def test_zero_norm_rejected(self):
        with pytest.raises(NormSpecError):
            normalize_spec(oracle_sym(3, lambda v: 0.0))

    def test_non_finite_parameters_refused(self):
        with pytest.raises(NormSpecError):
            lp(3, math.nan)
        for weights in ([1.0, math.nan], [math.inf, 1.0], [1.0, math.inf]):
            with pytest.raises(NormSpecError):
                ordered(weights)
        assert lp(3, math.inf).p == math.inf

    def test_nan_oracle_rejected(self):
        spec = oracle_sym(3, lambda v: math.nan)
        with pytest.raises(OracleError):
            eval_norm(spec, [1.0, 0.0, 0.0])
        with pytest.raises(OracleError):
            normalize_spec(spec)

    def test_ordered_weight_validation(self):
        with pytest.raises(NormSpecError):
            ordered([1.0, 2.0])  # increasing
        with pytest.raises(NormSpecError):
            ordered([0.0, 0.0])  # w1 = 0


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["linf", "l1", "lp:2", "lp:inf", "topk:3", "ordered:3,2,1,0.5", "orlicz:pow:2"],
    )
    def test_roundtrip(self, text):
        spec = parse_norm_spec(text, dim=4)
        assert format_norm_spec(spec) == text

    def test_parse_values(self):
        assert parse_norm_spec("lp:2.5", dim=3).p == 2.5
        assert parse_norm_spec("topk:2", dim=3).k == 2
        assert parse_norm_spec("ordered:2,1,0").weights == (2.0, 1.0, 0.0)

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(NormParseError) as err:
            parse_norm_spec("lp:abc", dim=3)
        assert err.value.pos == 3
        assert "real number" in err.value.expected
        with pytest.raises(NormParseError):
            parse_norm_spec("nope", dim=3)
        with pytest.raises(NormParseError):
            parse_norm_spec("topk:x", dim=3)
        with pytest.raises(NormParseError):
            parse_norm_spec("ordered:1,2,3", dim=3)  # increasing weights

    @pytest.mark.parametrize("text", ["lp:nan", "lp:-inf", "ordered:1,nan", "ordered:1e400,1",
                                      "ordered:inf,1", "orlicz:pow:nan", "orlicz:pow:inf"])
    def test_non_finite_numbers_refused(self, text):
        with pytest.raises(NormParseError) as err:
            parse_norm_spec(text, dim=2)
        assert "finite" in err.value.expected
        assert text in str(err.value)

    def test_missing_dim(self):
        with pytest.raises(NormParseError):
            parse_norm_spec("linf")
