"""Perturbed top-k surrogate: sampling contract, identities and probes."""

import math
import sys
import threading

import numpy as np
import pytest

from gradnorm.approx import TopKConfig, gs_topk_approx
from gradnorm.approx.topk import _SCRATCH_FLOATS
from gradnorm.norms import top_k_norm

# Monte-Carlo estimate of E max(noise) in d=16 at eps=1, frozen at first build.
VALUE0_BASELINE_D16_K1 = 3.3843576592150155


class TestSamplingContract:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopKConfig(4, 0, 1.0)
        with pytest.raises(ValueError):
            TopKConfig(4, 5, 1.0)
        with pytest.raises(ValueError):
            TopKConfig(4, 2, 0.0)
        with pytest.raises(ValueError):
            TopKConfig(4, 2, 1.0, samples=0)

    def test_noise_mean_as_configured(self):
        tk = gs_topk_approx(8, 4, 0.5, samples=200_000, seed=0)
        want = 1.0 / (4 * 0.5)
        assert tk.noise.mean() == pytest.approx(want, rel=0.01)

    def test_rank_one_for_k1(self):
        tk = gs_topk_approx(8, 1, 1.0, samples=1000, seed=1)
        assert (tk.ranks == 1).all()

    def test_rank_distribution_mean(self):
        # geometric with ratio q = 1 - 1/k censored at d, P(K >= j) = q^(j-1)
        # for j <= d and P(K = d) = q^(d-1): mean close to k when k << d
        tk = gs_topk_approx(256, 8, 1.0, samples=200_000, seed=2)
        assert tk.mean_rank == pytest.approx(8.0, rel=0.02)

    def test_rank_tail_censored_at_d(self):
        """At k = d every one-rank step keeps a factor q, up to and into rank d.

        Renormalizing the geometric onto {1..d} instead of censoring it gives
        P(K >= d) / P(K >= d-1) = q / (1 + q), about 0.48 here, and
        P(K = d) about 0.037 instead of q^(d-1), about 0.380.
        """
        d = 16
        n = 200_000
        q = 1.0 - 1.0 / d
        ranks = gs_topk_approx(d, d, 1.0, samples=n, seed=7).ranks
        assert ranks.min() >= 1 and ranks.max() <= d
        tail = np.array([(ranks >= j).sum() for j in range(1, d + 1)])
        for j in range(1, d):
            ratio = tail[j] / tail[j - 1]  # P(K >= j+1) / P(K >= j)
            se = math.sqrt(q * (1.0 - q) / tail[j - 1])
            assert abs(ratio - q) < 5.0 * se, (j, ratio, q)
        p_d = q ** (d - 1)
        se = math.sqrt(p_d * (1.0 - p_d) / n)
        assert abs(tail[d - 1] / n - p_d) < 5.0 * se, (tail[d - 1] / n, p_d)

    def test_common_random_numbers(self):
        a = gs_topk_approx(8, 3, 1.0, samples=500, seed=42)
        b = gs_topk_approx(8, 3, 1.0, samples=500, seed=42)
        x = np.linspace(0, 2, 8)
        assert a.value(x) == b.value(x)
        np.testing.assert_array_equal(a.gradient(x), b.gradient(x))

    def test_seed_changes_samples(self):
        a = gs_topk_approx(8, 3, 1.0, samples=500, seed=1)
        b = gs_topk_approx(8, 3, 1.0, samples=500, seed=2)
        assert not np.array_equal(a.noise, b.noise)


class TestValue:
    def test_value_at_zero_regression(self):
        tk = gs_topk_approx(16, 1, 1.0, samples=100_000, seed=20260810)
        v0 = tk.value(np.zeros(16))
        assert v0 == pytest.approx(VALUE0_BASELINE_D16_K1, rel=1e-12)
        assert 1.0 <= v0 <= 2.0 * math.log(16)

    def test_spike_sandwich(self):
        """M <= value(M*e1) <= M + value(0), exact per sample."""
        tk = gs_topk_approx(8, 1, 1.0, samples=2000, seed=3)
        M = 1e6
        x = np.zeros(8)
        x[0] = M
        v = tk.value(x)
        assert M <= v <= M + tk.value(np.zeros(8)) + 1e-6

    def test_lower_bound_via_capped_rank(self):
        """value(x) >= mean(min(K,k))/k * top_k(x), exact on the sample set."""
        tk = gs_topk_approx(12, 4, 0.7, samples=3000, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.exponential(1.0, 12) * rng.choice([0.1, 1.0, 10.0])
            assert tk.value(x) >= tk.meta.lower_scale * top_k_norm(x, 4) - 1e-9

    def test_fraction_k_at_least_k_bound(self):
        tk = gs_topk_approx(12, 4, 0.7, samples=3000, seed=4)
        frac = float((tk.ranks >= 4).mean())
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.exponential(1.0, 12)
            assert tk.value(x) + 1e-9 >= frac * top_k_norm(x, 4)

    def test_value_monotone_convex_subadditive(self):
        """Per-sample the map is a norm of x plus a constant; means inherit it."""
        tk = gs_topk_approx(10, 3, 1.0, samples=1000, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.exponential(1.0, 10)
            y = rng.exponential(1.0, 10)
            vx, vy, vxy = tk.value(x), tk.value(y), tk.value(x + y)
            assert vxy >= vx - 1e-9
            assert tk.value(0.5 * (x + y)) <= 0.5 * (vx + vy) + 1e-9
            assert vxy <= vx + vy + 1e-9

    def test_value_stats_se(self):
        tk = gs_topk_approx(8, 2, 1.0, samples=5000, seed=9)
        mean, se = tk.value_stats(np.arange(8.0))
        assert mean == pytest.approx(tk.value(np.arange(8.0)))
        assert 0.0 < se < mean


def reference_sample_values(tk, x):
    """Per-sample top-K values by the descending sort and a cumulative sum."""
    z = np.asarray(x, dtype=float) + tk.noise
    if tk.k == 1:
        return z.max(axis=1)
    srt = np.sort(z, axis=1)[:, ::-1]
    np.cumsum(srt, axis=1, out=srt)
    return srt[np.arange(tk.cfg.samples), tk.ranks - 1]


def reference_stats(tk, x):
    vals = reference_sample_values(tk, x)
    n = vals.shape[0]
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


class TestValueKernelBitExact:
    """value and value_stats equal the sort-and-cumsum formula float for float."""

    def assert_exact(self, tk, x):
        assert tk.value(x) == float(reference_sample_values(tk, x).mean())
        assert tk.value_stats(x) == reference_stats(tk, x)

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_k_one_middle_and_d(self, k):
        tk = gs_topk_approx(16, k, 0.5, samples=3000, seed=30 + k)
        rng = np.random.default_rng(31)
        for scale in (0.0, 0.1, 1.0, 100.0):
            self.assert_exact(tk, rng.exponential(1.0, 16) * scale)

    @pytest.mark.parametrize("k", [1, 7])
    def test_chunk_boundary(self, k):
        d = 64
        tk = gs_topk_approx(d, k, 1.0, samples=_SCRATCH_FLOATS // d + 3, seed=32)
        rng = np.random.default_rng(33)
        for _ in range(3):
            self.assert_exact(tk, rng.uniform(0.0, 5.0, d))

    def test_many_chunks(self):
        tk = gs_topk_approx(16, 4, 1.0, samples=100_000, seed=34)
        self.assert_exact(tk, np.random.default_rng(35).uniform(0.0, 3.0, 16))

    def test_ties(self):
        # integer inputs with zeroed noise rows tie whole rows of the sort
        for k in (1, 3, 6):
            tk = gs_topk_approx(6, k, 1.0, samples=400, seed=36)
            tk.noise[::3] = 0.0
            for x in (np.ones(6), np.array([2.0, 0.0, 2.0, 1.0, 1.0, 2.0]), np.zeros(6)):
                self.assert_exact(tk, x)

    def test_nan_input_gives_nan(self):
        tk = gs_topk_approx(6, 3, 1.0, samples=100, seed=37)
        x = np.array([1.0, np.nan, 0.0, 2.0, 0.0, 0.0])
        assert math.isnan(tk.value(x))
        assert math.isnan(float(reference_sample_values(tk, x).mean()))

    def test_threads_share_instances(self):
        d = 32
        tks = [gs_topk_approx(d, k, 1.0, samples=5000, seed=38 + k) for k in (1, 4, 32)]
        xs = [np.random.default_rng(39 + i).uniform(0.0, 4.0, d) for i in range(6)]
        want = [[reference_stats(tk, x) for x in xs] for tk in tks]
        errors = []

        def work(offset):
            try:
                for rep in range(5):
                    for i, tk in enumerate(tks):
                        for j in range(len(xs)):
                            jj = (j + offset + rep) % len(xs)
                            if tk.value_stats(xs[jj]) != want[i][jj]:
                                errors.append((offset, i, jj))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(off,)) for off in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestGradient:
    def test_counting_identity_exact(self):
        """sum_i grad_i equals the sample average of min(K, d), exactly."""
        for k in (1, 3, 8):
            tk = gs_topk_approx(8, k, 1.0, samples=4000, seed=10 + k)
            rng = np.random.default_rng(11)
            for _ in range(20):
                x = rng.exponential(1.0, 8) * rng.choice([0, 0.1, 1.0, 100.0])
                g = tk.gradient(x)
                assert g.sum() == pytest.approx(tk.mean_rank, abs=1e-12)

    def test_exchangeable_at_zero(self):
        tk = gs_topk_approx(16, 4, 1.0, samples=100_000, seed=12)
        g = tk.gradient(np.zeros(16))
        mean = g.mean()
        se = math.sqrt(mean * (1 - mean) / 100_000)
        assert np.abs(g - mean).max() <= 3.5 * se

    def test_two_dim_closed_form_bound(self):
        """d=2, k=1: the losing coordinate's mass is P(nu2 > gap + nu1)."""
        eps = 0.5
        S = 200_000
        tk = gs_topk_approx(2, 1, eps, samples=S, seed=3)
        g = tk.gradient(np.array([10.0, 0.0]))
        exact = math.exp(-eps * 10.0) / 2.0  # iid exponentials, memoryless race
        se = math.sqrt(exact * (1 - exact) / S)
        assert g[1] <= exact + 3 * se
        assert g[0] >= 1.0 - exact - 3 * se

    def test_entries_are_probabilities(self):
        tk = gs_topk_approx(12, 5, 0.3, samples=2000, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(50):
            g = tk.gradient(rng.exponential(1.0, 12))
            assert (g >= 0.0).all() and (g <= 1.0).all()

    def test_pair_stats_match_gradients(self):
        tk = gs_topk_approx(10, 3, 1.0, samples=3000, seed=15)
        rng = np.random.default_rng(16)
        x = rng.exponential(1.0, 10)
        y = rng.exponential(0.3, 10)
        mean, se = tk.pair_margin_stats(x, y, 1.0, 0.5)
        np.testing.assert_allclose(mean, tk.gradient(x + y) - 0.5 * tk.gradient(x), atol=1e-12)
        assert (se >= 0.0).all()

    def test_tie_handling_keeps_exact_count(self):
        # constant vector with zeroed noise rows is the worst tie case; the
        # membership kernel must still select exactly K coordinates per sample
        tk = gs_topk_approx(6, 3, 1.0, samples=50, seed=17)
        tk.noise[:10] = 0.0
        tk._noise32 = None  # drop the cached float32 copy
        g = tk.gradient(np.ones(6))
        assert g.sum() == pytest.approx(tk.mean_rank, abs=1e-12)
