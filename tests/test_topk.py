"""Perturbed top-k surrogate: sampling contract, identities and probes."""

import math
import sys
import threading

import numpy as np
import pytest

from gradnorm.approx import TopKApprox
from gradnorm.approx.topk import _SCRATCH_FLOATS, _merge_network, _network_plan
from gradnorm.norms import eval_norm, topk

# Monte-Carlo estimate of E max(noise) in d=16 at eps=1, frozen at first build.
VALUE0_BASELINE_D16_K1 = 3.3843576592150155


class TestSamplingContract:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopKApprox(4, 0, 1.0)
        with pytest.raises(ValueError):
            TopKApprox(4, 5, 1.0)
        with pytest.raises(ValueError):
            TopKApprox(4, 2, 0.0)
        with pytest.raises(ValueError):
            TopKApprox(4, 2, 1.0, samples=0)

    def test_noise_mean_as_configured(self):
        tk = TopKApprox(8, 4, 0.5, samples=200_000, seed=0)
        want = 1.0 / (4 * 0.5)
        assert tk.noise.mean() == pytest.approx(want, rel=0.01)

    def test_rank_one_for_k1(self):
        tk = TopKApprox(8, 1, 1.0, samples=1000, seed=1)
        assert (tk.ranks == 1).all()

    def test_rank_distribution_mean(self):
        # geometric with ratio q = 1 - 1/k censored at d, P(K >= j) = q^(j-1)
        # for j <= d and P(K = d) = q^(d-1): mean close to k when k << d
        tk = TopKApprox(256, 8, 1.0, samples=200_000, seed=2)
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
        ranks = TopKApprox(d, d, 1.0, samples=n, seed=7).ranks
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
        a = TopKApprox(8, 3, 1.0, samples=500, seed=42)
        b = TopKApprox(8, 3, 1.0, samples=500, seed=42)
        x = np.linspace(0, 2, 8)
        assert a.value(x) == b.value(x)
        np.testing.assert_array_equal(a.gradient(x), b.gradient(x))

    def test_seed_changes_samples(self):
        a = TopKApprox(8, 3, 1.0, samples=500, seed=1)
        b = TopKApprox(8, 3, 1.0, samples=500, seed=2)
        assert not np.array_equal(a.noise, b.noise)


class TestValue:
    def test_value_at_zero_regression(self):
        tk = TopKApprox(16, 1, 1.0, samples=100_000, seed=20260810)
        v0 = tk.value(np.zeros(16))
        assert v0 == pytest.approx(VALUE0_BASELINE_D16_K1, rel=1e-12)
        assert 1.0 <= v0 <= 2.0 * math.log(16)

    def test_spike_sandwich(self):
        """M <= value(M*e1) <= M + value(0), exact per sample."""
        tk = TopKApprox(8, 1, 1.0, samples=2000, seed=3)
        M = 1e6
        x = np.zeros(8)
        x[0] = M
        v = tk.value(x)
        assert M <= v <= M + tk.value(np.zeros(8)) + 1e-6

    def test_lower_bound_via_capped_rank(self):
        """value(x) >= mean(min(K,k))/k * top_k(x), exact on the sample set."""
        tk = TopKApprox(12, 4, 0.7, samples=3000, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.exponential(1.0, 12) * rng.choice([0.1, 1.0, 10.0])
            assert tk.value(x) >= tk.meta.lower_scale * eval_norm(topk(12, 4), x) - 1e-9

    def test_fraction_k_at_least_k_bound(self):
        tk = TopKApprox(12, 4, 0.7, samples=3000, seed=4)
        frac = float((tk.ranks >= 4).mean())
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.exponential(1.0, 12)
            assert tk.value(x) + 1e-9 >= frac * eval_norm(topk(12, 4), x)

    def test_value_monotone_convex_subadditive(self):
        """Per-sample the map is a norm of x plus a constant; means inherit it."""
        tk = TopKApprox(10, 3, 1.0, samples=1000, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.exponential(1.0, 10)
            y = rng.exponential(1.0, 10)
            vx, vy, vxy = tk.value(x), tk.value(y), tk.value(x + y)
            assert vxy >= vx - 1e-9
            assert tk.value(0.5 * (x + y)) <= 0.5 * (vx + vy) + 1e-9
            assert vxy <= vx + vy + 1e-9

    def test_value_stats_se(self):
        tk = TopKApprox(8, 2, 1.0, samples=5000, seed=9)
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
    return srt[np.arange(tk.samples), tk.ranks - 1]


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
        tk = TopKApprox(16, k, 0.5, samples=3000, seed=30 + k)
        rng = np.random.default_rng(31)
        for scale in (0.0, 0.1, 1.0, 100.0):
            self.assert_exact(tk, rng.exponential(1.0, 16) * scale)

    @pytest.mark.parametrize("k", [1, 7])
    def test_chunk_boundary(self, k):
        d = 64
        tk = TopKApprox(d, k, 1.0, samples=_SCRATCH_FLOATS // d + 3, seed=32)
        rng = np.random.default_rng(33)
        for _ in range(3):
            self.assert_exact(tk, rng.uniform(0.0, 5.0, d))

    def test_many_chunks(self):
        tk = TopKApprox(16, 4, 1.0, samples=100_000, seed=34)
        self.assert_exact(tk, np.random.default_rng(35).uniform(0.0, 3.0, 16))

    def test_ties(self):
        # integer inputs with zeroed noise rows tie whole rows of the sort
        for k in (1, 3, 6):
            tk = TopKApprox(6, k, 1.0, samples=400, seed=36)
            tk.noise[::3] = 0.0
            for x in (np.ones(6), np.array([2.0, 0.0, 2.0, 1.0, 1.0, 2.0]), np.zeros(6)):
                self.assert_exact(tk, x)

    def test_nan_input_gives_nan(self):
        tk = TopKApprox(6, 3, 1.0, samples=100, seed=37)
        x = np.array([1.0, np.nan, 0.0, 2.0, 0.0, 0.0])
        assert math.isnan(tk.value(x))
        assert math.isnan(float(reference_sample_values(tk, x).mean()))

    def test_threads_share_instances(self):
        d = 32
        tks = [TopKApprox(d, k, 1.0, samples=5000, seed=38 + k) for k in (1, 4, 32)]
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


def reference_membership(tk, z):
    """(S, d) top-K mask by a row sort, the K-th largest as threshold and a
    lowest-index tie rule; z = x + noise in float32, samples in noise order."""
    S, d = z.shape
    rows = np.arange(S)
    if tk.k == 1:
        mem = np.zeros(z.shape, dtype=bool)
        mem[rows, z.argmax(axis=1)] = True
        return mem
    thr = np.sort(z, axis=1)[rows, d - tk.ranks][:, None]
    gt = z > thr
    eq = z == thr
    need = tk.ranks - gt.sum(axis=1)
    return gt | (eq & (np.cumsum(eq, axis=1) <= need[:, None]))


def reference_gradient(tk, x):
    z = np.asarray(x, dtype=np.float32) + tk.noise.astype(np.float32)
    return reference_membership(tk, z).sum(axis=0, dtype=np.int64) / tk.samples


def reference_pair(tk, x, y, w1, w0):
    z0 = np.asarray(x, dtype=np.float32) + tk.noise.astype(np.float32)
    z1 = z0 + np.asarray(y, dtype=np.float32)
    mem0 = reference_membership(tk, z0)
    mem1 = reference_membership(tk, z1)
    n = tk.samples
    m0 = mem0.sum(axis=0, dtype=np.int64) / n
    m1 = mem1.sum(axis=0, dtype=np.int64) / n
    m10 = (mem0 & mem1).sum(axis=0, dtype=np.int64) / n
    mean = w1 * m1 - w0 * m0
    second = w1 * w1 * m1 + w0 * w0 * m0 - 2.0 * w1 * w0 * m10
    var = np.maximum(second - mean * mean, 0.0)
    return mean, np.sqrt(var / n)


class TestMembershipKernelBitExact:
    """gradient and pair_margin_stats equal the row-sort formula float for float,
    at d up to 64, where the network has 543 comparators."""

    def assert_exact(self, tk, x, y, w1=1.0, w0=0.6):
        assert np.array_equal(tk.gradient(x), reference_gradient(tk, x), equal_nan=True)
        got = tk.pair_margin_stats(x, y, w1, w0)
        want = reference_pair(tk, x, y, w1, w0)
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))

    @pytest.mark.parametrize("d", [8, 16, 17, 64])
    def test_k_one_middle_and_d(self, d):
        rng = np.random.default_rng(50 + d)
        for k in (1, d // 2 - 1, d):
            tk = TopKApprox(d, k, 0.5, samples=3000, seed=51 + k)
            for scale in (0.0, 0.1, 1.0, 100.0):
                x = rng.exponential(1.0, d) * scale
                self.assert_exact(tk, x, rng.exponential(0.3, d))

    def test_many_samples(self):
        tk = TopKApprox(16, 4, 1.0, samples=100_000, seed=52)
        rng = np.random.default_rng(53)
        self.assert_exact(tk, rng.uniform(0.0, 3.0, 16), rng.exponential(0.2, 16))

    @pytest.mark.parametrize("d", [6, 16, 17])
    def test_ties(self, d):
        # integer inputs with zeroed noise rows tie whole rows at the threshold
        rng = np.random.default_rng(54)
        for k in (1, 3, d):
            tk = TopKApprox(d, k, 1.0, samples=400, seed=55 + k)
            tk.noise[::3] = 0.0
            tk._noise32 = None  # drop the cached float32 copy
            for x in (np.ones(d), np.zeros(d), rng.integers(0, 3, d).astype(float)):
                self.assert_exact(tk, x, rng.integers(0, 2, d).astype(float))

    @pytest.mark.parametrize("d", [8, 17])
    def test_infinity_is_ordered_and_nan_raises(self, d):
        """An infinity in x or y goes through the network like any value; a
        NaN, given or made by inf - inf, raises instead of spreading."""
        tk = TopKApprox(d, 3, 1.0, samples=500, seed=56)
        tk1 = TopKApprox(d, 1, 1.0, samples=500, seed=58)
        rng = np.random.default_rng(57)
        x = rng.exponential(1.0, d)
        y = rng.exponential(1.0, d)
        y[1], x[4] = np.inf, -np.inf
        for t in (tk, tk1):
            self.assert_exact(t, x, y)
            self.assert_exact(t, np.full(d, np.inf), np.zeros(d))
            self.assert_exact(t, np.where(np.arange(d) % 3 == 0, -np.inf, 1.0),
                              np.where(np.arange(d) % 3 == 1, np.inf, 0.0))
            self.assert_exact(t, rng.exponential(1.0, d), np.where(np.arange(d) == 5, -np.inf, 0.5))
        nan_x = np.where(np.arange(d) == 2, np.nan, 1.0)
        for t in (tk, tk1):
            with pytest.raises(ValueError):
                t.gradient(nan_x)
            with pytest.raises(ValueError):
                t.pair_margin_stats(nan_x, np.zeros(d), 1.0, 0.6)
            with pytest.raises(ValueError):  # finite x, NaN in y
                t.pair_margin_stats(np.ones(d), np.where(np.arange(d) == 2, np.nan, 0.5), 1.0, 0.6)
            with np.errstate(invalid="ignore"):  # inf - inf
                with pytest.raises(ValueError):
                    t.pair_margin_stats(np.full(d, np.inf), np.full(d, -np.inf), 1.0, 0.6)
                with pytest.raises(ValueError):  # in one coordinate
                    t.pair_margin_stats(x, np.where(np.arange(d) == 4, np.inf, 0.0), 1.0, 0.6)

    def test_threads_share_one_instance(self):
        d = 16
        tk = TopKApprox(d, 4, 1.0, samples=5000, seed=59)
        xs = [np.random.default_rng(60 + i).uniform(0.0, 4.0, d) for i in range(6)]
        ys = [np.random.default_rng(70 + i).exponential(0.3, d) for i in range(6)]
        want = [(reference_gradient(tk, x), reference_pair(tk, x, y, 1.0, 0.5))
                for x, y in zip(xs, ys)]
        errors = []

        def work(offset):
            try:
                for rep in range(5):
                    for j in range(len(xs)):
                        jj = (j + offset + rep) % len(xs)
                        g = tk.gradient(xs[jj])
                        mean, se = tk.pair_margin_stats(xs[jj], ys[jj], 1.0, 0.5)
                        wg, (wm, ws) = want[jj]
                        if not ((g == wg).all() and (mean == wm).all() and (se == ws).all()):
                            errors.append((offset, jj))
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


    def test_float32_noise_is_published_whole(self):
        """Threads that find the float32 noise copy built never read a part of it."""
        d = 16
        tk = TopKApprox(d, 4, 1.0, samples=20_000, seed=62)
        x = np.random.default_rng(63).uniform(0.0, 4.0, d)
        want = reference_gradient(tk, x)
        errors = []
        stop = threading.Event()

        def work():
            try:
                while not stop.is_set():
                    if not (tk.gradient(x) == want).all():
                        errors.append("gradient")
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for _ in range(200):
                tk._noise32 = None  # force a rebuild while the others compute
                tk.gradient(x)
        finally:
            stop.set()
            for th in threads:
                th.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestMergeNetwork:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_sorts_every_zero_one_input(self, d):
        """A comparator network sorts all inputs iff it sorts all 0/1 inputs."""
        bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
        cols = [bits[:, i].copy() for i in range(d)]
        for a, b in _merge_network(d):
            cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
        assert (np.diff(np.stack(cols, axis=1), axis=1) >= 0).all()

    @pytest.mark.parametrize("d", [17, 24, 33, 64])
    def test_sorts_distinct_values_above_sixteen(self, d):
        z = np.random.default_rng(64 + d).permutation(d * 300).reshape(d, 300)
        cols = list(z)
        for a, b in _merge_network(d):
            cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
        assert (np.stack(cols) == np.sort(z, axis=0)).all()

    def test_comparator_count(self):
        assert len(_merge_network(16)) == 63
        assert len(_merge_network(8)) == 19

    @pytest.mark.parametrize("outputs", [[15], [0], [3, 12, 15], list(range(16))])
    def test_pruned_plan_leaves_wanted_order_statistics(self, outputs):
        d = 16
        z = np.random.default_rng(61).permutation(d * 500).reshape(d, 500).astype(float)
        steps, wire, pool = _network_plan(d, outputs)
        rows = [*z.copy(), *np.empty((pool, 500))]
        for a, b, lo, hi in steps:
            if lo >= 0:
                np.minimum(rows[a], rows[b], out=rows[lo])
            if hi >= 0:
                np.maximum(rows[a], rows[b], out=rows[hi])
        srt = np.sort(z, axis=0)
        for w in outputs:
            assert (rows[wire[w]] == srt[w]).all()
        assert (np.stack(rows[:d]) == z).all()  # the inputs are only read
        if outputs == [15]:  # the maximum alone is d - 1 max operations
            assert len(steps) == d - 1 and all(lo == -1 for _, _, lo, _ in steps)


class TestGradient:
    def test_counting_identity_exact(self):
        """sum_i grad_i equals the sample average of min(K, d), exactly."""
        for k in (1, 3, 8):
            tk = TopKApprox(8, k, 1.0, samples=4000, seed=10 + k)
            rng = np.random.default_rng(11)
            for _ in range(20):
                x = rng.exponential(1.0, 8) * rng.choice([0, 0.1, 1.0, 100.0])
                g = tk.gradient(x)
                assert g.sum() == pytest.approx(tk.mean_rank, abs=1e-12)

    def test_exchangeable_at_zero(self):
        tk = TopKApprox(16, 4, 1.0, samples=100_000, seed=12)
        g = tk.gradient(np.zeros(16))
        mean = g.mean()
        se = math.sqrt(mean * (1 - mean) / 100_000)
        assert np.abs(g - mean).max() <= 3.5 * se

    def test_two_dim_closed_form_bound(self):
        """d=2, k=1: the losing coordinate's mass is P(nu2 > gap + nu1)."""
        eps = 0.5
        S = 200_000
        tk = TopKApprox(2, 1, eps, samples=S, seed=3)
        g = tk.gradient(np.array([10.0, 0.0]))
        exact = math.exp(-eps * 10.0) / 2.0  # iid exponentials, memoryless race
        se = math.sqrt(exact * (1 - exact) / S)
        assert g[1] <= exact + 3 * se
        assert g[0] >= 1.0 - exact - 3 * se

    def test_entries_are_probabilities(self):
        tk = TopKApprox(12, 5, 0.3, samples=2000, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(50):
            g = tk.gradient(rng.exponential(1.0, 12))
            assert (g >= 0.0).all() and (g <= 1.0).all()

    def test_pair_stats_match_gradients(self):
        tk = TopKApprox(10, 3, 1.0, samples=3000, seed=15)
        rng = np.random.default_rng(16)
        x = rng.exponential(1.0, 10)
        y = rng.exponential(0.3, 10)
        mean, se = tk.pair_margin_stats(x, y, 1.0, 0.5)
        np.testing.assert_allclose(mean, tk.gradient(x + y) - 0.5 * tk.gradient(x), atol=1e-12)
        assert (se >= 0.0).all()

    def test_tie_handling_keeps_exact_count(self):
        # constant vector with zeroed noise rows is the worst tie case; the
        # membership kernel must still select exactly K coordinates per sample
        tk = TopKApprox(6, 3, 1.0, samples=50, seed=17)
        tk.noise[:10] = 0.0
        tk._noise32 = None  # drop the cached float32 copy
        g = tk.gradient(np.ones(6))
        assert g.sum() == pytest.approx(tk.mean_rank, abs=1e-12)
