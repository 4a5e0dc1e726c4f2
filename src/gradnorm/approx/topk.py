"""Randomly perturbed top-k surrogate.

value(x) = (1/S) * sum_s  top-K_s(x + nu_s)

where each noise coordinate is Exponential with mean 1/(k*epsilon) and the
rank K_s is geometric with ratio q = 1 - 1/k, censored at d: P(K >= j) =
q^(j-1) for every j <= d, so P(K = d) = q^(d-1) and E[K] is about k when
k << d.  Randomizing the rank is what keeps the gradient stable: a partial
derivative of a top-K norm is the probability that the coordinate lands among
the K largest, and moving a coordinate down one rank multiplies that
probability by exactly q, down to rank d.  Censoring (not renormalizing onto
{1..d}) matters when k is near d: renormalizing makes P(K >= d) / P(K >= d-1)
= q / (1 + q), about 1/2, so a coordinate pushed to rank d loses half its
gradient.

The S sample pairs (K_s, nu_s) are drawn once at construction and reused for
every evaluation, so values of different inputs are directly comparable and
runs are reproducible.  Gradients use a float32 kernel for speed; membership
counts stay exact (exactly K_s coordinates per sample, ties broken by value
then lowest index).

The value kernel computes every sample's top-K_s sum in float64, adding the
K_s largest entries of x + nu_s one at a time, largest first: the order of a
cumulative sum over a descending sort, so each float equals that formula's.
It sorts -(x + nu_s) ascending (negation is exact) and adds one column of all
rows at a time, storing each row's sum after its K_s-th column.  Rows go in
chunks of 2**17 // d through one 1 MiB scratch buffer per thread, shared by
all instances, so S = 100k samples at d = 16 need no (S, d) temporary.
``value`` is the mean of the per-sample sums, ``value_stats`` their mean and
standard error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..norms import NormSpec, topk
from .base import ApproxMeta, GradStableApprox

__all__ = ["TopKConfig", "TopKApprox", "gs_topk_approx"]

_SCRATCH_FLOATS = 1 << 17  # float64 value-kernel scratch per thread: 1 MiB
_value_scratch = threading.local()


def _scratch(n: int) -> np.ndarray:
    """This thread's value-kernel buffer, at least ``n`` floats long."""
    buf = getattr(_value_scratch, "buf", None)
    if buf is None or buf.shape[0] < n:
        buf = _value_scratch.buf = np.empty(max(n, _SCRATCH_FLOATS))
    return buf


@dataclass(frozen=True)
class TopKConfig:
    dim: int
    k: int
    epsilon: float
    samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.dim:
            raise ValueError(f"need 1 <= k <= dim, got k={self.k} dim={self.dim}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _sample_ranks(rng: np.random.Generator, cfg: TopKConfig) -> np.ndarray:
    """Geometric with ratio q = 1 - 1/k censored at d, by inverse CDF.

    P(K >= j) = q^(j-1) for j <= d, so P(K = d) = q^(d-1): the mass beyond d
    lands on d instead of being spread over {1..d}.
    """
    if cfg.k == 1:
        return np.ones(cfg.samples, dtype=np.int64)
    q = 1.0 - 1.0 / cfg.k
    u = rng.random(cfg.samples)
    ks = np.ceil(np.log1p(-u) / np.log(q)).astype(np.int64)
    return np.clip(ks, 1, cfg.dim)


class TopKApprox(GradStableApprox):
    def __init__(self, dim: int, k: int, epsilon: float, samples: int = 2000, seed: int = 0):
        cfg = TopKConfig(dim, k, epsilon, samples, seed)
        self.cfg = cfg
        self.dim = dim
        self.k = k
        self.epsilon = epsilon
        rng = np.random.default_rng(seed)
        # draw order is fixed: ranks first, then noise
        self.ranks = _sample_ranks(rng, cfg)
        self.noise = rng.exponential(scale=1.0 / (k * epsilon), size=(cfg.samples, dim))
        self._noise32 = None
        self._rows = np.arange(cfg.samples)
        self._ranks_total = int(self.ranks.sum())
        self._value_chunks = self._chunk_plan()
        self._scratch = threading.local()  # per-thread kernel buffers
        self.mean_rank = float(self.ranks.mean())
        # mean of min(K, k): value(x) >= (mean_capped_rank / k) * topk(x) pointwise
        self.mean_capped_rank = float(np.minimum(self.ranks, k).mean())
        # mean of ceil(K / k): value(x) <= that * topk(x) + value(0) pointwise
        self.mean_chunks = float(np.ceil(self.ranks / k).mean())
        self.growth_bound = self.mean_chunks
        self.meta = ApproxMeta(
            epsilon=epsilon,
            delta=0.25,
            alpha=self.mean_chunks,
            gamma=epsilon * self.value(np.zeros(dim)),
            stochastic=True,
            seed=seed,
            lower_scale=self.mean_capped_rank / k,
        )

    # --- evaluation ---------------------------------------------------------

    def value(self, x) -> float:
        return float(self._sample_values(x).mean())

    def value_stats(self, x) -> tuple[float, float]:
        """(mean, standard error) of the per-sample top-K values."""
        vals = self._sample_values(x)
        n = vals.shape[0]
        se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return float(vals.mean()), se

    def gradient(self, x) -> np.ndarray:
        z, _ = self._buffers()
        np.add(np.asarray(x, dtype=np.float32), self._noise_f32(), out=z)
        return self._membership(z, 0).sum(axis=0, dtype=np.int64) / self.cfg.samples

    def pair_margin_stats(self, x, y, w1: float, w0: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of w1 * 1[in top at x+y] - w0 * 1[in top at x].

        Both memberships are evaluated on the shared frozen noise, so this is
        the paired Monte-Carlo estimate of the gradient-decay margin used by
        the stability check.
        """
        z0, z1 = self._buffers()
        noise = self._noise_f32()
        np.add(np.asarray(x, dtype=np.float32), noise, out=z0)
        np.add(z0, np.asarray(y, dtype=np.float32), out=z1)
        mem0 = self._membership(z0, 0)
        mem1 = self._membership(z1, 1)
        n = self.cfg.samples
        m0 = mem0.sum(axis=0, dtype=np.int64) / n
        m1 = mem1.sum(axis=0, dtype=np.int64) / n
        np.logical_and(mem0, mem1, out=mem0)
        m10 = mem0.sum(axis=0, dtype=np.int64) / n
        mean = w1 * m1 - w0 * m0
        second = w1 * w1 * m1 + w0 * w0 * m0 - 2.0 * w1 * w0 * m10
        var = np.maximum(second - mean * mean, 0.0)
        return mean, np.sqrt(var / n)

    def norm_spec(self) -> NormSpec:
        return topk(self.dim, self.k)

    # --- internals ----------------------------------------------------------

    def _chunk_plan(self) -> list[tuple[int, int, list[np.ndarray]]]:
        """Row chunks (lo, hi, stores) of the value kernel.

        ``stores[j]`` lists the chunk-local rows whose rank is j + 1: their
        top-K sum is complete once column j has been added.
        """
        S, d = self.noise.shape
        rows = max(1, _SCRATCH_FLOATS // d)
        plan = []
        for lo in range(0, S, rows):
            hi = min(S, lo + rows)
            ranks = self.ranks[lo:hi]
            stores = [np.flatnonzero(ranks == j + 1) for j in range(int(ranks.max()))]
            plan.append((lo, hi, stores))
        return plan

    def _sample_values(self, x) -> np.ndarray:
        """Per-sample top-K_s sums of x + noise, each added largest first."""
        v = self._vec(x)
        S, d = self.noise.shape
        out = np.empty(S)
        if np.isnan(v).any():  # a descending sort puts NaN first in every row
            out.fill(np.nan)
            return out
        neg = np.negative(v)
        buf = _scratch(self._value_chunks[0][1] * d)  # the first chunk is the largest
        for lo, hi, stores in self._value_chunks:
            z = buf[: (hi - lo) * d].reshape(hi - lo, d)
            np.subtract(neg, self.noise[lo:hi], out=z)  # -(x + noise), exactly
            if self.k == 1:
                np.negative(z.min(axis=1), out=out[lo:hi])
                continue
            z.sort(axis=1)
            acc = np.negative(z[:, 0])
            chunk_out = out[lo:hi]
            for j, rows in enumerate(stores):
                if j:
                    acc -= z[:, j]
                if rows.size:
                    chunk_out[rows] = acc[rows]
        return out

    def _noise_f32(self) -> np.ndarray:
        if self._noise32 is None:
            self._noise32 = self.noise.astype(np.float32)
        return self._noise32

    def _buffers(self):
        """Thread-local (S, d) scratch arrays; instances stay safe to share."""
        tls = self._scratch
        if getattr(tls, "z", None) is None:
            shape = (self.cfg.samples, self.dim)
            tls.z = np.empty(shape, dtype=np.float32)
            tls.z2 = np.empty(shape, dtype=np.float32)
            tls.sort = np.empty(shape, dtype=np.float32)
            tls.mask = [np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)]
        return tls.z, tls.z2

    def _membership(self, z: np.ndarray, slot: int = 0) -> np.ndarray:
        """Boolean (S, d) mask: coordinate among the K_s largest of row s."""
        S, d = z.shape
        tls = self._scratch
        mem = tls.mask[slot]
        if self.k == 1:
            mem.fill(False)
            mem[self._rows, z.argmax(axis=1)] = True
            return mem
        srt = tls.sort
        np.copyto(srt, z)
        srt.sort(axis=1)
        thr = srt[self._rows, d - self.ranks]
        np.greater_equal(z, thr[:, None], out=mem)
        if int(mem.sum()) != self._ranks_total:  # exact iff no row ties at thr
            counts = mem.sum(axis=1)
            bad = np.nonzero(counts != self.ranks)[0]
            # ties at the threshold: keep the lowest-index tied coordinates
            zb = z[bad]
            thrb = thr[bad, None]
            gt = zb > thrb
            eq = zb == thrb
            need = self.ranks[bad] - gt.sum(axis=1)
            keep = eq & (np.cumsum(eq, axis=1) <= need[:, None])
            mem[bad] = gt | keep
        return mem

    def __repr__(self):
        return (
            f"TopKApprox(dim={self.dim}, k={self.k}, epsilon={self.epsilon:g}, "
            f"samples={self.cfg.samples}, seed={self.cfg.seed})"
        )


def gs_topk_approx(
    dim: int, k: int, epsilon: float, samples: int = 2000, seed: int = 0
) -> TopKApprox:
    return TopKApprox(dim, k, epsilon, samples=samples, seed=seed)
