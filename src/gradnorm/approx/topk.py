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
runs are reproducible.

Gradients and the paired margins of the stability check count, per
coordinate, the samples whose top K_s contains it, in a float32 kernel;
counts stay exact (exactly K_s coordinates per sample, ties broken by value
then lowest index).  A coordinate is a member when z >= the K_s-th largest
entry of z = x + nu_s.  The kernel is coordinate-major: z is a (d, S) array
with one length-S row per coordinate, its samples stored in rank order, and
the thresholds come from a sorting network over those rows, Batcher's
odd-even merge sort pruned to d wires (63 comparators at d = 16) and to the
sorted rows some rank needs.  A comparator is one np.minimum and one
np.maximum over whole rows into a pool of scratch rows, and the network
moves row indices, not data.  Each rank's threshold is then one slice of
sorted row d - K, members are one >= over the whole array, and counts are
one np.count_nonzero per row.  ``gradient`` and ``pair_margin_stats`` order
an infinity like any other value, but a NaN in x or y, or one made by adding
+inf to -inf, raises ValueError, since the network would spread it to every
row it meets; only non-finite input pays for that test.  Against a row sort
of the (S, d) layout, on one core of a 2-vCPU Xeon VM: the paired kernel at
S = 100k takes 10-12 ms a call against 34-43 ms at d = 16, and about 94
against 82-94 ms at d = 64; a gradient at S = 2000, d = 64 takes about three
times as long (1.5 against 0.5 ms), since each of the network's row steps
(up to 543 at d = 64) is a separate numpy call.

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

import functools
import threading
from typing import NamedTuple

import numpy as np

from ..norms import NormSpec, topk
from .base import ApproxMeta, GradStableApprox

__all__ = ["TopKApprox"]

_SCRATCH_FLOATS = 1 << 17  # float64 value-kernel scratch per thread: 1 MiB
_value_scratch = threading.local()


def _scratch(n: int) -> np.ndarray:
    """This thread's value-kernel buffer, at least ``n`` floats long."""
    buf = getattr(_value_scratch, "buf", None)
    if buf is None or buf.shape[0] < n:
        buf = _value_scratch.buf = np.empty(max(n, _SCRATCH_FLOATS))
    return buf


def _sample_ranks(rng: np.random.Generator, k: int, d: int, samples: int) -> np.ndarray:
    """Geometric with ratio q = 1 - 1/k censored at d, by inverse CDF.

    P(K >= j) = q^(j-1) for j <= d, so P(K = d) = q^(d-1): the mass beyond d
    lands on d instead of being spread over {1..d}.
    """
    if k == 1:
        return np.ones(samples, dtype=np.int64)
    q = 1.0 - 1.0 / k
    u = rng.random(samples)
    ks = np.ceil(np.log1p(-u) / np.log(q)).astype(np.int64)
    return np.clip(ks, 1, d)


def _refuse_nan(z: np.ndarray) -> None:
    if np.isnan(z).any():
        raise ValueError("top-k membership needs x and y without NaN (or +inf added to -inf)")


@functools.lru_cache(maxsize=None)
def _merge_network(d: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on d wires, as (low, high) comparators.

    Built for the next power of two and pruned to d: the wires from d up
    would hold +inf, so every comparator touching one of them is a no-op.
    """
    n = 1 << (d - 1).bit_length()
    net = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    lo, hi = i + j, i + j + k
                    if lo // (2 * p) == hi // (2 * p) and hi < d:
                        net.append((lo, hi))
            k //= 2
        p *= 2
    return tuple(net)


def _network_plan(d: int, outputs) -> tuple[list[tuple[int, int, int, int]], list[int], int]:
    """Row steps of the merge network that leave the sorted wires ``outputs``.

    Rows 0..d-1 are the inputs, which are only read; rows from d up are a
    pool of scratch rows.  A step (a, b, lo, hi) writes min(row a, row b) to
    row lo and the max to row hi; either is -1 when no wanted output depends
    on it, and comparators with neither are dropped.  Returns the steps, the
    row holding each sorted wire, and the pool size.
    """
    need = set(outputs)
    kept = []
    for a, b in reversed(_merge_network(d)):
        lo, hi = a in need, b in need
        if lo or hi:
            kept.append((a, b, lo, hi))
            need.update((a, b))
    wire = list(range(d))
    free: list[int] = []
    pool = 0

    def fresh() -> int:
        nonlocal pool
        if free:
            return free.pop()
        pool += 1
        return d + pool - 1

    steps = []
    for a, b, lo, hi in reversed(kept):
        ins = [w for w in (wire[b], wire[a]) if w >= d]  # pool rows free after this step
        if lo and hi:  # the min must not overwrite an input the max still reads
            out_lo, out_hi = fresh(), ins.pop() if ins else fresh()
        elif lo:
            out_lo, out_hi = ins.pop() if ins else fresh(), -1
        else:
            out_lo, out_hi = -1, ins.pop() if ins else fresh()
        free.extend(ins)
        steps.append((wire[a], wire[b], out_lo, out_hi))
        if lo:
            wire[a] = out_lo
        if hi:
            wire[b] = out_hi
    return steps, wire, pool


class _MembershipPlan(NamedTuple):
    order: np.ndarray  # stable argsort of the ranks: the kernel's sample order
    ranks: np.ndarray  # the ranks in that order, ascending
    steps: list[tuple[int, int, int, int]]  # network row steps, see _network_plan
    pool_rows: int
    thr_slices: list[tuple[int, int, int]]  # samples lo:hi take their threshold from row


class TopKApprox(GradStableApprox):
    def __init__(self, dim: int, k: int, epsilon: float, samples: int = 2000, seed: int = 0):
        if not 1 <= k <= dim:
            raise ValueError(f"need 1 <= k <= dim, got k={k} dim={dim}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.dim = dim
        self.k = k
        self.epsilon = epsilon
        self.samples = samples
        self.seed = seed
        rng = np.random.default_rng(seed)
        # draw order is fixed: ranks first, then noise
        self.ranks = _sample_ranks(rng, k, dim, samples)
        self.noise = rng.exponential(scale=1.0 / (k * epsilon), size=(samples, dim))
        self._noise32 = None
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
        x32 = np.asarray(x, dtype=np.float32)
        z = self._perturbed(x32)
        if not np.isfinite(x32).all():
            _refuse_nan(z)
        _, counts = self._membership(z, 0)
        return counts / self.samples

    def pair_margin_stats(self, x, y, w1: float, w0: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of w1 * 1[in top at x+y] - w0 * 1[in top at x].

        Both memberships are evaluated on the shared frozen noise, so this is
        the paired Monte-Carlo estimate of the gradient-decay margin used by
        the stability check.
        """
        x32 = np.asarray(x, dtype=np.float32)
        y32 = np.asarray(y, dtype=np.float32)
        z = self._perturbed(x32)
        mem0, c0 = self._membership(z, 0)
        np.add(z, y32[:, None], out=z)  # (x + noise) + y
        if not (np.isfinite(x32).all() and np.isfinite(y32).all()):
            _refuse_nan(z)  # a NaN of x + noise stays NaN in (x + noise) + y
        mem1, c1 = self._membership(z, 1)
        np.logical_and(mem0, mem1, out=mem0)
        n = self.samples
        m0 = c0 / n
        m1 = c1 / n
        m10 = self._counts(mem0) / n
        mean = w1 * m1 - w0 * m0
        second = w1 * w1 * m1 + w0 * w0 * m0 - 2.0 * w1 * w0 * m10
        var = np.maximum(second - mean * mean, 0.0)
        return mean, np.sqrt(var / n)

    def norm_spec(self) -> NormSpec:
        return topk(self.dim, self.k)

    @property
    def cfg(self) -> TopKApprox:
        """The instance itself, for readers of ``cfg.dim``, ``cfg.k`` and ``cfg.samples``."""
        return self

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

    @functools.cached_property
    def _plan(self) -> _MembershipPlan:
        """Samples in rank order, so each rank's thresholds are one slice, and
        the network steps that leave the sorted rows those ranks need.  Built
        on first use: instances that only take values never need it."""
        d = self.dim
        order = np.argsort(self.ranks, kind="stable")
        ranks = self.ranks[order]
        edges = np.searchsorted(ranks, np.arange(1, d + 2))
        present = [r for r in range(1, d + 1) if edges[r] > edges[r - 1]]
        steps, wire, pool_rows = _network_plan(d, [d - r for r in present])
        thr_slices = [(int(edges[r - 1]), int(edges[r]), wire[d - r]) for r in present]
        return _MembershipPlan(order, ranks, steps, pool_rows, thr_slices)

    def _noise_f32(self) -> np.ndarray:
        """float32 (d, S) noise in rank order, built on first use from ``noise``."""
        if self._noise32 is None:
            noise32 = np.empty((self.dim, self.samples), dtype=np.float32)
            for i, row in enumerate(noise32):  # row by row: no (d, S) float64 temporary
                row[:] = self.noise[self._plan.order, i]
            self._noise32 = noise32  # published whole: other threads may be reading
        return self._noise32

    def _perturbed(self, x32: np.ndarray) -> np.ndarray:
        """This thread's z buffer, filled with x + noise in float32."""
        z = self._buffers().z
        np.add(self._noise_f32(), x32[:, None], out=z)
        return z

    def _buffers(self):
        """Thread-local kernel buffers; instances stay safe to share."""
        tls = self._scratch
        if getattr(tls, "z", None) is None:
            S, d = self.samples, self.dim
            tls.z = np.empty((d, S), dtype=np.float32)
            tls.mask = [np.empty((d, S), dtype=bool), np.empty((d, S), dtype=bool)]
            tls.rows = [*tls.z, *np.empty((self._plan.pool_rows, S), dtype=np.float32)]
            tls.thr = np.empty(S, dtype=np.float32)
        return tls

    def _membership(self, z: np.ndarray, slot: int):
        """(d, S) mask of the coordinates among the K_s largest of each sample
        of this thread's z, and the member count of each coordinate."""
        mem = self._scratch.mask[slot]
        thr = self._network_thresholds()
        np.greater_equal(z, thr, out=mem)
        counts = self._counts(mem)
        if counts.sum() != self._ranks_total:  # exact iff no sample ties at its threshold
            zs, ms = z.T, mem.T  # sample-major views
            ranks = self._plan.ranks
            bad = np.nonzero(ms.sum(axis=1) != ranks)[0]
            # ties at the threshold: keep the lowest-index tied coordinates
            zb = zs[bad]
            thrb = thr[bad, None]
            gt = zb > thrb
            eq = zb == thrb
            need = ranks[bad] - gt.sum(axis=1)
            keep = eq & (np.cumsum(eq, axis=1) <= need[:, None])
            ms[bad] = gt | keep
            counts = self._counts(mem)
        return mem, counts

    def _network_thresholds(self) -> np.ndarray:
        """Each sample's K_s-th largest entry of this thread's z, by the network."""
        tls = self._scratch
        rows = tls.rows
        plan = self._plan
        for a, b, lo, hi in plan.steps:
            if lo >= 0:
                np.minimum(rows[a], rows[b], out=rows[lo])
            if hi >= 0:
                np.maximum(rows[a], rows[b], out=rows[hi])
        thr = tls.thr
        for lo, hi, row in plan.thr_slices:
            thr[lo:hi] = rows[row][lo:hi]
        return thr

    def _counts(self, mem: np.ndarray) -> np.ndarray:
        """Member count of each coordinate: one fast count per contiguous row."""
        return np.array([np.count_nonzero(row) for row in mem])

    def __repr__(self):
        return (
            f"TopKApprox(dim={self.dim}, k={self.k}, epsilon={self.epsilon:g}, "
            f"samples={self.samples}, seed={self.seed})"
        )

