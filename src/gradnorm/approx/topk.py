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
entry of z = x + nu_s.  The samples are stored in rank order and counted by
rank group.  Rank-d samples (a share q^(d-1): 38% for k = d = 16) hold every
coordinate, so with finite x and y they add their number to every count
without being run.  Rank-1 samples, when there are at least 4096, get blocks
of their own, whose threshold is only the maximum.  The other ranks share
blocks.  Each group is cut into blocks of at most 12288 samples, about 2 MB
of scratch at d = 16, to fit one core's L2.  A block's z is a (d, n) array
with one length-n row per coordinate.  Its thresholds come from a sorting
network over those rows, Batcher's odd-even merge sort pruned to d wires (63
comparators at d = 16) and to the sorted rows that the ranks present in the
block need: a rank-1 block needs 15 comparators at d = 16.  A comparator is
one np.minimum and one np.maximum over whole rows into a pool of scratch
rows, and the network moves row indices, not data.  Each rank's threshold is
then one slice of sorted row d - K, members are one >= over the block, and
counts are one np.count_nonzero per row, added as integers over the blocks,
so every returned float comes from the same integers as an unblocked count.
A block's z, pool rows, thresholds and two masks are views of the scratch
(below), cached per (d, n, pool size).  ``gradient`` and
``pair_margin_stats`` order an infinity like any other value, but a NaN in x
or y, or one made by adding +inf to -inf, raises ValueError, since the
network would spread it to every row it meets; only non-finite input pays
for that test, and it runs the rank-d blocks too.  Each of the network's row
steps (up to 543 at d = 64) is a separate numpy call, so a gradient at
S = 2000 is mostly call overhead.

The value kernel computes every sample's top-K_s sum in float64, adding the
K_s largest entries of x + nu_s one at a time, largest first: the order of a
cumulative sum over a descending sort, so each float equals that formula's.
It sorts -(x + nu_s) ascending (negation is exact) and adds one column of all
rows at a time, storing each row's sum after its K_s-th column.  Rows go in
chunks of 2**17 // d through a 1 MiB float64 view of the scratch, so
S = 100k samples at d = 16 need no (S, d) temporary.  ``value`` is the mean
of the per-sample sums, ``value_stats`` their mean and standard error.

Both kernels cut their views from one grow-only byte buffer per thread,
shared by all instances; the views are cached by shape and dropped when
the buffer grows.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple

import numpy as np

from ..norms import NormSpec, topk
from .base import ApproxMeta, GradStableApprox

__all__ = ["TopKApprox"]

_SCRATCH_FLOATS = 1 << 17  # float64 value-kernel floats per row chunk: 1 MiB
_BLOCK_SAMPLES = 12288  # membership-kernel samples per block at most: 2 MB live at d = 16
_RANK1_MIN = 4096  # rank-1 samples that get blocks of their own, at least


class _Scratch(threading.local):
    """One grow-only byte buffer per thread, shared by both kernels and all
    instances, and the views cut from it, cached by shape."""

    def __init__(self):
        self.buf = np.empty(0, dtype=np.uint8)
        self.views = {}

    def view(self, key, nbytes: int, cut):
        """The view cached under ``key``, else ``cut`` of a buffer of at least
        ``nbytes``; growing the buffer drops every cached view."""
        got = self.views.get(key)
        if got is None:
            if self.buf.shape[0] < nbytes:
                self.buf = np.empty(nbytes, dtype=np.uint8)
                self.views.clear()
            got = self.views[key] = cut(self.buf)
        return got


_scratch = _Scratch()


class _BlockViews(NamedTuple):
    z: np.ndarray  # (d, n) float32: one block of x + noise
    rows: list[np.ndarray]  # z's rows, then the network's pool rows
    thr: np.ndarray  # (n,) float32: each sample's threshold
    masks: np.ndarray  # (2, d, n) bool: memberships at x and at x + y


def _block_views(d: int, n: int, pool: int) -> _BlockViews:
    """This thread's membership-kernel views for blocks of ``n`` samples."""
    floats = (d + pool + 1) * n
    nbytes = 4 * floats + 2 * d * n

    def cut(buf: np.ndarray) -> _BlockViews:
        f32 = buf[: 4 * floats].view(np.float32).reshape(d + pool + 1, n)
        masks = buf[4 * floats : nbytes].view(bool).reshape(2, d, n)
        return _BlockViews(f32[:d], list(f32[:-1]), f32[-1], masks)

    return _scratch.view((d, n, pool), nbytes, cut)


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


class _Block(NamedTuple):
    lo: int  # the block is samples lo:hi of the kernel's sample order
    hi: int
    steps: list[tuple[int, int, int, int]]  # network row steps, see _network_plan
    thr_slices: list[tuple[int, int, int]]  # block samples lo:hi take their threshold from row
    ranks_total: int  # members in the block when no sample ties at its threshold


class _MembershipPlan(NamedTuple):
    order: np.ndarray  # stable argsort of the ranks: the kernel's sample order
    ranks: np.ndarray  # the ranks in that order, ascending
    pool_rows: int  # the most pool rows any block's steps use
    blocks: list[_Block]  # rank-1 (when at least _RANK1_MIN), ranks below d, then rank d
    below: int  # blocks[:below] hold the samples of rank below d
    full: int  # samples of rank d: every coordinate is among their top d


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
        self._value_chunks = self._chunk_plan()
        # the mean of min(K, k): value(x) >= (capped / k) * topk(x) pointwise
        capped = float(np.minimum(self.ranks, k).mean())
        # the mean of ceil(K / k): value(x) <= chunks * topk(x) + value(0) and
        # value(x + y) <= value(x) + chunks * topk(y) pointwise
        chunks = float(np.ceil(self.ranks / k).mean())
        self.meta = ApproxMeta(
            epsilon=epsilon,
            delta=0.25,
            alpha=chunks,
            gamma=epsilon * self.value(np.zeros(dim)),
            stochastic=True,
            lower_scale=capped / k,
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
        check = not np.isfinite(x32).all()
        noise32 = self._noise_f32()
        plan = self._plan
        blocks, counts = self._blocks(check)
        for blk in blocks:
            v = _block_views(self.dim, blk.hi - blk.lo, plan.pool_rows)
            np.add(noise32[:, blk.lo : blk.hi], x32[:, None], out=v.z)
            if check:
                _refuse_nan(v.z)
            counts = counts + self._membership(v, blk, 0)[1]
        return counts / self.samples

    def pair_margin_stats(self, x, y, w1: float, w0: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of w1 * 1[in top at x+y] - w0 * 1[in top at x].

        Both memberships are evaluated on the shared frozen noise, so this is
        the paired Monte-Carlo estimate of the gradient-decay margin used by
        the stability check.
        """
        x32 = np.asarray(x, dtype=np.float32)
        y32 = np.asarray(y, dtype=np.float32)
        check = not (np.isfinite(x32).all() and np.isfinite(y32).all())
        noise32 = self._noise_f32()
        plan = self._plan
        blocks, c0 = self._blocks(check)
        c1 = c10 = c0  # integer member counts, summed over the blocks
        for blk in blocks:
            v = _block_views(self.dim, blk.hi - blk.lo, plan.pool_rows)
            z = v.z
            np.add(noise32[:, blk.lo : blk.hi], x32[:, None], out=z)
            mem0, counts = self._membership(v, blk, 0)
            c0 = c0 + counts
            np.add(z, y32[:, None], out=z)  # (x + noise) + y
            if check:
                _refuse_nan(z)  # a NaN of x + noise stays NaN in (x + noise) + y
            mem1, counts = self._membership(v, blk, 1)
            c1 = c1 + counts
            np.logical_and(mem0, mem1, out=mem0)
            c10 = c10 + self._counts(mem0)
        n = self.samples
        m0 = c0 / n
        m1 = c1 / n
        m10 = c10 / n
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
        n = 8 * self._value_chunks[0][1] * d  # bytes: the first chunk is the largest
        buf = _scratch.view(n, n, lambda b: b[:n].view(np.float64))
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
        """Samples in rank order, cut into rank groups and those into blocks of
        at most _BLOCK_SAMPLES, so each rank's thresholds in a block are one
        slice; each block gets the network steps that leave the sorted rows
        its ranks need.  Built on first use: instances that only take values
        never need it."""
        d, S = self.dim, self.samples
        order = np.argsort(self.ranks, kind="stable")
        ranks = self.ranks[order]
        top = int(np.searchsorted(ranks, d))  # rank-d samples are order[top:]
        ones = min(int(np.searchsorted(ranks, 2)), top)
        groups = [0, ones if ones >= _RANK1_MIN else 0, top, S]
        blocks, pool_rows = [], 0
        for a, b in zip(groups, groups[1:]):
            nb = -(-(b - a) // _BLOCK_SAMPLES)
            for i in range(nb):
                lo, hi = a + (b - a) * i // nb, a + (b - a) * (i + 1) // nb
                edges = np.searchsorted(ranks[lo:hi], np.arange(1, d + 2))
                present = [r for r in range(1, d + 1) if edges[r] > edges[r - 1]]
                steps, wire, pool = _network_plan(d, [d - r for r in present])
                pool_rows = max(pool_rows, pool)
                thr_slices = [(int(edges[r - 1]), int(edges[r]), wire[d - r]) for r in present]
                blocks.append(_Block(lo, hi, steps, thr_slices, int(ranks[lo:hi].sum())))
        below = sum(blk.lo < top for blk in blocks)
        return _MembershipPlan(order, ranks, pool_rows, blocks, below, S - top)

    def _blocks(self, check: bool) -> tuple[list[_Block], np.ndarray]:
        """The blocks to run and the member counts they add to.  With finite
        input the rank-d samples are counted at every coordinate unrun; a
        non-finite input runs them too, to order infinities and refuse NaN."""
        plan = self._plan
        if check:
            return plan.blocks, np.zeros(self.dim, dtype=np.int64)
        return plan.blocks[: plan.below], np.full(self.dim, plan.full, dtype=np.int64)

    def _noise_f32(self) -> np.ndarray:
        """float32 (d, S) noise in rank order, built on first use from ``noise``."""
        if self._noise32 is None:
            noise32 = np.empty((self.dim, self.samples), dtype=np.float32)
            for i, row in enumerate(noise32):  # row by row: no (d, S) float64 temporary
                row[:] = self.noise[self._plan.order, i]
            self._noise32 = noise32  # published whole: other threads may be reading
        return self._noise32

    def _membership(self, v: _BlockViews, blk: _Block, slot: int):
        """(d, n) mask of the coordinates among the K_s largest of each sample
        of the block in ``v.z``, and the member count of each coordinate."""
        rows = v.rows
        for a, b, lo, hi in blk.steps:
            if lo >= 0:
                np.minimum(rows[a], rows[b], out=rows[lo])
            if hi >= 0:
                np.maximum(rows[a], rows[b], out=rows[hi])
        thr = v.thr
        for lo, hi, row in blk.thr_slices:
            thr[lo:hi] = rows[row][lo:hi]
        mem = v.masks[slot]
        np.greater_equal(v.z, thr, out=mem)
        counts = self._counts(mem)
        if counts.sum() != blk.ranks_total:  # exact iff no sample ties at its threshold
            zs, ms = v.z.T, mem.T  # sample-major views
            ranks = self._plan.ranks[blk.lo : blk.hi]
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

    def _counts(self, mem: np.ndarray) -> np.ndarray:
        """Member count of each coordinate: one fast count per contiguous row."""
        return np.array([np.count_nonzero(row) for row in mem])

    def __repr__(self):
        return (
            f"TopKApprox(dim={self.dim}, k={self.k}, epsilon={self.epsilon:g}, "
            f"samples={self.samples}, seed={self.seed})"
        )

