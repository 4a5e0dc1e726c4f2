"""Monotone (mostly symmetric) norms on the non-negative orthant.

Supported families: l-infinity, l-p, top-k (sum of the k largest entries),
ordered (non-increasing weighted sum of the sorted vector), Orlicz norms
defined through a convex generator, and symmetric norms given only by a
value oracle.  All downstream code assumes specs are normalized so that
``||e_1|| = 1``, which makes ``linf <= ||.|| <= l1`` hold entry-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NormSpecError",
    "OracleError",
    "NormParseError",
    "NormSpec",
    "linf",
    "lp",
    "l1",
    "topk",
    "ordered",
    "orlicz",
    "oracle_sym",
    "eval_norm",
    "eval_norm_rows",
    "norm_subgradient",
    "ones_profile",
    "normalize_spec",
    "parse_norm_spec",
    "format_norm_spec",
]

_ORLICZ_REL_TOL = 1e-10
_ORLICZ_MAX_DOUBLINGS = 200
_DIFF_STEP = 5e-4  # relative central-difference step, about the cube root of _ORLICZ_REL_TOL


class NormSpecError(ValueError):
    """The spec does not describe a valid monotone norm."""


class OracleError(NormSpecError):
    """A value oracle violated the monotone-symmetric contract."""


class NormParseError(ValueError):
    """A norm spec string failed to parse; carries the offending position."""

    def __init__(self, text: str, pos: int, expected: str):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"invalid norm spec {text!r} at position {pos}: expected {expected}")


@dataclass(frozen=True)
class NormSpec:
    """Declarative description of a monotone norm on R_+^d.

    ``scale`` is a divisor applied to the raw variant value; ``normalize_spec``
    sets it so the norm of a standard basis vector is exactly 1.
    """

    kind: str  # "linf" | "lp" | "topk" | "ordered" | "orlicz" | "oracle"
    dim: int
    p: float | None = None
    k: int | None = None
    weights: tuple[float, ...] | None = None
    generator: Callable[[float], float] | None = None
    generator_name: str | None = None
    oracle: Callable[[np.ndarray], float] | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise NormSpecError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "lp":
            if self.p is None or not self.p >= 1.0:  # NaN compares false
                raise NormSpecError(f"lp requires p >= 1 or inf, got {self.p}")
        elif self.kind == "topk":
            if self.k is None or not (1 <= self.k <= self.dim):
                raise NormSpecError(f"topk requires 1 <= k <= dim, got k={self.k} dim={self.dim}")
        elif self.kind == "ordered":
            w = self.weights
            if w is None or len(w) != self.dim:
                raise NormSpecError("ordered requires one weight per dimension")
            if not all(math.isfinite(v) for v in w):
                raise NormSpecError("ordered weights must be finite")
            if w[0] <= 0.0:
                raise NormSpecError("ordered requires w_1 > 0")
            if any(a < b - 1e-15 * max(abs(a), 1.0) for a, b in zip(w, w[1:])) or any(
                v < 0 for v in w
            ):
                raise NormSpecError("ordered weights must be non-increasing and non-negative")
        elif self.kind == "orlicz":
            if self.generator is None:
                raise NormSpecError("orlicz requires a generator callable")
            if self.generator(0.0) != 0.0:
                raise NormSpecError("orlicz generator must satisfy f(0) = 0")
        elif self.kind == "oracle":
            if self.oracle is None:
                raise NormSpecError("oracle spec requires a value callable")
        elif self.kind != "linf":
            raise NormSpecError(f"unknown norm kind {self.kind!r}")
        if self.scale <= 0.0:
            raise NormSpecError("scale must be positive")


def linf(dim: int) -> NormSpec:
    return NormSpec("linf", dim)


def lp(dim: int, p: float) -> NormSpec:
    return NormSpec("lp", dim, p=float(p))


def l1(dim: int) -> NormSpec:
    return NormSpec("lp", dim, p=1.0)


def topk(dim: int, k: int) -> NormSpec:
    return NormSpec("topk", dim, k=int(k))


def ordered(weights: Sequence[float]) -> NormSpec:
    w = tuple(float(v) for v in weights)
    return NormSpec("ordered", len(w), weights=w)


def orlicz(dim: int, generator: Callable[[float], float], name: str | None = None) -> NormSpec:
    return NormSpec("orlicz", dim, generator=generator, generator_name=name)


def oracle_sym(dim: int, value: Callable[[np.ndarray], float]) -> NormSpec:
    return NormSpec("oracle", dim, oracle=value)


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise NormSpecError(f"dimension mismatch: expected vector of dim {dim}, got shape {v.shape}")
    return v


def _orlicz_value(f: Callable[[float], float], x: np.ndarray) -> float:
    """inf { lam > 0 : sum_i f(x_i / lam) <= 1 } by doubling bracket + bisection."""
    ax = np.abs(x)
    if not ax.any():
        return 0.0

    def excess(lam: float) -> float:
        return sum(f(v / lam) for v in ax) - 1.0

    lam = max(float(ax.sum()) / len(ax), np.finfo(float).tiny)
    if excess(lam) <= 0.0:
        hi = lam
        lo = lam
        for _ in range(_ORLICZ_MAX_DOUBLINGS):
            lo /= 2.0
            if excess(lo) > 0.0:
                break
        else:
            raise NormSpecError("degenerate orlicz generator: f vanishes on the whole bracket")
    else:
        lo = lam
        hi = lam
        for _ in range(_ORLICZ_MAX_DOUBLINGS):
            hi *= 2.0
            if excess(hi) <= 0.0:
                break
        else:
            raise NormSpecError("orlicz generator admits no finite norm value")
    while (hi - lo) > _ORLICZ_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def eval_norm(spec: NormSpec, x) -> float:
    """Exact value of the norm described by ``spec`` at ``x``."""
    v = _as_vector(x, spec.dim)
    return float(_eval_rows(spec, np.abs(v)[None, :])[0])


def eval_norm_rows(spec: NormSpec, rows) -> np.ndarray:
    """Vectorized ``eval_norm`` over the rows of a 2-D array."""
    m = np.asarray(rows, dtype=float)
    if m.ndim != 2 or m.shape[1] != spec.dim:
        raise NormSpecError(f"expected rows of dim {spec.dim}, got shape {m.shape}")
    return _eval_rows(spec, np.abs(m))


def _eval_rows(spec: NormSpec, m: np.ndarray) -> np.ndarray:
    if spec.kind == "linf":
        raw = m.max(axis=1)
    elif spec.kind == "lp":
        p = spec.p
        if math.isinf(p):
            raw = m.max(axis=1)
        elif p == 1.0:
            raw = m.sum(axis=1)
        else:
            peak = m.max(axis=1)
            safe = np.where(peak > 0.0, peak, 1.0)
            raw = safe * ((m / safe[:, None]) ** p).sum(axis=1) ** (1.0 / p)
            raw = np.where(peak > 0.0, raw, 0.0)
    elif spec.kind == "topk":
        k = spec.k
        d = spec.dim
        raw = np.partition(m, d - k, axis=1)[:, d - k :].sum(axis=1)
    elif spec.kind == "ordered":
        w = np.asarray(spec.weights)
        srt = np.sort(m, axis=1)[:, ::-1]
        raw = srt @ w
    elif spec.kind == "orlicz":
        raw = np.array([_orlicz_value(spec.generator, row) for row in m])
    else:  # oracle
        raw = np.array([float(spec.oracle(row)) for row in m])
        if (raw < 0).any():
            raise OracleError("oracle returned a negative value")
        if np.isnan(raw).any():
            raise OracleError("oracle returned NaN")
    return raw / spec.scale


def norm_subgradient(spec: NormSpec, v) -> np.ndarray:
    """A dual-norm maximizer: u with <u, v> = ||v|| and dual norm <= 1, so a
    subgradient at v, with u >= 0 where v >= 0.  Closed forms for linf, lp,
    top-k (its indicator) and ordered (the weights in sorted order); orlicz
    and oracle norms, which have none here, take a central difference.
    """
    v = _as_vector(v, spec.dim)
    a = np.abs(v)
    u = np.zeros(spec.dim)
    p = spec.p
    if spec.kind in ("orlicz", "oracle"):
        h = _DIFF_STEP * (a.max() or 1.0)
        raw, steps = replace(spec, scale=1.0), h * np.eye(spec.dim)
        u = (eval_norm_rows(raw, a + steps) - eval_norm_rows(raw, a - steps)) / (2.0 * h)
    elif spec.kind == "linf" or p == math.inf:
        u[np.argmax(a)] = 1.0
    elif p == 1.0:
        u[:] = 1.0
    elif spec.kind == "lp" and a.any():
        w = a / a.max()
        u = (w / (w**p).sum() ** (1.0 / p)) ** (p - 1.0)
    elif spec.kind == "topk":
        u[np.argpartition(a, spec.dim - spec.k)[spec.dim - spec.k :]] = 1.0
    elif spec.kind == "ordered":
        u[np.argsort(-a, kind="stable")] = spec.weights
    return np.where(v < 0, -u, u) / spec.scale


@dataclass(frozen=True)
class OnesProfile:
    """Values ``c_k = ||1^(k)|| / ||e_1||`` for k = 1..d of a symmetric norm."""

    c: tuple[float, ...] = field()

    def __post_init__(self):
        c = self.c
        if len(c) < 1 or abs(c[0] - 1.0) > 1e-9:
            raise NormSpecError("ones profile must start with c_1 = 1")
        for k in range(1, len(c)):
            if c[k] < c[k - 1] - 1e-9 * max(c[k - 1], 1.0):
                raise OracleError("ones profile is not non-decreasing: norm is not monotone")
            if c[k] / (k + 1) > c[k - 1] / k * (1.0 + 1e-9):
                raise OracleError("ones profile violates c_k/k non-increasing: norm is not symmetric convex")

    @property
    def dim(self) -> int:
        return len(self.c)


def ones_profile(spec: NormSpec) -> OnesProfile:
    """Profile of normalized ones-vector norms, the data driving top-k block builds."""
    d = spec.dim
    ones = np.tril(np.ones((d, d)))
    vals = eval_norm_rows(spec, ones)
    e1 = vals[0]
    if e1 <= 0.0:
        raise NormSpecError("||e_1|| = 0: not a norm")
    return OnesProfile(tuple(float(v / e1) for v in vals))


def normalize_spec(spec: NormSpec) -> NormSpec:
    """Rescale so that ``eval_norm(spec, e_1) = 1``; downstream modules assume this."""
    e1 = np.zeros(spec.dim)
    e1[0] = 1.0
    base = replace(spec, scale=1.0)
    v = eval_norm(base, e1)
    if v <= 0.0:
        raise NormSpecError("||e_1|| = 0: not a norm")
    if spec.kind == "ordered":
        # rewrite weights directly so the spec stays self-describing
        return replace(spec, weights=tuple(x / spec.weights[0] for x in spec.weights), scale=1.0)
    if v == 1.0:
        return base
    return replace(spec, scale=v)


# --- spec grammar -----------------------------------------------------------
#
#   linf | l1 | lp:<p> | topk:<k> | ordered:<w1>,<w2>,... | orlicz:pow:<p>


def parse_norm_spec(text: str, dim: int | None = None) -> NormSpec:
    """Parse the CLI/config norm grammar; ``dim`` is required unless implied."""
    if not isinstance(text, str):
        raise NormSpecError(f"a norm spec must be a string, got {text!r}")
    head, sep, rest = text.partition(":")
    if head == "linf":
        if sep:
            raise NormParseError(text, len("linf"), "end of spec")
        return linf(_need_dim(text, dim))
    if head == "l1":
        if sep:
            raise NormParseError(text, len("l1"), "end of spec")
        return l1(_need_dim(text, dim))
    if head == "lp":
        if not sep:
            raise NormParseError(text, len(text), "':<p>'")
        p = math.inf if rest == "inf" else _parse_float(text, rest, len(head) + 1)
        if p < 1.0:
            raise NormParseError(text, len(head) + 1, "p >= 1")
        return lp(_need_dim(text, dim), p)
    if head == "topk":
        if not sep:
            raise NormParseError(text, len(text), "':<k>'")
        k = _parse_int(text, rest, len(head) + 1)
        return topk(_need_dim(text, dim), k)
    if head == "ordered":
        if not sep or not rest:
            raise NormParseError(text, len(text), "':<w1>,<w2>,...'")
        pos = len(head) + 1
        ws = []
        for tokrest in rest.split(","):
            ws.append(_parse_float(text, tokrest, pos))
            pos += len(tokrest) + 1
        if dim is not None and dim != len(ws):
            raise NormParseError(text, len(head) + 1, f"{dim} weights (got {len(ws)})")
        try:
            return ordered(ws)
        except NormSpecError as exc:
            raise NormParseError(text, len(head) + 1, f"valid ordered weights ({exc})") from exc
    if head == "orlicz":
        sub, sep2, arg = rest.partition(":")
        if sub != "pow" or not sep2:
            raise NormParseError(text, len(head) + 1, "'pow:<p>'")
        p = _parse_float(text, arg, len(head) + 5)
        if p < 1.0:
            raise NormParseError(text, len(head) + 5, "p >= 1")
        return orlicz(_need_dim(text, dim), lambda z, _p=p: z**_p, name=f"pow:{_format_float(p)}")
    raise NormParseError(text, 0, "one of linf|l1|lp|topk|ordered|orlicz")


def format_norm_spec(spec: NormSpec) -> str:
    """Inverse of ``parse_norm_spec`` for specs expressible in the grammar."""
    if spec.kind == "linf":
        return "linf"
    if spec.kind == "lp":
        if spec.p == 1.0:
            return "l1"
        return "lp:inf" if math.isinf(spec.p) else f"lp:{_format_float(spec.p)}"
    if spec.kind == "topk":
        return f"topk:{spec.k}"
    if spec.kind == "ordered":
        return "ordered:" + ",".join(_format_float(w) for w in spec.weights)
    if spec.kind == "orlicz" and spec.generator_name:
        return f"orlicz:{spec.generator_name}"
    raise NormSpecError(f"spec of kind {spec.kind!r} has no grammar form")


def _format_float(v: float) -> str:
    """``:g`` text where it parses back to ``v``, else the round-trip ``repr``."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def _need_dim(text: str, dim: int | None) -> int:
    if dim is None:
        raise NormParseError(text, len(text), "an explicit dimension for this spec kind")
    return dim


def _parse_float(text: str, token: str, pos: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NormParseError(text, pos, f"a real number (got {token!r})") from None
    if not math.isfinite(value):
        raise NormParseError(text, pos, f"a finite real number (got {token!r})")
    return value


def _parse_int(text: str, token: str, pos: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NormParseError(text, pos, f"an integer (got {token!r})") from None
