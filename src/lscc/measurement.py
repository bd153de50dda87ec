"""Vectors, frames, phaseless measurement and optimal global-phase alignment.

All arithmetic is double precision.  Signals and measurement vectors over the
real field are float64 arrays, complex ones are complex128.  A measurement row
phi acts on a signal f as <f, phi> = sum_j f_j * conj(phi_j), so measuring is
conjugate-linear in the row and plain matrix multiplication in the real case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FieldError, UnsupportedPError

REAL = "real"
COMPLEX = "complex"

#: phase-equivalence cutoff on || |x| - |y| ||_p relative to ||x||_p (pair_ratios)
DENOM_CUTOFF = 1e-14
#: relative slack of every verified inequality: pass within (1 +/- slack) x the bound
BOUND_SLACK = 1e-9
#: collision threshold on min_xi ||x - xi*y||_p relative to ||x||_p (pair_ratios)
COLLISION_RTOL = 1e-9


def _check_field(field: str) -> str:
    if field not in (REAL, COMPLEX):
        raise FieldError(f"unknown field {field!r}")
    return field


def _check_exponent(field: str, p: float) -> None:
    """Refuse complex p != 2: the complex alignment and bound are p = 2 statements."""
    if _check_field(field) == COMPLEX and p != 2.0:
        raise UnsupportedPError(f"complex schemes require p = 2, got p = {p:g}")


def as_field_array(values, field: str) -> np.ndarray:
    """Coerce to a 1-D or 2-D array of the dtype matching `field`.

    Real-field input with a nonzero imaginary part is rejected rather than
    silently truncated.
    """
    _check_field(field)
    arr = np.asarray(values)
    if field == REAL:
        if np.iscomplexobj(arr):
            if np.any(arr.imag != 0.0):
                raise FieldError("real-field values must have zero imaginary part")
            arr = arr.real
        return np.asarray(arr, dtype=np.float64)
    return np.asarray(arr, dtype=np.complex128)


@dataclass(frozen=True)
class Frame:
    """A finite measurement family, one functional per row, read-only in the
    field's dtype; p and the frame constants A <= B are the scheme's."""

    rows: np.ndarray
    field: str = REAL

    def __post_init__(self):
        rows = read_only(as_field_array(self.rows, self.field), self.rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionError("frame rows must form a nonempty matrix")
        object.__setattr__(self, "rows", rows)


def read_only(arr: np.ndarray, source) -> np.ndarray:
    """`arr`, made from `source`, as a read-only array: a writable `arr` that
    may share memory with `source` is copied first, so no caller's array is
    frozen and no later write to it reaches the result."""
    if arr.flags.writeable and np.may_share_memory(arr, source):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def p_norm(v, p: float) -> float:
    """(sum |v_i|^p)^(1/p) for p in [1, inf), flattening v.

    np.linalg.norm's 1-D routes inlined without its dispatch, so every result
    is bit for bit np.linalg.norm(v.ravel(), ord=p); integers count as floats.
    """
    if not (1.0 <= p < math.inf):
        raise FieldError(f"p must lie in [1, inf), got {p}")
    x = np.asarray(v).ravel()
    kind = x.dtype.kind
    if kind not in "fcO":
        x = x.astype(float)
    if p == 2.0:
        if kind == "c":
            re, im = x.real, x.imag
            sq = re.dot(re) + im.dot(im)
        else:
            sq = x.dot(x)
        # math.sqrt is np.sqrt in double precision only (float32 and longdouble round apart)
        return math.sqrt(sq) if type(sq) is np.float64 else float(np.sqrt(sq))
    if p == 1.0:
        return float(np.add.reduce(abs(x)))
    powers = abs(x)
    powers **= p
    return float(np.add.reduce(powers) ** (1.0 / p))


def p_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """p_norm of every row of a float64 or complex128 (k, n) array, bit for bit.

    The final root is a scalar pow per row: numpy's array power may round it
    differently in the last place.
    """
    if p == 2.0:  # one dot per row, as p_norm takes it
        sq = rows.real[:, None] @ rows.real[..., None]
        if rows.dtype.kind == "c":
            sq += rows.imag[:, None] @ rows.imag[..., None]
        return np.sqrt(sq[:, 0, 0])
    if p == 1.0:
        return np.add.reduce(np.abs(rows), axis=-1)
    sums = np.add.reduce(np.abs(rows) ** p, axis=-1)
    return np.array([total ** (1.0 / p) for total in sums.tolist()])


def align_phase(x, y, field: str, p: float = 2.0) -> tuple[complex, float]:
    """Unimodular xi minimizing ||x - xi*y||_p, with the achieved residual.

    Real field, any p: both signs are evaluated exactly (ties prefer +1).
    Complex field, p = 2 only: xi is the phase of <x, y> (xi = 1 when the
    inner product vanishes); complex p != 2 raises UnsupportedPError.
    """
    _check_field(field)
    xv = np.asarray(x).ravel()
    yv = np.asarray(y).ravel()
    if xv.size != yv.size:
        raise DimensionError(f"length mismatch {xv.size} != {yv.size}")
    if field == REAL:
        r_plus = p_norm(xv - yv, p)
        r_minus = p_norm(xv + yv, p)
        if r_plus <= r_minus:
            return 1.0, r_plus
        return -1.0, r_minus
    _check_exponent(field, p)
    inner = np.vdot(yv, xv)  # <x, y> = sum x_j conj(y_j)
    mag = abs(inner)
    xi = inner / mag if mag > 0.0 else 1.0 + 0.0j
    return complex(xi), p_norm(xv - xi * yv, p)


def gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """Standard normal draw over `field`; a complex one fills real, then imaginary parts."""
    if _check_field(field) == REAL:
        return rng.standard_normal(shape)
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    return out


def _column_pnorms(a: np.ndarray, p: float) -> np.ndarray:
    """Column p-norms of a real (m, T) array, computed in place in np.linalg.norm's order."""
    if p == 2.0:
        return np.sqrt(np.add.reduce(np.square(a, out=a), axis=0))
    np.abs(a, out=a)
    if p != 1.0:
        np.power(a, p, out=a)
    return np.add.reduce(a, axis=0) ** (1.0 / p)


def align_phase_batch(
    x: np.ndarray, y: np.ndarray, field: str, p: float = 2.0
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise align_phase: (phases xi_j, residuals ||x_j - xi_j y_j||_p).

    y holds (m, T) measurement columns, x the same shape or one (m, 1) column.
    Real field: both signs as column p-norms (ties prefer +1); complex field
    (p = 2 only): the closed form in one (m, T) temporary.
    """
    _check_exponent(field, p)
    if x.shape != y.shape and x.shape != (len(y), 1):
        raise DimensionError(f"shape mismatch {x.shape} != {y.shape}")
    if field == REAL:
        r_plus, r_minus = _column_pnorms(x - y, p), _column_pnorms(x + y, p)
        return np.where(r_plus <= r_minus, 1.0, -1.0), np.minimum(r_plus, r_minus)
    work = np.multiply(np.conj(x), y, out=np.empty(y.shape, dtype=np.complex128))
    inner = np.conj(np.add.reduce(work, axis=0))  # == sum(x * conj(y)), bit for bit
    mag = np.abs(inner)
    xi = np.divide(inner, mag, out=np.ones_like(inner), where=mag > 0.0)
    np.subtract(x, np.multiply(xi, y, out=work), out=work)
    parts = np.square(work.view(np.float64), out=work.view(np.float64))  # re^2, im^2
    return xi, np.sqrt(np.add.reduce(parts[:, 0::2] + parts[:, 1::2], axis=0))


def pair_ratios(x, ys, field: str, p: float = 2.0):
    """(num, den, equivalent, collision) of x against ys: the one rule for
    phase equivalence.

    num = min_{|xi|=1} ||x - xi*y||_p and den = || |x| - |y| ||_p.  A pair is
    phase-equivalent when den <= DENOM_CUTOFF * ||x||_p (its ratio is 0/0),
    and a collision when it is equivalent with num > COLLISION_RTOL * ||x||_p:
    equal moduli, no common phase.  ||x||_p is floored at 1e-300, so x = y = 0
    is equivalent.  Complex p != 2 raises UnsupportedPError, as align_phase
    does.  A 1-D `ys` is one pair (p_norm and one align_phase call,
    scalar results); a 2-D `ys` holds columns compared against a 1-D x (one
    (m, 1) column) or a same-shape x, with in-place temporaries; a real den
    comes from the residuals, as | |a|-|b| | == min(|a-b|, |a+b|) in IEEE.
    """
    x = np.asarray(x)
    ys = np.asarray(ys)
    scale = p_norm(x, p) if x.ndim == 1 else _column_pnorms(np.abs(x), p)
    if ys.ndim == 1:
        den = p_norm(np.abs(x) - np.abs(ys), p)
        _, num = align_phase(x, ys, field, p)
        floor = max(scale, 1e-300)
    else:
        x = x.reshape(len(x), -1)
        if field == REAL:
            plus, minus = (np.abs(r, out=r) for r in (x - ys, x + ys))  # xi = +1, -1
            gap = np.minimum(plus, minus)
            num = np.minimum(_column_pnorms(plus, p), _column_pnorms(minus, p))
        else:
            gap = np.abs(ys)
            np.subtract(np.abs(x), gap, out=gap)
            _, num = align_phase_batch(x, ys, field, p)
        den = _column_pnorms(gap, p)
        floor = np.maximum(scale, 1e-300)
    equivalent = den <= DENOM_CUTOFF * floor
    return num, den, equivalent, equivalent & (num > COLLISION_RTOL * floor)


def ratio_brackets(x: np.ndarray, ys: np.ndarray, field: str, p: float = 2.0):
    """(lo, hi) around pair_ratios' num / den for each column of ys, x 1-D.

    At p = 2, with S = ||x||^2 + ||y||^2, the Gram form gives
    num^2 = S - 2|<x, y>| and den^2 = S - 2<|x|, |y|>.  Both are widened by
    err = (8m + 32) eps S, which covers their rounding (the dot-product bound
    gamma_m, Higham §3.1) and pair_ratios' own.  A column is undecided,
    (-inf, inf), when den^2 - err <= 1e-20 S (so every pair pair_ratios calls
    equivalent, collisions included), when S is not finite or below 1e-250
    (underflow), and at every real p != 2 (complex p != 2 raises
    UnsupportedPError).  einsum, not BLAS: see harness.fuzz_bounds.
    """
    _check_exponent(field, p)
    if p != 2.0:
        return np.full(ys.shape[1], -np.inf), np.full(ys.shape[1], np.inf)
    ys = np.ascontiguousarray(ys, dtype=np.complex128 if field == COMPLEX else None)
    ax, ay = np.abs(x), np.abs(ys)
    total = np.einsum("ij,ij->j", ay, ay)
    total += np.einsum("i,i->", ax, ax)
    if field == COMPLEX:  # <x, y> from real dot products on the interleaved parts
        parts = np.einsum("ki,ij->kj", np.stack([x.real, x.imag]), ys.view(np.float64))
        inner = np.hypot(parts[0, 0::2] + parts[1, 1::2], parts[0, 1::2] - parts[1, 0::2])
    else:
        inner = np.abs(np.einsum("i,ij->j", x, ys))
    # in units of 2S: num^2 +- err = 1/2 +- h - |<x, y>| / S, den^2 with <|x|, |y|>
    h = (4 * len(ys) + 16) * np.finfo(np.float64).eps
    with np.errstate(all="ignore"):  # undecided columns may divide by 0 or hold inf / inf
        u = np.divide(inner, total, out=inner)
        v = np.einsum("i,ij->j", ax, ay)
        v /= total
        gap = (0.5 - h) - v
        lo = np.maximum((0.5 - h) - u, 0.0)
        lo /= (0.5 + h) - v
        hi = np.divide((0.5 + h) - u, gap)
        lo, hi = np.sqrt(lo, out=lo), np.sqrt(hi, out=hi)
    undecided = ~((gap > 0.5e-20) & (total >= 1e-250) & (total < np.inf))
    lo[undecided], hi[undecided] = -np.inf, np.inf
    return lo, hi
