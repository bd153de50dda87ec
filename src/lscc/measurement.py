"""Vectors, frames, phaseless measurement and optimal global-phase alignment.

All arithmetic is double precision.  Signals and measurement vectors over the
real field are float64 arrays, complex ones are complex128.  A measurement row
phi acts on a signal f as <f, phi> = sum_j f_j * conj(phi_j), so measuring is
conjugate-linear in the row and plain matrix multiplication in the real case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionError, FieldError

REAL = "real"
COMPLEX = "complex"

#: number of coarse grid points used for unimodular alignment when p != 2
PHASE_GRID = 4096
#: relative tolerance of the golden-section refinement for p != 2 alignment
PHASE_REFINE_RTOL = 1e-10
#: phase-equivalence cutoff on || |x| - |y| ||_p relative to ||x||_p (pair_ratios)
DENOM_CUTOFF = 1e-14
#: collision threshold on min_xi ||x - xi*y||_p relative to ||x||_p (pair_ratios)
COLLISION_RTOL = 1e-9


def _check_field(field: str) -> str:
    if field not in (REAL, COMPLEX):
        raise FieldError(f"unknown field {field!r}")
    return field


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
class Signal:
    """A finite coordinate vector over the real or complex field."""

    values: np.ndarray
    field: str

    def __post_init__(self):
        object.__setattr__(self, "values", as_field_array(self.values, self.field))
        if self.values.ndim != 1 or self.values.size < 1:
            raise DimensionError("signal must be a nonempty 1-D vector")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class Frame:
    """A finite measurement family: one functional per matrix row.

    `lower` and `upper` are the declared p-frame constants (A <= B).  The
    scheme-level A and B are checked against probe signals by
    `validate_local_phase_retrieval`, which fails when the observed ratios
    ||Phi_v f||_p / ||f||_p leave [A, B]; a Frame itself never checks them.
    """

    rows: np.ndarray
    p: float = 2.0
    field: str = REAL
    lower: float = dc_field(default=0.0)
    upper: float = dc_field(default=np.inf)

    def __post_init__(self):
        rows = as_field_array(self.rows, self.field)
        own = rows.flags.writeable and np.may_share_memory(rows, self.rows)
        object.__setattr__(self, "rows", rows.copy() if own else rows)  # freeze no caller's array
        if self.rows.ndim != 2 or self.rows.shape[0] < 1 or self.rows.shape[1] < 1:
            raise DimensionError("frame rows must form a nonempty matrix")
        if not (1.0 <= self.p < math.inf):
            raise FieldError(f"p must lie in [1, inf), got {self.p}")
        if self.lower > self.upper:
            raise FieldError("frame constants must satisfy lower <= upper")
        self.rows.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


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

    Real field: both signs are evaluated exactly (ties prefer +1).  Complex
    field with p = 2: closed form, xi is the phase of <x, y> (xi = 1 when the
    inner product vanishes).  Complex field with p != 2 has no closed form; a
    4096-point phase grid followed by golden-section refinement is used, and
    the result is accurate to ~1e-10 relative in the phase angle.
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
    if p == 2.0:
        inner = np.vdot(yv, xv)  # <x, y> = sum x_j conj(y_j)
        mag = abs(inner)
        xi = inner / mag if mag > 0.0 else 1.0 + 0.0j
        return complex(xi), p_norm(xv - xi * yv, p)
    return _align_phase_grid(xv, yv, p)


def _align_phase_grid(xv: np.ndarray, yv: np.ndarray, p: float) -> tuple[complex, float]:
    thetas = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    diffs = xv[None, :] - np.exp(1j * thetas)[:, None] * yv[None, :]
    vals = np.sum(np.abs(diffs) ** p, axis=1)
    k = int(np.argmin(vals))
    lo = thetas[k] - 2.0 * math.pi / PHASE_GRID
    hi = thetas[k] + 2.0 * math.pi / PHASE_GRID

    def objective(theta: float) -> float:
        return float(np.sum(np.abs(xv - np.exp(1j * theta) * yv) ** p))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > PHASE_REFINE_RTOL * 2.0 * math.pi:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    theta = 0.5 * (a + b)
    xi = complex(np.exp(1j * theta))
    return xi, p_norm(xv - xi * yv, p)


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
    Real field: both signs as column p-norms (ties prefer +1); complex field:
    the closed form in one (m, T) temporary at p = 2, else align_phase per column.
    """
    _check_field(field)
    if x.shape != y.shape and x.shape != (len(y), 1):
        raise DimensionError(f"shape mismatch {x.shape} != {y.shape}")
    if field == REAL:
        r_plus, r_minus = _column_pnorms(x - y, p), _column_pnorms(x + y, p)
        return np.where(r_plus <= r_minus, 1.0, -1.0), np.minimum(r_plus, r_minus)
    if p != 2.0:
        x = np.broadcast_to(x, y.shape)
        aligned = [align_phase(x[:, j], y[:, j], field, p) for j in range(x.shape[1])]
        aligned = np.array(aligned, dtype=np.complex128).reshape(-1, 2)
        return aligned[:, 0], aligned[:, 1].real
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
    is equivalent.  A 1-D `ys` is one pair (p_norm and one align_phase call,
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
