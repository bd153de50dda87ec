"""Weighted graphs: connectivity, Cheeger constants, Laplacians, spectral gaps.

The Cheeger value of a cut S is (boundary edge weight) / (vertex weight of S),
minimized over nonempty proper subsets whose volume is at most half the total.
`cheeger` picks one of three routes from the graph's own edges: ring-shaped
graphs (every edge (i, i+1) or, with n > 2, (0, n-1)) take the interval
reduction at any size; other graphs get exact subset enumeration up to
EXACT_BUDGET vertices, then a spectral sweep producing a certified
[lambda/2-derived lower, sweep-cut upper] sandwich.

The interval reduction scores every arc of a ring of up to EXACT_BUDGET
vertices in one pass, by the ascending running sums of exact enumeration, so
the two agree bit for bit unless a cut that is not an arc ties the best arc
or, by rounding, undercuts it.  Larger rings are minimized by Dinkelbach's
iteration on compensated prefix sums, taking window minima from a sparse table
(with narrow windows every arc is scored on the grid of window slots instead):
O(n log n) time and memory, tied arcs included.  Exact enumeration reads
volumes from a doubling table over the low 16 vertex bits and continues over
the high bits one chunk of 2^16 masks at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidWeightError,
    TopologyError,
)

EXACT_ENUMERATION = "ExactEnumeration"
INTERVAL_REDUCTION = "IntervalReduction"
SPECTRAL_SWEEP = "SpectralSweepSandwich"

#: largest vertex count for exact 2^(n-1)-cut enumeration
EXACT_BUDGET = 24
#: on the grid, cheeger_interval re-scores every arc with ratio <= t * (1 +
#: _TIE_MARGIN), far above the rounding of any ratio it compares
_TIE_MARGIN = 2.0**-40
#: cheeger_interval's Dinkelbach iteration runs at t * (1 - _SETTLE), so that
#: when it stops no arc's ratio is below that up to rounding; ratios this
#: close to the best count as tied
_SETTLE = 2.0**-48
#: above EXACT_BUDGET vertices, cheeger_interval opens each window this much
#: (relative) early on rounded sums; compensated sums then drop arcs over half
_HALF_BAND = 2.0**-45
#: cheeger_interval reads range minima off the grid of all window slots when
#: it holds at most this many, and builds a sparse table otherwise
_GRID_CELLS = 1 << 12
#: cheeger_exact tabulates this many low vertex bits: 2^16 masks per chunk
_EXACT_LOW_BITS = 16
#: algebraic_connectivity takes the ring route from this many vertices on;
#: below it the dense eigensolve is faster
_RING_SPECTRAL_MIN = 56
#: a smaller ring keeps the dense eigensolve's lambda only above this many
#: times its error bound (nine digits or more); others take the ring route
_DENSE_TRUST = 1e9
#: cap on the inverse-iteration steps of the ring route
_RING_MAX_STEPS = 200
#: the ring route's second vector counts as lost in the span of the first
#: when its independent part has at most this share of its squared norm
_RING_INDEPENDENT = 2.0**-40


@dataclass(frozen=True, init=False)
class WeightedGraph:
    """Vertex- and edge-weighted graph; all retained weights strictly positive.

    Edge k joins positional vertices u[k] < v[k] with weight w[k]; the three
    read-only arrays are sorted lexicographically by (u, v).  `edges` may be
    given as (u, v, w) rows, or as the column triple (u, v, w) of 1-D arrays.
    `labels` carries the original vertex identifiers of an induced subgraph
    (defaults to 0..n-1).
    """

    vertex_weights: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    labels: tuple

    def __init__(self, vertex_weights, edges=(), labels=None):
        vw = np.asarray(vertex_weights, dtype=np.float64)
        n = vw.size
        if vw.ndim != 1 or (n and not (vw.min() > 0.0 and vw.max() < math.inf)):
            raise InvalidWeightError("vertex weights must be finite and positive, in a 1-D array")
        if labels is None:
            labels = tuple(range(n))
        elif len(labels) != n:
            raise InvalidWeightError("labels length must match vertex count")
        columns = isinstance(edges, tuple) and len(edges) == 3
        if not (columns and all(isinstance(c, np.ndarray) and c.ndim == 1 for c in edges)):
            try:
                edges = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3).T
            except (TypeError, ValueError):
                raise InvalidWeightError("edges must be (u, v, w) triples") from None
        a, b, w = edges
        if not a.size == b.size == w.size:
            raise InvalidWeightError("edge columns u, v, w must have one length")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        w = np.array(w, dtype=np.float64)
        ok = (lo >= 0) & (hi < n) & (lo < hi) & (w > 0.0) & (w < math.inf)
        if lo.dtype.kind == "f":
            ok &= (np.trunc(lo) == lo) & (np.trunc(hi) == hi)
        if not ok.all():
            raise InvalidWeightError(_edge_fault(a, b, n, int(np.argmin(ok))))
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        key = lo * n + hi
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            lo, hi, w, key = lo[order], hi[order], w[order], key[order]
            if (dup := np.flatnonzero(key[1:] == key[:-1])).size:
                raise InvalidWeightError(f"duplicate edge ({lo[dup[0]]},{hi[dup[0]]})")
        for name, arr in (("vertex_weights", vw), ("u", lo), ("v", hi), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", labels)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edge arrays as (u, v, w) tuples of Python numbers."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def num_vertices(self) -> int:
        return self.vertex_weights.size

    @property
    def is_empty(self) -> bool:
        return self.num_vertices == 0

    def total_volume(self) -> float:
        # a running sum adds in ascending index order, as the Cheeger routes do
        return float(self.vertex_weights.cumsum()[-1]) if self.num_vertices else 0.0

    @cached_property
    def _ring_slot(self) -> np.ndarray | None:
        """Each edge's index in `ring_weights`, or None as there."""
        n, step = self.num_vertices, self.v - self.u
        unit = step == 1  # only (0, n-1) has step n-1 > 1
        return np.where(unit, self.u, self.v) if (unit | (step == n - 1)).all() else None

    @cached_property
    def ring_weights(self) -> np.ndarray | None:
        """ew[i] = weight of edge (i, i+1 mod n), 0 when absent; None unless the
        graph is ring-shaped (every edge (i, i+1) or, with n > 2, (0, n-1))."""
        if (slot := self._ring_slot) is None:
            return None
        ew = np.zeros(self.num_vertices)
        ew[slot] = self.w
        ew.setflags(write=False)
        return ew

    def _reweighted(self, vertex_weights: np.ndarray, w: np.ndarray) -> "WeightedGraph":
        """This structure and ring layout under float64 weights checked finite and > 0."""
        for arr in (vertex_weights, w):
            arr.setflags(write=False)
        g = object.__new__(WeightedGraph)
        g.__dict__.update(u=self.u, v=self.v, labels=self.labels, _ring_slot=self._ring_slot)
        g.__dict__.update(vertex_weights=vertex_weights, w=w)
        return g

    def scaled(self, c: float) -> "WeightedGraph":
        return WeightedGraph(self.vertex_weights * c, (self.u, self.v, self.w * c), self.labels)


def _edge_fault(a, b, n: int, k: int) -> str:
    """Message for the invalid edge k, checked in the order the fields are read."""
    a, b = float(a[k]), float(b[k])
    if not (a.is_integer() and b.is_integer()):
        return f"edge ({a:g},{b:g}) endpoints must be integers"
    a, b = sorted((int(a), int(b)))
    if a == b:
        return f"self-loop at vertex {a}"
    fault = "outside vertex range" if a < 0 or b >= n else "weight must be positive"
    return f"edge ({a},{b}) {fault}"


@dataclass(frozen=True)
class CheegerResult:
    lower: float
    upper: float
    method: str
    witness: tuple[int, ...]

    @property
    def is_exact(self) -> bool:
        return self.method in (EXACT_ENUMERATION, INTERVAL_REDUCTION)

    @property
    def value(self) -> float:
        if not self.is_exact:
            raise ValueError("sandwich result has no single value; use lower/upper")
        return self.upper


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    fiedler: np.ndarray | None


def is_connected(g: WeightedGraph) -> bool:
    """Ring-shaped graphs by their edge count, others by an array BFS."""
    if g.is_empty:
        raise EmptyGraphError("connectivity of the empty graph is undefined")
    if g.ring_weights is not None:
        return g.w.size >= g.num_vertices - 1
    seen = np.zeros(g.num_vertices, dtype=bool)
    seen[0] = True
    while np.any(cross := seen[g.u] != seen[g.v]):
        seen[g.u[cross]] = seen[g.v[cross]] = True
    return bool(seen.all())


def _singleton_result(g: WeightedGraph, method: str) -> CheegerResult:
    # no nonempty proper subset exists: the infimum over an empty family
    return CheegerResult(math.inf, math.inf, method, witness=())


def _smallest_members(sets: np.ndarray) -> tuple[int, ...]:
    """The lexicographically smallest ascending member tuple among bitmasks.

    Each step keeps the sets whose next member is the smallest and removes
    that member; a set left empty is a prefix of every survivor, so it wins.
    """
    members = []
    while (sets != 0).all():
        low = sets & -sets
        first = low.min()
        sets = sets[low == first] ^ first
        members.append(int(first).bit_length() - 1)
    return tuple(members)


def cheeger_exact(g: WeightedGraph) -> CheegerResult:
    """Exact Cheeger constant by enumeration of all 2^(n-1) cuts.

    Ties between optimal cuts are broken toward the lexicographically
    smallest witness vertex set.  Volumes add member weights in ascending
    vertex order and boundaries add cut edge weights in edge-list order, so
    values match cheeger_interval's running sums bit for bit.  Memory is
    O(n * 2^16): one table over the low vertex bits plus one chunk of masks.
    """
    if g.is_empty:
        raise EmptyGraphError("Cheeger constant of the empty graph is undefined")
    n = g.num_vertices
    if n > EXACT_BUDGET:
        raise BudgetExceededError(f"{n} vertices exceeds exact budget {EXACT_BUDGET}")
    if n == 1:
        return _singleton_result(g, EXACT_ENUMERATION)

    w = g.vertex_weights
    half = 0.5 * g.total_volume()
    best = math.inf
    best_witness: tuple[int, ...] | None = None

    # Masks over vertices 0..n-2 (vertex n-1 is always on the complement
    # side) split into `low` bits, tabulated once, and high bits, one chunk
    # of 2^low consecutive masks each.  table[x] sums w[i] over the low bits
    # of x in ascending order: doubling adds w[i] after every lower vertex,
    # and adding the exact zeros of absent members changes nothing.
    low, top = min(n - 1, _EXACT_LOW_BITS), 1 << (n - 1)
    size = 1 << low
    table = np.zeros(size)
    for i in range(low):
        np.add(table[: 1 << i], w[i], out=table[1 << i : 2 << i])
    on = [(np.arange(size) >> i) & 1 == 1 for i in range(low)]
    edges = g.edges
    for high in range(1 << (n - 1 - low)):
        start = high << low
        bits = on + [(high >> j) & 1 == 1 for j in range(n - 1 - low)] + [False]
        # ascending order: low members from the table, then high members;
        # the low complement of x is (size - 1) ^ x, the table reversed
        vol_s, vol_c = table.copy(), table[::-1].copy()
        for i in range(low, n - 1):
            if bits[i]:
                vol_s += w[i]
            else:
                vol_c += w[i]
        vol_c += w[n - 1]
        # boundary: one edge at a time in edge-list order; adding 0 is exact
        bd = np.zeros(size)
        for u, v, ew in edges:
            if (cut := bits[u] != bits[v]) is not False:
                bd += cut * ew
        if start == 0:
            vol_s[0] = math.inf  # the empty set is not a cut
        ratio_s = np.where(vol_s <= half, bd / vol_s, math.inf)
        ratio_c = np.where(vol_c <= half, bd / vol_c, math.inf)
        chunk_min = min(ratio_s.min(), ratio_c.min())
        if chunk_min > best:
            continue
        if chunk_min < best:
            best = float(chunk_min)
            best_witness = None
        # tied cuts as vertex bitmasks; the complement side holds vertex n-1
        tied_s = start + np.flatnonzero(ratio_s == best)
        tied_c = ((top - 1) ^ (start + np.flatnonzero(ratio_c == best))) | top
        for tied in (tied_s, tied_c):
            if tied.size:
                members = _smallest_members(tied)
                if best_witness is None or members < best_witness:
                    best_witness = members

    assert best_witness is not None
    witness = tuple(g.labels[i] for i in best_witness)
    return CheegerResult(best, best, EXACT_ENUMERATION, witness)


def _dinkelbach_arcs(p, ewp, ewd, first, last, t: float):
    """Candidate arcs (s, e) of cheeger_interval when its windows are too wide
    for the grid: every arc whose ratio is within _SETTLE of the minimum,
    but a window's starts to the right of one that ties the best are
    left out (they have larger member tuples).  `t` is a ratio to start from."""
    n, ends = ewp.size, ewd.size

    def vol(s, e):
        d = p[e + 1] - p[s]
        return d.real + d.imag

    # table[k, i] is the leftmost minimizer of key over [i, i + 2^k).  A
    # range of length L + 1 from a is covered by the blocks at a and at
    # a + shift[L], on level lg[L].
    levels = (int((last - first).max()) + 1).bit_length()
    lg = np.repeat(np.arange(levels), 1 << np.arange(levels))
    row, shift = lg * n, np.arange(lg.size) + 1 - (1 << lg)
    table = np.empty((levels, n), dtype=np.int32)
    table[0] = np.arange(n)
    flat = table.ravel()
    hi, lo = p.real[:n], p.imag[:n]
    key = ewp  # gaps() rebinds it for each t

    def blocks(a, b):
        """Table positions of the two blocks covering each range [a, b]."""
        at = row[b - a] + a
        return at, at + shift[b - a]

    def argmin_in(at):
        """Leftmost minimizer of key over the ranges covered at `at`."""
        i, j = flat[at[0]], flat[at[1]]
        return np.where(key[j] < key[i], j, i)

    windows, every_end = blocks(first, last), np.arange(ends)  # the same for every t

    def gaps(t: float):
        """Each end's leftmost start minimizing bd - t vol, and that minimum."""
        nonlocal key
        if t > 0.0:
            # key(s) = P[s] + ew[s-1]/t orders a window's starts as
            # bd - t vol does: a normalized double-double hi + 1j lo,
            # which compares as a complex number does
            q = ewp / t
            kh = hi + q
            z = kh - hi
            kl = lo + ((hi - (kh - z)) + (q - z))
            key = kh + kl
            key = key + 1j * (kl - (key - kh))
        else:  # t = 0: the boundary alone
            key = ewp + 0j
        for k in range(1, levels):
            left = table[k - 1, : n - (1 << k) + 1]
            right = table[k - 1, 1 << (k - 1) : n - (1 << (k - 1)) + 1]
            table[k, : left.size] = np.where(key[right] < key[left], right, left)
        s = argmin_in(windows)
        return s, ewp[s] + ewd - t * vol(s, every_end)

    # Lower t to the ratio of the arc minimizing bd - t' vol at t' = t (1 -
    # _SETTLE) until that arc does not improve t; no tolerance stop.  Then no
    # arc has a ratio below t' up to rounding, however small its volume.
    while t > 0.0:
        s, gap = gaps(t * (1.0 - _SETTLE))
        i = int(gap.argmin())
        ratio = float((ewp[s[i]] + ewd[i]) / vol(s[i], i))
        if ratio >= t:
            break
        t = ratio
    # Every arc with a ratio up to t_up passes bd - t_up vol <= 0.
    t_up = t * (1.0 + _SETTLE)
    s, gap = gaps(t_up)
    e = (gap <= 0.0).nonzero()[0]
    s = s[e]
    if t == 0.0:  # all tie at 0; an end's leftmost start has its smallest tuple
        return s, e
    # List the other passing starts by splitting each window around its
    # passing minimizer.  A start within _SETTLE of the best ratio found closes
    # the part of its window to its right, and one further above is dropped.
    starts, stops = [], []
    a, b, best = first[e], last[e], t
    while s.size:
        r = (ewp[s] + ewd[e]) / vol(s, e)
        best = min(best, float(r.min()))
        keep = r <= best * (1.0 + _SETTLE)
        starts.append(s[keep])
        stops.append(e[keep])
        more = ~keep
        a = np.concatenate((a, s[more] + 1))
        b = np.concatenate((s - 1, b[more]))
        e = np.concatenate((e, e[more]))
        ok = (a <= b).nonzero()[0]
        a, b, e = a[ok], b[ok], e[ok]
        s = argmin_in(blocks(a, b))
        ok = (ewp[s] + ewd[e] - t_up * vol(s, e) <= 0.0).nonzero()[0]
        a, b, s, e = a[ok], b[ok], s[ok], e[ok]
    return np.concatenate(starts), np.concatenate(stops)


def _arc_members(s: int, e: int, n: int) -> list[int]:
    """The vertices of the arc [s..e] of the doubled n-ring, ascending."""
    return [*range(s, e + 1)] if e < n else [*range(e - n + 1), *range(s, n)]


@cache
def _ring_arcs(n: int, cycle: bool) -> tuple[np.ndarray, ...]:
    """(s, e, s - 1, e mod n, rows, at) for the arcs [s..e] of a ring of n <=
    EXACT_BUDGET vertices, sorted by member tuple.  Row s < n of `rows` is
    1.0 on the vertices s..n-1, each further row on one wrapping arc's
    members; arc k's volume is entry at[k] of cumsum(rows * w, axis=1)."""
    spans = [(s, e) for s in range(n) for e in range(s, s + n - 1) if cycle or e < n]
    s, e = np.array(sorted(spans, key=lambda a: _arc_members(*a, n))).T
    k, wrap = np.arange(n), e >= n
    rows = np.concatenate((k >= k[:, None], (k <= e[wrap, None] - n) | (k >= s[wrap, None])))
    at = np.where(wrap, (n + wrap.cumsum()) * n - 1, s * n + e)
    layout = (s, e, s - 1, e % n, rows.astype(np.float64), at)
    for arr in layout:
        arr.setflags(write=False)  # every call shares them
    return layout


def cheeger_interval(g: WeightedGraph) -> CheegerResult:
    """Exact Cheeger constant of a ring-shaped graph in O(n log n).

    A graph without the wrap edge is a path, otherwise a cycle.  On such
    graphs every optimal cut may be assumed connected: an arc [s..e] of the
    doubled ring with s < n, at most n - 1 long (e < n on a path), whose
    boundary is ew[s-1] + ew[e mod n].  Up to EXACT_BUDGET vertices every arc
    is scored in one pass by cheeger_exact's ascending running sums, so the
    two agree bit for bit but for the module docstring's exception.

    Above, the starts of the arcs ending at e with vol <= half form a window
    [first(e), last(e)].  While all windows fit in _GRID_CELLS slots, every arc
    is scored on the grid of those slots.  Otherwise Dinkelbach's iteration
    minimizes bd/vol: for a fixed t, min (bd - t vol) is a minimum over ends of
    a window minimum, read from a sparse table of the starts rebuilt for that
    t, and t drops to the ratio of the minimizing arc until no arc improves it
    strictly.  The arcs within _SETTLE of the final t are then listed by
    splitting each window around its passing minimizer.  A start within _SETTLE
    of the best ratio closes the part of its window to its right, whose starts
    have larger member tuples, so tied arcs cost O(1) per end: a cycle with
    about n^2/8 tied arcs lists O(n).  Only ratios crowding just above the
    minimum (within about 2^-47 of it, not within 2^-48 of the best) lengthen
    the listing.  Volumes are differences of compensated (double-double) prefix
    sums, so a light arc far from vertex 0 keeps its digits.  The listed arcs
    are re-scored by those differences (the chosen arc's is within about 2^-47
    of the least).  Ties go to the lexicographically smallest member tuple, and
    the value is the witness's running-sum ratio.
    """
    if g.is_empty:
        raise EmptyGraphError("Cheeger constant of the empty graph is undefined")
    ew = g.ring_weights
    if ew is None:
        raise TopologyError("graph is not ring-shaped: an edge is neither (i, i+1) nor (0, n-1)")
    n = g.num_vertices
    if n == 1:
        return _singleton_result(g, INTERVAL_REDUCTION)
    w = g.vertex_weights
    if n <= EXACT_BUDGET:
        s, e, before, after, rows, at = _ring_arcs(n, bool(ew[-1] > 0.0))
        vol = np.cumsum(rows * w, axis=1)  # adding 0.0 is exact; vol[0, -1] == total_volume()
        v = vol.take(at)
        ratio = np.where(v <= 0.5 * vol[0, -1], (ew[before] + ew[after]) / v, math.inf)
        i = int(ratio.argmin())  # of tied arcs, the first has the smallest member tuple
        value, members = float(ratio[i]), _arc_members(int(s[i]), int(e[i]), n)
        return CheegerResult(value, value, INTERVAL_REDUCTION, tuple(g.labels[k] for k in members))
    if ew[-1] > 0.0:  # a cycle: arcs end anywhere in the doubled ring
        ends = 2 * n - 2
        step = np.concatenate(((0.0,), w, w[: n - 2]))
        ewd = np.concatenate((ew, ew[: n - 2]))  # ewd[e] = ew[e mod n], the edge after e
    else:
        ends, step, ewd = n, np.concatenate(((0.0,), w)), ew.copy()
    ewp = np.concatenate((ew[-1:], ew[:-1]))  # ewp[s] = ew[s-1], the edge before s
    # compensated prefix sums p = hi + 1j lo over the doubled ring: lo adds
    # up the exact rounding error (two-sum) of each step of the running sum
    hi = np.add.accumulate(step)
    z = hi[1:] - hi[:-1]
    step[1:] = (hi[:-1] - (hi[1:] - z)) + (step[1:] - z)
    lo = np.add.accumulate(step)
    p = hi + 1j * lo

    def vol(s, e):
        d = p[e + 1] - p[s]
        return d.real + d.imag

    half = 0.5 * float(hi[n] + lo[n])

    # The search on rounded sums may open a window early, by arcs within
    # _HALF_BAND of half; those advance by the compensated sums.  An end
    # with an empty window keeps its last start and an infinite boundary.
    rounded = hi + lo
    first = rounded[:n].searchsorted(rounded[1:] - (1.0 + _HALF_BAND) * half)
    last = np.minimum(np.arange(ends), n - 1)
    v = vol(first, np.arange(ends))
    while np.count_nonzero(over := (first <= last) & (v > half)):
        first[over] += 1
        v = vol(first, np.arange(ends))
    if np.count_nonzero(dead := first > last):
        ewd[dead] = math.inf
        first[dead] = last[dead]
        v[dead] = 1.0
    width = int((last - first).max()) + 1

    if ends * width <= _GRID_CELLS:
        # Slot (e, k) holds the start first(e) + k; past last(e) it repeats
        # last(e) under an infinite boundary.  Every arc has its slot, so the
        # minimum and its ties are read off directly.
        grid = first[:, None] + np.arange(width)
        s_slot = np.minimum(grid, last[:, None])
        d = p[1:, None] - p[s_slot]
        bd = np.where(grid <= last[:, None], ewd[:, None], math.inf) + ewp[s_slot]
        ratio = (bd / (d.real + d.imag)).ravel()
        hit = (ratio <= ratio[ratio.argmin()] * (1.0 + _TIE_MARGIN)).nonzero()[0]
        s, e = s_slot.ravel()[hit], hit // width
    else:
        t = float(((ewp[first] + ewd) / v).min())  # the best largest arc of any end
        s, e = _dinkelbach_arcs(p, ewp, ewd, first, last, t)

    bd = ewp[s] + ewd[e]
    ratio = bd / vol(s, e)
    best = (ratio == ratio[ratio.argmin()]).nonzero()[0]
    if best.size > 1:
        # member-tuple order: [0..e] by e; then wrapping arcs [0..e-n] +
        # [s..n-1], longer low part first, then smaller s; then [s..e] with
        # s >= 1 by s, then e
        sb, eb = s[best], e[best]
        wrap = eb >= n
        group = np.where(wrap, 1, np.where(sb == 0, 0, 2))
        major = np.where(wrap, n - eb, np.where(sb == 0, eb, sb))
        best = best[np.lexsort((np.where(wrap, sb, eb), major, group))]
    i = best[0]
    members = _arc_members(int(s[i]), int(e[i]), n)
    value = float(bd[i] / w[members].cumsum()[-1])  # the witness's running sum
    return CheegerResult(value, value, INTERVAL_REDUCTION, tuple(g.labels[k] for k in members))


def _degrees(g: WeightedGraph) -> np.ndarray:
    """Weighted degrees, summed edge by edge in list order (u, then v)."""
    ends = np.stack((g.u, g.v), axis=1).ravel()
    return np.bincount(ends, np.repeat(g.w, 2), g.num_vertices)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense symmetric L = D - A; row sums are zero."""
    lap = np.diag(_degrees(g))
    lap[g.u, g.v] = lap[g.v, g.u] = -g.w
    return lap


def normalized_laplacian(g: WeightedGraph) -> np.ndarray:
    """S^(-1/2) L S^(-1/2) with S = diag(vertex weights)."""
    s = np.sqrt(g.vertex_weights)
    return laplacian(g) / np.outer(s, s)


def _orthogonal_complement_basis(u: np.ndarray) -> np.ndarray:
    """Columns: an orthonormal basis of the hyperplane orthogonal to u."""
    n = u.size
    v = u / np.linalg.norm(u)
    e = np.zeros(n)
    e[0] = 1.0
    h = v + math.copysign(1.0, v[0]) * e
    hh = np.eye(n) - 2.0 * np.outer(h, h) / float(h @ h)
    return hh[:, 1:]


def _dense_spectral(g: WeightedGraph) -> tuple[float, np.ndarray, float]:
    """Smallest eigenpair of the normalized Laplacian on the complement of
    S^(1/2) 1, by deflating that direction before a dense symmetric
    eigensolve: O(n^3) time, O(n^2) memory.  Returns (lambda, y, err) with y
    in the normalized coordinates and err = n eps ||M||_F, a bound on the
    absolute error of lambda."""
    m = normalized_laplacian(g)
    q = _orthogonal_complement_basis(np.sqrt(g.vertex_weights))
    reduced = q.T @ m @ q
    reduced = 0.5 * (reduced + reduced.T)
    evals, evecs = np.linalg.eigh(reduced)
    err = g.num_vertices * np.finfo(np.float64).eps * float(np.linalg.norm(m))
    return max(float(evals[0]), 0.0), q @ evecs[:, 0], err


def _ring_fiedler(w: np.ndarray, ew: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest nonzero eigenpair of L z = lambda S z on a connected path or
    cycle of n >= 3 vertices, by block inverse iteration with two vectors.

    The path runs 0..n-1 through edges ew[i] = (i, i+1), and ew[-1] > 0 closes
    it into a cycle.  Solving L y = S x is O(n): the flow on edge (i, i+1) is
    the running sum of S x up to i, plus on a cycle the circulation that makes
    the differences d[i] = y[i+1] - y[i] = -flow / ew sum to zero around it.
    Each vector is kept as its potentials y and its differences d, and the
    Rayleigh quotient sum ew d^2 / sum w y^2 reads the differences directly,
    never by subtracting potentials, so a small lambda keeps its relative
    digits.  The 2 x 2 Rayleigh-Ritz step (Gram-Schmidt in l2(V, w), then one
    Jacobi rotation) is closed-form scalar arithmetic; when the lowest mode
    so dominates that the second vector is lost in the span of the first,
    the step keeps the first alone.  Iteration starts from the two lowest
    modes of a uniform ring laid out by volume and stops at the first step
    whose lower Ritz vector does not lower the Rayleigh quotient (or after
    _RING_MAX_STEPS).  Returns the least quotient and its vector, of unit
    norm in l2(V, w).  Works in the arrays' own float dtype.
    """
    n = w.size
    cycle = bool(ew[-1] > 0)
    # sums are np.add.reduce over the last axis, so no BLAS routine is loaded
    resist = np.divide(-1.0, ew, out=np.zeros_like(ew), where=ew > 0)
    circulate = resist / -resist.sum()  # the wrap flow is sum(circulate * flow[:-1])
    weight = np.stack((w, ew))[:, None]
    total = w.sum()
    t = (np.cumsum(w) - 0.5 * w) * (2.0 * np.pi / total)
    # v[0] holds the two potentials, v[1] their differences; on a path the
    # last difference stays 0, as its edge weight is
    v = np.stack((np.cos(t), np.sin(t)) if cycle else (np.cos(0.5 * t), np.cos(t)))[None]
    v -= (np.add.reduce(v * w, axis=-1) / total)[..., None]
    best, best_v = np.inf, None
    for _ in range(_RING_MAX_STEPS):
        x, v = v[0], np.empty((2, 2, n), dtype=w.dtype)
        y, d = v
        np.add.accumulate(x * w, axis=1, out=d)
        d[:, -1] = 0.0  # the running sum over all vertices is 0 up to rounding
        if cycle:
            d += np.add.reduce(d * circulate, axis=1)[:, None]
        d *= resist
        y[:, 0] = 0.0
        np.add.accumulate(d[:, :-1], axis=1, out=y[:, 1:])
        y -= (np.add.reduce(y * w, axis=1) / total)[:, None]
        # gram[0] = sum w y_i y_j, gram[1] = sum ew d_i d_j
        gram = np.add.reduce((v * weight)[:, :, None] * v[:, None], axis=-1).tolist()
        ((g11, g12), (_, g22)), ((a11, a12), (_, a22)) = gram
        # q1 = y1 / s1 and q2 = (y2 - r y1) / s2 are orthonormal in l2(V, w)
        r = g12 / g11
        s1, s2 = g11**0.5, g22 - r * g12
        if s2 > _RING_INDEPENDENT * g22:
            s2 **= 0.5
            p11, p12 = a11 / g11, (a12 - r * a11) / (s1 * s2)
            p22 = (a22 - 2.0 * r * a12 + r * r * a11) / (s2 * s2)
            # the Jacobi rotation that diagonalizes [[p11, p12], [p12, p22]]
            tan = 0.0
            if p12 != 0.0:
                tau = (p22 - p11) / (2.0 * p12)
                tan = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + (1.0 + tau * tau) ** 0.5)
            cos = 1.0 / (1.0 + tan * tan) ** 0.5
            sin = tan * cos
            # rows: the rotated q1 and q2 in the basis y1, y2, smaller Ritz value first
            rot = [[cos / s1 + sin * r / s2, -sin / s2], [sin / s1 - cos * r / s2, cos / s2]]
            if p22 + tan * p12 < p11 - tan * p12:
                rot = rot[::-1]
            rot = np.array(rot, dtype=w.dtype)[:, :, None]
            v = rot[:, 0] * v[:, None, 0] + rot[:, 1] * v[:, None, 1]
        else:
            # y2 lies in the span of y1 to working precision (the lowest mode
            # dominates both): go on with y1, and carry the old x2 over
            v[:, 0] /= s1
            y[1] = x[1]
        y, d = v[:, 0]
        lam = np.add.reduce(d * d * ew) / np.add.reduce(y * y * w)
        if not lam < best:
            break
        best, best_v = lam, v[:, 0]
    y = best_v[0]
    return best, y / np.add.reduce(y * y * w) ** 0.5


def _ring_spectral(w: np.ndarray, ew: np.ndarray) -> tuple[float, np.ndarray]:
    """(lambda, Fiedler vector) of the ring with vertex weights w and edge
    weights ew (`WeightedGraph.ring_weights`), in O(n) per step.

    A disconnected ring gets lambda = 0 and the centred indicator of the
    component holding vertex 0.  A connected ring is rotated to start after
    its lightest edge: an absent edge makes it a path, and on a cycle the
    flow through that edge is the circulation alone, not a small difference
    of running sums.
    """
    absent = np.flatnonzero(ew == 0.0)
    if absent.size > 1:
        # vertex i follows part[i] absent edges; the last part wraps to vertex 0
        # when the edge (0, n-1) is present
        part = np.cumsum(ew == 0.0) - (ew == 0.0)
        z = ((part == 0) | (part == absent.size)).astype(np.float64)
        z -= (z @ w) / w.sum()
        return 0.0, z / math.sqrt(float((z * z) @ w))
    shift = (int(ew.argmin()) + 1) % w.size
    lam, z = _ring_fiedler(np.roll(w, -shift), np.roll(ew, -shift))
    return lam, np.roll(z, shift)


def algebraic_connectivity(g: WeightedGraph) -> SpectralResult:
    """Spectral gap of the weighted normalized Laplacian.

    The value is the minimum of the Rayleigh quotient z'Lz / z'Sz over z
    with sum w z = 0: exactly 0.0 on a disconnected graph.  Ring-shaped
    graphs from _RING_SPECTRAL_MIN vertices on take the O(n) inverse
    iteration of `_ring_fiedler`, accurate to about 1e-15 relative; other
    graphs take the dense eigensolve, whose absolute error is about machine
    epsilon times the Laplacian's norm.  A smaller ring whose dense lambda
    is not above _DENSE_TRUST times that error takes the ring route too
    (weights spread over many decades).  The eigenvector is returned in the
    w-weighted convention (unit l2(V,w) norm, first nonzero entry positive)
    so its weighted inner product with the constant vector is 0.
    """
    if g.is_empty:
        raise EmptyGraphError("spectrum of the empty graph is undefined")
    n = g.num_vertices
    if n == 1:
        return SpectralResult(math.inf, None)
    ring = g.ring_weights is not None
    if not ring or n < _RING_SPECTRAL_MIN:
        lam, y, err = _dense_spectral(g)
        if not is_connected(g):
            lam = 0.0
    if ring and (n >= _RING_SPECTRAL_MIN or lam < _DENSE_TRUST * err):
        lam, z = _ring_spectral(g.vertex_weights, g.ring_weights)
        lam = float(lam)
    else:
        z = y / np.sqrt(g.vertex_weights)
        z /= math.sqrt(float(np.sum(g.vertex_weights * z * z)))
    size = np.abs(z)
    if z[np.argmax(size > 1e-12 * size.max())] < 0.0:
        z = -z
    return SpectralResult(lam, z)


def normalized_degree(g: WeightedGraph) -> float:
    """max_v sum_u w_uv / w_v, the degree bound entering the Cheeger inequality."""
    return float(np.max(_degrees(g) / g.vertex_weights)) if g.num_vertices else 0.0


def cheeger_sweep(g: WeightedGraph) -> CheegerResult:
    """Certified Cheeger sandwich from the connectivity eigenvector.

    Upper bound: best of the n-1 prefix cuts in eigenvector order (the first
    on ties).  Lower bound: lambda/2, valid by the Cheeger inequality.
    """
    n = g.num_vertices
    if n < 2:
        raise EmptyGraphError("sweep needs at least two vertices")
    spec = algebraic_connectivity(g)
    order = np.argsort(spec.fiedler, kind="stable")
    rank = np.argsort(order)  # the sweep step at which each vertex joins S
    total = g.total_volume()
    # the boundary is a running sum over edge ends in step order (edge-list order
    # within a step): +w while the other end is outside S, -w once it is inside
    at = rank[np.stack((g.u, g.v), axis=1)]
    by_step = np.argsort(at, axis=None, kind="stable")
    change = np.where(at < at[:, ::-1], g.w[:, None], -g.w[:, None]).ravel()[by_step]
    done = np.searchsorted(at.ravel()[by_step], np.arange(n - 1), side="right")
    bd = np.concatenate(([0.0], np.cumsum(change)))[done]
    vol = np.cumsum(g.vertex_weights[order])[: n - 1]
    small = vol <= 0.5 * total
    denom = np.where(small, vol, total - vol)
    ratio = np.divide(bd, denom, out=np.full(n - 1, math.inf), where=denom > 0.0)
    i = int(np.argmin(ratio))
    best = float(ratio[i])
    members = np.sort(order[: i + 1] if small[i] else order[i + 1 :]).tolist()
    witness = tuple(g.labels[j] for j in members) if best < math.inf else ()
    return CheegerResult(min(0.5 * spec.lam, best), best, SPECTRAL_SWEEP, witness)


def cheeger(g: WeightedGraph) -> CheegerResult:
    """Cheeger constant by the route the edges allow: interval on ring-shaped
    graphs, exact enumeration up to EXACT_BUDGET vertices, else the sandwich."""
    if g.ring_weights is not None:
        return cheeger_interval(g)
    if g.num_vertices <= EXACT_BUDGET:
        return cheeger_exact(g)
    return cheeger_sweep(g)


def check_cheeger_inequality(
    g: WeightedGraph,
    d_n: float | None = None,
    tol: float = 1e-9,
    result: CheegerResult | None = None,
    spectral: SpectralResult | None = None,
) -> bool:
    """Verify 2*C_G >= lambda_G >= C_G^2 / (2 D_N) within additive tolerance.

    For a sandwiched Cheeger result the check uses 2*upper >= lambda and
    lambda >= lower^2/(2 D_N).  Violations are logged and return False.
    """
    if d_n is None:
        d_n = normalized_degree(g)
    if result is None:
        result = cheeger(g)
    if spectral is None:
        spectral = algebraic_connectivity(g)
    lam = spectral.lam
    if math.isinf(result.upper):  # single vertex: no constraint to check
        return True
    ok_upper = 2.0 * result.upper >= lam - tol
    ok_lower = lam >= result.lower**2 / (2.0 * d_n) - tol
    if not (ok_upper and ok_lower):
        import logging  # only here: importing it costs about 0.5 MB

        logging.getLogger(__name__).warning(
            "Cheeger inequality violated: lambda=%.17g cheeger=[%.17g, %.17g] D_N=%.17g",
            lam,
            result.lower,
            result.upper,
            d_n,
        )
    return bool(ok_upper and ok_lower)


def graph_to_dict(g: WeightedGraph) -> dict:
    """Deterministic serialization: vertices ascending, edges lexicographic."""
    label = list(g.labels)
    ends = zip(g.u.tolist(), g.v.tolist(), g.w.tolist())
    return {
        "V": label,
        "vertexWeights": g.vertex_weights.tolist(),
        "edges": [[label[u], label[v], w] for u, v, w in ends],
    }


def graph_from_dict(d: dict) -> WeightedGraph:
    labels = tuple(d["V"])
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise InvalidWeightError("vertex labels must be distinct")
    try:
        edges = [(pos[u], pos[v], w) for u, v, w in d["edges"]]
    except KeyError as exc:
        raise InvalidWeightError(f"edge endpoint {exc.args[0]!r} is not a vertex label") from None
    return WeightedGraph(d["vertexWeights"], edges, labels)


def graph_to_json(g: WeightedGraph) -> str:
    return json.dumps(graph_to_dict(g), separators=(",", ":"), sort_keys=True)


def graph_from_json(text: str) -> WeightedGraph:
    return graph_from_dict(json.loads(text))
