"""Weighted graphs: connectivity, Cheeger constants, Laplacians, spectral gaps.

The Cheeger value of a cut S is (boundary edge weight) / (vertex weight of S),
minimized over nonempty proper subsets whose volume is at most half the total.
`cheeger` picks one of three routes from the graph's own edges: ring-shaped
graphs (every edge (i, i+1) or, with n > 2, (0, n-1)) take the interval
reduction at any size; other graphs get exact subset enumeration up to
EXACT_BUDGET vertices, then a spectral sweep producing a certified
[lambda/2-derived lower, sweep-cut upper] sandwich.

The interval reduction is O(n^2) arithmetic in numpy blocks of at most _CHUNK
cells, with O(n + _CHUNK) memory; witness tuples are built only for cuts that
equal the running minimum.

Exact and interval enumeration accumulate vertex/edge sums in ascending index
order so that both return bit-identical values whenever both apply.  Exact
enumeration reads volumes from a doubling table over the low 16 vertex bits
and continues over the high bits one chunk of 2^16 masks at a time.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidWeightError,
    TopologyError,
)

logger = logging.getLogger(__name__)

EXACT_ENUMERATION = "ExactEnumeration"
INTERVAL_REDUCTION = "IntervalReduction"
SPECTRAL_SWEEP = "SpectralSweepSandwich"

#: largest vertex count for exact 2^(n-1)-cut enumeration
EXACT_BUDGET = 24
_CHUNK = 1 << 18
#: cheeger_exact tabulates this many low vertex bits: 2^16 masks per chunk
_EXACT_LOW_BITS = 16


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
    def ring_weights(self) -> np.ndarray | None:
        """ew[i] = weight of edge (i, i+1 mod n), 0 when absent; None unless the
        graph is ring-shaped (every edge (i, i+1) or, with n > 2, (0, n-1))."""
        n = self.num_vertices
        step = self.v - self.u
        unit = step == 1
        if not (unit | (step == n - 1)).all():  # only (0, n-1) has step n-1 > 1
            return None
        ew = np.zeros(n)
        ew[np.where(unit, self.u, self.v)] = self.w
        ew.setflags(write=False)
        return ew

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


def cheeger_exact(g: WeightedGraph, budget: int = EXACT_BUDGET) -> CheegerResult:
    """Exact Cheeger constant by enumeration of all 2^(n-1) cuts.

    Ties between optimal cuts are broken toward the lexicographically
    smallest witness vertex set.  Volumes add member weights in ascending
    vertex order and boundaries add cut edge weights in edge-list order, so
    values match cheeger_interval bit for bit.  Memory is O(n * 2^16): one
    table over the low vertex bits plus one chunk of masks.
    """
    if g.is_empty:
        raise EmptyGraphError("Cheeger constant of the empty graph is undefined")
    n = g.num_vertices
    if n > budget:
        raise BudgetExceededError(f"{n} vertices exceeds exact budget {budget}")
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


def cheeger_interval(g: WeightedGraph) -> CheegerResult:
    """Exact Cheeger constant of a ring-shaped graph.

    A graph without the wrap edge is a path, otherwise a cycle.  On such
    graphs every optimal cut may be assumed connected (a contiguous interval,
    or an arc for cycles), so enumerating intervals is exhaustive.

    The O(n^2) candidate cuts are evaluated in numpy blocks of start rows,
    each of at most _CHUNK cells, so memory stays O(n + _CHUNK).  Member
    tuples are built only for cells equal to the running minimum; ties go to
    the lexicographically smallest witness, as in cheeger_exact.  Volumes are
    sums in ascending index order (running sums from the interval's left end;
    arcs below EXACT_BUDGET add [0..j] then [k..n-1] member by member), so
    values and witnesses match cheeger_exact bit-for-bit wherever both run.
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
    total = g.total_volume()
    half = 0.5 * total

    best = math.inf
    best_witness: tuple[int, ...] | None = None

    def consider(bd, vol, cut, members, row: int) -> None:
        # One block of candidate cuts.  Among the rows holding the running
        # minimum, `row` (0 or -1) is the one whose cuts compare smallest, and
        # within a row the first hit compares smallest; members(r, c) builds
        # the cut at row r, column c.
        nonlocal best, best_witness
        cut &= vol <= half
        ratio = np.divide(bd, vol, out=np.full(vol.shape, math.inf), where=cut)
        low = ratio.min()
        if math.isinf(low) or low > best:
            return
        if low < best:
            best, best_witness = low, None
        hit = ratio == best
        r = int(np.flatnonzero(hit.any(axis=1))[row])
        cand = members(r, int(hit[r].argmax()))
        if best_witness is None or cand < best_witness:
            best_witness = cand

    block_rows = max(1, _CHUNK // n)
    for k0 in range(0, n, block_rows):
        # intervals [k..ell] for k in the block and ell >= k: zeros before
        # column k make each running sum exactly w[k] + ... + w[ell]
        ks = np.arange(k0, min(k0 + block_rows, n))[:, None]
        cut = np.arange(k0, n) >= ks
        vol = np.cumsum(np.where(cut, w[k0:], 0.0), axis=1)
        if k0 == 0:
            cut[0, -1] = False  # full vertex set is not a cut
        # ew[-1] is the wrap edge (0 on a path) bounding intervals at 0 or n-1
        bd = ew[ks - 1] + ew[k0:]
        # an interval starting at a smaller k compares smaller: first row
        consider(bd, vol, cut, lambda r, c: tuple(range(k0 + r, k0 + c + 1)), 0)

    if ew[-1] > 0.0:
        # arcs wrapping through the (0, n-1) edge: [0..j] followed by [k..n-1]
        # with k >= j + 2.  Below the exact-enumeration budget, volumes are
        # accumulated member by member in ascending order so values match
        # cheeger_exact bitwise; the faster complement-subtraction route is
        # only mathematically equal.
        csum = np.concatenate(([0.0], np.cumsum(w)))
        for j0 in range(0, n - 2, block_rows):
            js = np.arange(j0, min(j0 + block_rows, n - 2))[:, None]
            ks = np.arange(j0 + 2, n)
            if n <= EXACT_BUDGET:
                vol = np.repeat(csum[js + 1], ks.size, axis=1)
                for i in range(j0 + 2, n):
                    vol[:, : i - j0 - 1] += w[i]  # columns with k <= i
            else:
                vol = total - (csum[ks] - csum[js + 1])
            bd = ew[js] + ew[ks - 1]
            # a larger j puts j + 1 < k at position j + 1: the last row is smallest
            consider(
                bd,
                vol,
                ks >= js + 2,
                lambda r, c: tuple(range(j0 + r + 1)) + tuple(range(j0 + c + 2, n)),
                -1,
            )

    assert best_witness is not None
    witness = tuple(g.labels[i] for i in best_witness)
    return CheegerResult(float(best), float(best), INTERVAL_REDUCTION, witness)


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


def algebraic_connectivity(g: WeightedGraph) -> SpectralResult:
    """Spectral gap of the weighted normalized Laplacian.

    The reported value is the minimum of the Rayleigh quotient over the
    subspace orthogonal to S^(1/2) 1, computed by deflating that direction
    before the dense symmetric eigensolve; the eigenvector is returned in
    the w-weighted convention (unit l2(V,w) norm, first nonzero entry
    positive) so its weighted inner product with the constant vector is 0.
    """
    if g.is_empty:
        raise EmptyGraphError("spectrum of the empty graph is undefined")
    n = g.num_vertices
    if n == 1:
        return SpectralResult(math.inf, None)
    m = normalized_laplacian(g)
    s_half = np.sqrt(g.vertex_weights)
    q = _orthogonal_complement_basis(s_half)
    reduced = q.T @ m @ q
    reduced = 0.5 * (reduced + reduced.T)
    evals, evecs = np.linalg.eigh(reduced)
    lam = max(float(evals[0]), 0.0)
    y = q @ evecs[:, 0]
    z = y / s_half
    z /= math.sqrt(float(np.sum(g.vertex_weights * z * z)))
    size = np.abs(z)
    if z[np.argmax(size > 1e-12 * size.max())] < 0.0:
        z = -z
    return SpectralResult(lam, z)


def rayleigh_quotient(g: WeightedGraph, z: np.ndarray) -> float:
    """Edge energy over weighted vertex norm for a graph signal z."""
    num = float(np.sum(g.w * np.abs(z[g.u] - z[g.v]) ** 2))
    return num / float(np.sum(g.vertex_weights * np.abs(z) ** 2))


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
        logger.warning(
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
