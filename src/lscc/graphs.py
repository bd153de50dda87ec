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
order so that both return bit-identical values whenever both apply.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex- and edge-weighted graph; all retained weights strictly positive.

    Edges use positional vertex indices (u < v) and are stored in ascending
    lexicographic order.  `labels` carries the original vertex identifiers of
    an induced subgraph (defaults to 0..n-1).
    """

    vertex_weights: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.vertex_weights, dtype=np.float64)
        object.__setattr__(self, "vertex_weights", w)
        w.setflags(write=False)
        n = w.size
        if n and (not np.all(np.isfinite(w)) or np.any(w <= 0.0)):
            raise InvalidWeightError("vertex weights must be finite and positive")
        seen = set()
        edges = []
        for u, v, ew in self.edges:
            if u == v:
                raise InvalidWeightError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidWeightError(f"edge ({u},{v}) outside vertex range")
            if (u, v) in seen:
                raise InvalidWeightError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            ew = float(ew)
            if not math.isfinite(ew) or ew <= 0.0:
                raise InvalidWeightError(f"edge ({u},{v}) weight must be positive")
            edges.append((u, v, ew))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(n)))
        elif len(self.labels) != n:
            raise InvalidWeightError("labels length must match vertex count")

    @property
    def num_vertices(self) -> int:
        return self.vertex_weights.size

    @property
    def is_empty(self) -> bool:
        return self.num_vertices == 0

    def total_volume(self) -> float:
        acc = 0.0
        for wv in self.vertex_weights:
            acc += wv
        return acc

    def scaled(self, c: float) -> "WeightedGraph":
        return WeightedGraph(
            self.vertex_weights * c,
            tuple((u, v, w * c) for u, v, w in self.edges),
            self.labels,
        )


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
    """BFS over retained edges."""
    if g.is_empty:
        raise EmptyGraphError("connectivity of the empty graph is undefined")
    n = g.num_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


def _singleton_result(g: WeightedGraph, method: str) -> CheegerResult:
    # no nonempty proper subset exists: the infimum over an empty family
    return CheegerResult(math.inf, math.inf, method, witness=())


def cheeger_exact(g: WeightedGraph, budget: int = EXACT_BUDGET) -> CheegerResult:
    """Exact Cheeger constant by enumeration of all 2^(n-1) cuts.

    Ties between optimal cuts are broken toward the lexicographically
    smallest witness vertex set.
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

    top = 1 << (n - 1)  # vertex n-1 always on the complement side
    for start in range(1, top, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, top), dtype=np.int64)
        bits = [((masks >> i) & 1).astype(np.float64) for i in range(n - 1)]
        vol_s = np.zeros(masks.size)
        vol_c = np.zeros(masks.size)
        for i in range(n - 1):
            vol_s += w[i] * bits[i]
            vol_c += w[i] * (1.0 - bits[i])
        vol_c += w[n - 1]
        bd = np.zeros(masks.size)
        for u, v, ew in g.edges:
            bu = bits[u] if u < n - 1 else 0.0
            bv = bits[v] if v < n - 1 else 0.0
            bd += ew * np.abs(bu - bv)
        ratio_s = np.where(vol_s <= half, bd / vol_s, math.inf)
        ratio_c = np.where(vol_c <= half, bd / vol_c, math.inf)
        chunk_min = min(ratio_s.min(), ratio_c.min())
        if chunk_min > best:
            continue
        if chunk_min < best:
            best = float(chunk_min)
            best_witness = None
        for side, ratios in ((True, ratio_s), (False, ratio_c)):
            for idx in np.flatnonzero(ratios == best):
                m = int(masks[idx])
                if side:
                    members = tuple(i for i in range(n - 1) if (m >> i) & 1)
                else:
                    members = tuple(i for i in range(n - 1) if not (m >> i) & 1) + (n - 1,)
                if best_witness is None or members < best_witness:
                    best_witness = members

    assert best_witness is not None
    witness = tuple(g.labels[i] for i in best_witness)
    return CheegerResult(best, best, EXACT_ENUMERATION, witness)


def _ring_weights(g: WeightedGraph) -> np.ndarray | None:
    """ew[i] = weight of edge (i, i+1 mod n), 0 when absent; None unless the
    graph is ring-shaped (every edge (i, i+1) or, with n > 2, (0, n-1))."""
    n = g.num_vertices
    ew = np.zeros(n)
    for u, v, w_e in g.edges:
        if v == u + 1:
            ew[u] = w_e
        elif u == 0 and v == n - 1 and n > 2:
            ew[v] = w_e
        else:
            return None
    return ew


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
    ew = _ring_weights(g)
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


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense symmetric L = D - A; row sums are zero."""
    n = g.num_vertices
    lap = np.zeros((n, n))
    for u, v, w_e in g.edges:
        lap[u, v] -= w_e
        lap[v, u] -= w_e
        lap[u, u] += w_e
        lap[v, v] += w_e
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
    if np.any(g.vertex_weights <= 0.0):
        raise InvalidWeightError("zero vertex weight reached the eigensolver")
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
    for zi in z:
        if abs(zi) > 1e-12 * np.max(np.abs(z)):
            if zi < 0.0:
                z = -z
            break
    return SpectralResult(lam, z)


def rayleigh_quotient(g: WeightedGraph, z: np.ndarray) -> float:
    """Edge energy over weighted vertex norm for a graph signal z."""
    num = 0.0
    for u, v, w_e in g.edges:
        num += w_e * abs(z[u] - z[v]) ** 2
    den = float(np.sum(g.vertex_weights * np.abs(z) ** 2))
    return num / den


def normalized_degree(g: WeightedGraph) -> float:
    """max_v sum_u w_uv / w_v, the degree bound entering the Cheeger inequality."""
    n = g.num_vertices
    acc = np.zeros(n)
    for u, v, w_e in g.edges:
        acc[u] += w_e
        acc[v] += w_e
    return float(np.max(acc / g.vertex_weights)) if n else 0.0


def cheeger_sweep(g: WeightedGraph) -> CheegerResult:
    """Certified Cheeger sandwich from the connectivity eigenvector.

    Upper bound: best of the n-1 prefix cuts in eigenvector order.  Lower
    bound: lambda/2, valid by the Cheeger inequality.
    """
    if g.num_vertices < 2:
        raise EmptyGraphError("sweep needs at least two vertices")
    spec = algebraic_connectivity(g)
    order = np.argsort(spec.fiedler, kind="stable")
    w = g.vertex_weights
    total = g.total_volume()
    half = 0.5 * total

    in_s = np.zeros(g.num_vertices, dtype=bool)
    vol = 0.0
    best = math.inf
    best_members: tuple[int, ...] = ()
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.num_vertices)]
    for u, v, w_e in g.edges:
        adj[u].append((v, w_e))
        adj[v].append((u, w_e))
    bd = 0.0
    for i in range(g.num_vertices - 1):
        u = int(order[i])
        in_s[u] = True
        vol += w[u]
        for v, w_e in adj[u]:
            bd += -w_e if in_s[v] else w_e
        small_side_in_s = vol <= half
        denom = vol if small_side_in_s else total - vol
        ratio = bd / denom
        if ratio < best:
            best = ratio
            if small_side_in_s:
                best_members = tuple(int(x) for x in np.flatnonzero(in_s))
            else:
                best_members = tuple(int(x) for x in np.flatnonzero(~in_s))
    lower = min(0.5 * spec.lam, best)
    witness = tuple(g.labels[i] for i in best_members)
    return CheegerResult(lower, best, SPECTRAL_SWEEP, witness)


def cheeger(g: WeightedGraph) -> CheegerResult:
    """Cheeger constant by the route the edges allow: interval on ring-shaped
    graphs, exact enumeration up to EXACT_BUDGET vertices, else the sandwich."""
    if _ring_weights(g) is not None:
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
    return {
        "V": label,
        "vertexWeights": [float(x) for x in g.vertex_weights],
        "edges": [[label[u], label[v], float(w)] for u, v, w in g.edges],
    }


def graph_from_dict(d: dict) -> WeightedGraph:
    labels = tuple(d["V"])
    pos = {lab: i for i, lab in enumerate(labels)}
    edges = tuple((pos[u], pos[v], float(w)) for u, v, w in d["edges"])
    return WeightedGraph(np.asarray(d["vertexWeights"], dtype=np.float64), edges, labels)


def graph_to_json(g: WeightedGraph) -> str:
    return json.dumps(graph_to_dict(g), separators=(",", ":"), sort_keys=True)


def graph_from_json(text: str) -> WeightedGraph:
    return graph_from_dict(json.loads(text))
