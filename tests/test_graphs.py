import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lscc.graphs

from lscc.errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidWeightError,
    TopologyError,
)
from lscc.graphs import (
    EXACT_BUDGET,
    WeightedGraph,
    algebraic_connectivity,
    check_cheeger_inequality,
    cheeger,
    cheeger_exact,
    cheeger_interval,
    cheeger_sweep,
    graph_from_dict,
    graph_from_json,
    graph_to_json,
    is_connected,
    laplacian,
    normalized_degree,
    normalized_laplacian,
)


def unweighted_cycle(n):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1, 1.0))
    return WeightedGraph(np.ones(n), tuple(edges))


def unweighted_path(n):
    return WeightedGraph(np.ones(n), tuple((i, i + 1, 1.0) for i in range(n - 1)))


def scalar_cheeger_interval(g):
    """Reference (value, witness) of the interval reduction: the plain scalar
    double loop, one member tuple per admissible interval or arc."""
    n = g.num_vertices
    if n == 1:
        return math.inf, ()
    ew = np.zeros(n)
    for u, v, w_e in g.edges:
        ew[u if v == u + 1 else v] = w_e
    w = g.vertex_weights
    half = 0.5 * g.total_volume()
    best = math.inf
    best_witness = None

    def consider(ratio, members):
        nonlocal best, best_witness
        if ratio < best:
            best = ratio
            best_witness = members
        elif ratio == best and (best_witness is None or members < best_witness):
            best_witness = members

    for k in range(n):
        acc = 0.0
        for ell in range(k, n):
            acc += w[ell]
            if k == 0 and ell == n - 1:
                continue
            if acc > half:
                continue
            consider((ew[k - 1] + ew[ell]) / acc, tuple(range(k, ell + 1)))

    if ew[-1] > 0.0:
        small = n <= EXACT_BUDGET
        total = g.total_volume()
        csum = np.concatenate(([0.0], np.cumsum(w)))
        for j in range(n - 2):
            for k in range(j + 2, n):
                if small:
                    acc = 0.0
                    for i in range(j + 1):
                        acc += w[i]
                    for i in range(k, n):
                        acc += w[i]
                else:
                    acc = total - float(csum[k] - csum[j + 1])
                if acc > half:
                    continue
                bd = ew[j] + ew[k - 1]
                consider(bd / acc, tuple(range(j + 1)) + tuple(range(k, n)))

    return float(best), tuple(g.labels[i] for i in best_witness)


def block_cheeger_interval(g, chunk=1 << 18):
    """Reference (value, witness) of a ring: the O(n^2) block enumeration that
    was the interval route, every interval and arc scored in numpy blocks of
    at most `chunk` cells.  Volumes are running sums from the interval's left
    end; arcs add [0..j] then [k..n-1] member by member up to EXACT_BUDGET
    vertices and use the complement of a prefix difference above."""
    n = g.num_vertices
    if n == 1:
        return math.inf, ()
    ew = g.ring_weights
    w = g.vertex_weights
    total = g.total_volume()
    half = 0.5 * total
    best, best_witness = math.inf, None

    def consider(bd, vol, cut, members, row):
        # among the rows holding the running minimum, `row` (0 or -1) holds
        # the smallest cut, and the first hit within a row is smallest
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

    block_rows = max(1, chunk // n)
    for k0 in range(0, n, block_rows):
        ks = np.arange(k0, min(k0 + block_rows, n))[:, None]
        cut = np.arange(k0, n) >= ks
        vol = np.cumsum(np.where(cut, w[k0:], 0.0), axis=1)
        if k0 == 0:
            cut[0, -1] = False  # the full vertex set is not a cut
        bd = ew[ks - 1] + ew[k0:]
        consider(bd, vol, cut, lambda r, c: tuple(range(k0 + r, k0 + c + 1)), 0)
    if ew[-1] > 0.0:
        csum = np.concatenate(([0.0], np.cumsum(w)))
        for j0 in range(0, n - 2, block_rows):
            js = np.arange(j0, min(j0 + block_rows, n - 2))[:, None]
            ks = np.arange(j0 + 2, n)
            if n <= EXACT_BUDGET:
                vol = np.repeat(csum[js + 1], ks.size, axis=1)
                for i in range(j0 + 2, n):
                    vol[:, : i - j0 - 1] += w[i]
            else:
                vol = total - (csum[ks] - csum[js + 1])
            bd = ew[js] + ew[ks - 1]
            consider(
                bd,
                vol,
                ks >= js + 2,
                lambda r, c: tuple(range(j0 + r + 1)) + tuple(range(j0 + c + 2, n)),
                -1,
            )
    return float(best), tuple(g.labels[i] for i in best_witness)


def running_ratio(g, members):
    """Boundary over volume of a vertex set, its volume added one member at a
    time in ascending order, its boundary edge by edge in list order."""
    inside = set(members)
    vol = np.cumsum(g.vertex_weights[sorted(inside)])[-1]
    bd = 0.0
    for u, v, w_e in g.edges:
        if (u in inside) != (v in inside):
            bd += w_e
    return float(bd / vol)


def rayleigh_quotient(g, z):
    """Edge energy over weighted vertex norm for a graph signal z."""
    num = float(np.sum(g.w * np.abs(z[g.u] - z[g.v]) ** 2))
    return num / float(np.sum(g.vertex_weights * np.abs(z) ** 2))


def scalar_total_volume(g):
    """Reference total volume: vertex weights added one by one in index order."""
    acc = 0.0
    for wv in g.vertex_weights:
        acc += wv
    return acc


def scalar_degrees(g):
    """Reference weighted degrees: each edge adds to u, then v, in list order."""
    acc = np.zeros(g.num_vertices)
    for u, v, w_e in g.edges:
        acc[u] += w_e
        acc[v] += w_e
    return acc


def scalar_laplacian(g):
    """Reference D - A, built entry by entry one edge at a time."""
    n = g.num_vertices
    lap = np.zeros((n, n))
    for u, v, w_e in g.edges:
        lap[u, v] -= w_e
        lap[v, u] -= w_e
        lap[u, u] += w_e
        lap[v, v] += w_e
    return lap


def scalar_normalized_degree(g):
    n = g.num_vertices
    return float(np.max(scalar_degrees(g) / g.vertex_weights)) if n else 0.0


def scalar_ring_weights(g):
    """Reference ring weights: ew[i] for edge (i, i+1), ew[n-1] for the wrap
    edge (0, n-1) with n > 2, None as soon as an edge is neither."""
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


def scalar_is_connected(g):
    """Reference connectivity: depth-first search over adjacency lists."""
    adj = [[] for _ in range(g.num_vertices)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.num_vertices


def scalar_cheeger_sweep(g):
    """Reference (upper, witness) of the sweep: vertices join S in Fiedler
    order, and each one walks its adjacency list to update the boundary."""
    order = np.argsort(algebraic_connectivity(g).fiedler, kind="stable")
    w = g.vertex_weights
    total = g.total_volume()
    adj = [[] for _ in range(g.num_vertices)]
    for u, v, w_e in g.edges:
        adj[u].append((v, w_e))
        adj[v].append((u, w_e))
    in_s = np.zeros(g.num_vertices, dtype=bool)
    vol, bd, best, members = 0.0, 0.0, math.inf, ()
    for i in range(g.num_vertices - 1):
        u = int(order[i])
        in_s[u] = True
        vol += w[u]
        for v, w_e in adj[u]:
            bd += -w_e if in_s[v] else w_e
        small = vol <= 0.5 * total
        ratio = bd / (vol if small else total - vol)
        if ratio < best:
            best, members = ratio, tuple(np.flatnonzero(in_s if small else ~in_s).tolist())
    return float(best), tuple(g.labels[i] for i in members)


def random_ring_graph(rng, n, style):
    """Path or cycle on n vertices with edges dropped; style 0 draws
    continuous weights, 1 small integers, 2 unit vertices (tie-prone)."""
    ring = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    keep = rng.choice([1.0, 0.97, 0.8])
    if rng.random() < 0.3:
        ring = ring[: n - 1]  # a path
    kept = [e for e in ring if rng.random() < keep]
    if style == 0:
        w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, len(kept))
    elif style == 1:
        w = rng.integers(1, 4, n).astype(float)
        ew = rng.integers(1, 4, len(kept)).astype(float)
    else:
        w, ew = np.ones(n), np.full(len(kept), rng.choice([0.1, 1.0]))
    return WeightedGraph(w, tuple((u, v, float(x)) for (u, v), x in zip(kept, ew)))


def weighted_ring(rng, n, kind, cycle):
    """Path or cycle on n vertices.  Kinds: random, uniform, integer (tie
    prone), poly (weights decaying as (1 + distance)^-2 from the middle of a
    path or from vertex 0 of a cycle) and island (five vertices of weight
    ~1e-9 at n // 2, cut off by edges of weight ~1e-21)."""
    m = n if cycle and n > 2 else n - 1
    if kind == "random":
        w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, m)
    elif kind == "uniform":
        w, ew = np.ones(n), np.ones(m)
    elif kind == "integer":
        w, ew = rng.integers(1, 4, n).astype(float), rng.integers(1, 4, m).astype(float)
    elif kind == "poly":
        far = np.abs(np.arange(n + 1) - n // 2) + 1.0
        w, ew = far[:n] ** -2.0, np.maximum(far[:m], far[1 : m + 1]) ** -2.0
        if cycle:  # heaviest at vertex 0, so the light arc does not wrap
            w, ew = np.roll(w, -(n // 2)), np.roll(ew, -(n // 2))
    else:
        w, ew = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
        a = n // 2
        w[a : a + 5] = 1e-9 * rng.uniform(1.0, 2.0, 5)
        ew[[a - 1, a + 4]] = 1e-21 * rng.uniform(1.0, 2.0, 2)
        # dropping the last island vertex raises the ratio by only ~1e-10
        w[a + 4], ew[a + 3] = 1e-18, ew[a + 4]
    edges = [(i, i + 1, float(ew[i])) for i in range(n - 1)]
    if m == n:
        edges.append((0, n - 1, float(ew[n - 1])))
    return WeightedGraph(w, tuple(edges))


RING_KINDS = ("random", "uniform", "integer", "poly", "island")


def grid_cheeger_small(g):
    """Reference (value, witness) of a ring of at most EXACT_BUDGET vertices:
    the grid route that cheeger_interval took there before it scored every
    arc in one pass.  Windows from compensated prefix sums, arcs within 2^-45
    of half the volume kept or dropped by their running sums, every slot of
    the window grid scored, the arcs within 2^-40 of the least re-scored by
    running sums, ties to the smallest member tuple."""
    n, ew, w = g.num_vertices, g.ring_weights, g.vertex_weights
    if n == 1:
        return math.inf, ()
    band, margin = 2.0**-45, 2.0**-40

    def running(s, e):
        members = w[s : e + 1] if e < n else np.concatenate((w[: e - n + 1], w[s:]))
        return float(members.cumsum()[-1])

    if ew[-1] > 0.0:
        ends = 2 * n - 2
        step = np.concatenate(((0.0,), w, w[: n - 2]))
        ewd = np.concatenate((ew, ew[: n - 2]))
    else:
        ends, step, ewd = n, np.concatenate(((0.0,), w)), ew.copy()
    ewp = np.concatenate((ew[-1:], ew[:-1]))
    hi = np.add.accumulate(step)
    z = hi[1:] - hi[:-1]
    step[1:] = (hi[:-1] - (hi[1:] - z)) + (step[1:] - z)
    lo = np.add.accumulate(step)
    p = hi + 1j * lo

    def vol(s, e):
        d = p[e + 1] - p[s]
        return d.real + d.imag

    half = 0.5 * g.total_volume()
    rounded = hi + lo
    first = rounded[:n].searchsorted(rounded[1:] - (1.0 + band) * half)
    last = np.minimum(np.arange(ends), n - 1)
    v = vol(first, np.arange(ends))
    while np.count_nonzero(near := (first <= last) & (v > (1.0 - band) * half)):
        over = near & (v > half)
        for e in near.nonzero()[0].tolist():
            if v[e] <= (1.0 + band) * half:
                over[e] = running(int(first[e]), e) > half
        if not np.count_nonzero(over):
            break
        first[over] += 1
        v = vol(first, np.arange(ends))
    if np.count_nonzero(dead := first > last):
        ewd[dead] = math.inf
        first[dead] = last[dead]
    width = int((last - first).max()) + 1
    grid = first[:, None] + np.arange(width)
    s_slot = np.minimum(grid, last[:, None])
    d = p[1:, None] - p[s_slot]
    bd = np.where(grid <= last[:, None], ewd[:, None], math.inf) + ewp[s_slot]
    ratio = (bd / (d.real + d.imag)).ravel()
    hit = (ratio <= ratio[ratio.argmin()] * (1.0 + margin)).nonzero()[0]
    s, e = s_slot.ravel()[hit], hit // width
    ratio = (ewp[s] + ewd[e]) / np.array([running(x, y) for x, y in zip(s.tolist(), e.tolist())])
    best = (ratio == ratio[ratio.argmin()]).nonzero()[0]
    wrap = e[best] >= n
    group = np.where(wrap, 1, np.where(s[best] == 0, 0, 2))
    major = np.where(wrap, n - e[best], np.where(s[best] == 0, e[best], s[best]))
    i = best[np.lexsort((np.where(wrap, s[best], e[best]), major, group))][0]
    s, e = int(s[i]), int(e[i])
    members = range(s, e + 1) if e < n else [*range(e - n + 1), *range(s, n)]
    return float(ratio[i]), tuple(g.labels[k] for k in members)


def chunked_cheeger_exact(g, chunk=1 << 18):
    """Reference (value, witness) of exact enumeration: the mask-chunk loop
    that adds w[i] * bit and ew * |bit_u - bit_v| row by row over float bit
    arrays of every mask in the chunk."""
    n = g.num_vertices
    w = g.vertex_weights
    half = 0.5 * g.total_volume()
    best, best_witness = math.inf, None
    top = 1 << (n - 1)
    for start in range(1, top, chunk):
        masks = np.arange(start, min(start + chunk, top), dtype=np.int64)
        bits = ((masks >> np.arange(n)[:, None]) & 1).astype(np.float64)
        vol_s, vol_c = np.zeros(masks.size), np.zeros(masks.size)
        for i in range(n - 1):
            vol_s += w[i] * bits[i]
            vol_c += w[i] * (1.0 - bits[i])
        vol_c += w[n - 1]
        bd = np.zeros(masks.size)
        for u, v, ew in g.edges:
            bd += ew * np.abs(bits[u] - bits[v])
        ratio_s = np.where(vol_s <= half, bd / vol_s, math.inf)
        ratio_c = np.where(vol_c <= half, bd / vol_c, math.inf)
        chunk_min = min(ratio_s.min(), ratio_c.min())
        if chunk_min > best:
            continue
        if chunk_min < best:
            best, best_witness = float(chunk_min), None
        for side, ratios in ((True, ratio_s), (False, ratio_c)):
            for idx in np.flatnonzero(ratios == best):
                m = int(masks[idx])
                if side:
                    members = tuple(i for i in range(n - 1) if (m >> i) & 1)
                else:
                    members = tuple(i for i in range(n - 1) if not (m >> i) & 1) + (n - 1,)
                if best_witness is None or members < best_witness:
                    best_witness = members
    return best, best_witness


def random_sparse_graph(rng, n, ties):
    """Each pair an edge with probability 0.3 (chords, and often several
    components); ties draws small integer weights."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    if ties:
        w = rng.integers(1, 4, n).astype(float)
        ew = rng.integers(1, 3, len(pairs)).astype(float)
    else:
        w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, len(pairs))
    return WeightedGraph(w, tuple((u, v, float(x)) for (u, v), x in zip(pairs, ew)))


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges, positive random weights."""
    edges = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = int(order[i]), int(order[int(rng.integers(0, i))])
        edges[(min(u, v), max(u, v))] = float(rng.uniform(0.1, 3.0))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)))
    weights = rng.uniform(0.2, 4.0, n)
    return WeightedGraph(weights, tuple((u, v, w) for (u, v), w in edges.items()))


class TestConstruction:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WeightedGraph(np.array([1.0, 0.0]), ((0, 1, 1.0),)), "finite and positive"),
            (lambda: WeightedGraph(np.ones((2, 2)), ((0, 1, 1.0),)), "1-D array"),
            (lambda: WeightedGraph(np.ones(2), ((0, 0, 1.0),)), "self-loop at vertex 0"),
            (
                lambda: WeightedGraph(np.ones(2), ((0, 1, 1.0), (1, 0, 2.0))),
                r"duplicate edge \(0,1\)",
            ),
            (lambda: WeightedGraph(np.ones(3), ((0.5, 1, 1.0),)), "must be integers"),
            (lambda: WeightedGraph(np.ones(3), ((0, 1, math.nan),)), "weight must be positive"),
            (lambda: WeightedGraph(np.ones(3), ((0, 1, math.inf),)), "weight must be positive"),
            (lambda: WeightedGraph(np.ones(3), ((1, 3, 1.0),)), "outside vertex range"),
            (lambda: WeightedGraph(np.ones(3), ((-1, 2, 1.0),)), "outside vertex range"),
            (lambda: WeightedGraph(np.ones(3), ((0, 1),)), r"\(u, v, w\) triples"),
            (lambda: WeightedGraph(np.ones(3), ((0, 1, 1.0, 5),) * 3), r"\(u, v, w\) triples"),
            (lambda: WeightedGraph(np.ones(2), (), labels=(4, 5, 6)), "labels length"),
            (
                lambda: WeightedGraph(np.ones(3), (np.arange(2), np.arange(1, 3), np.ones(1))),
                "one length",
            ),
            (
                lambda: graph_from_dict(
                    {"V": [7, 8], "vertexWeights": [1, 1], "edges": [[7, 9, 1]]}
                ),
                "9 is not a vertex label",
            ),
            (
                lambda: graph_from_dict({"V": [7, 7, 8], "vertexWeights": [1, 1, 1], "edges": []}),
                "distinct",
            ),
        ],
        ids=[
            "zero-weight",
            "2d-vertex-weights",
            "self-loop",
            "duplicate-edge",
            "fractional-endpoint",
            "nan-edge-weight",
            "inf-edge-weight",
            "index-too-large",
            "negative-index",
            "edge-not-a-triple",
            "four-element-rows",
            "labels-length",
            "column-lengths",
            "dict-unknown-label",
            "dict-duplicate-labels",
        ],
    )
    def test_rejects_invalid_input(self, build, message):
        with pytest.raises(InvalidWeightError, match=message):
            build()

    def test_edges_normalized_sorted(self):
        g = WeightedGraph(np.ones(3), ((2, 1, 1.0), (1, 0, 2.0)))
        assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))
        assert g.u.dtype == g.v.dtype == np.int64 and g.w.dtype == np.float64
        assert not (g.u.flags.writeable or g.v.flags.writeable or g.w.flags.writeable)

    def test_column_form_matches_rows(self):
        rows = ((2, 1, 1.5), (0, 2, 0.25), (1, 0, 2.0))
        u, v, w = (np.array(c) for c in zip(*rows))
        by_rows, by_columns = WeightedGraph(np.ones(3), rows), WeightedGraph(np.ones(3), (u, v, w))
        assert by_rows.edges == by_columns.edges == ((0, 1, 2.0), (0, 2, 0.25), (1, 2, 1.5))


def oracle_graphs(seed=0):
    """Paths and cycles (some with dropped edges), chorded cycles, random
    connected graphs and n = 1, 2, with weights spread over 16 decades so
    that a changed summation order changes the bits."""
    rng = np.random.default_rng(seed)

    def spread(size):
        return rng.uniform(1.0, 2.0, size) * 10.0 ** rng.integers(-8, 8, size)

    def reweighted(n, pairs):
        return WeightedGraph(spread(n), [(u, v, x) for (u, v), x in zip(pairs, spread(len(pairs)))])

    graphs = [reweighted(1, []), reweighted(2, [(0, 1)])]
    for n in range(3, 40):
        ring = random_ring_graph(rng, n, int(rng.integers(0, 3)))
        graphs.append(reweighted(n, [(u, v) for u, v, _ in ring.edges]))
        cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        chords = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(n // 2)}
        graphs.append(reweighted(n, sorted(set(cycle) | chords)))
        other = random_connected_graph(rng, n)
        graphs.append(reweighted(n, [(u, v) for u, v, _ in other.edges]))
    return graphs


class TestArrayWalkersMatchScalarOracles:
    """The array walkers keep the summation order of the per-edge loops they
    replaced, so every value is equal bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_volume_laplacian_degree_ring_weights(self, seed):
        rings = 0
        for g in oracle_graphs(seed):
            assert g.total_volume() == scalar_total_volume(g)
            assert laplacian(g).tobytes() == scalar_laplacian(g).tobytes()
            assert normalized_degree(g) == scalar_normalized_degree(g)
            expected = scalar_ring_weights(g)
            if expected is None:
                assert g.ring_weights is None
            else:
                rings += 1
                assert g.ring_weights.tobytes() == expected.tobytes()
        assert rings >= 30

    def test_connectivity_and_sweep(self):
        for g in oracle_graphs(2):
            assert is_connected(g) == scalar_is_connected(g)
            if g.num_vertices > 1:
                res = cheeger_sweep(g)
                assert (res.upper, res.witness) == scalar_cheeger_sweep(g)
        # a cycle missing one edge is a path; a chord makes the graph non-ring
        one_gap = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]
        split = [(0, 1), (0, 2), (3, 4), (4, 5)]
        assert is_connected(WeightedGraph(np.ones(6), [(u, v, 1.0) for u, v in one_gap]))
        assert not is_connected(WeightedGraph(np.ones(6), [(u, v, 1.0) for u, v in split]))

    def test_oracle_graphs_hit_order_sensitive_sums(self):
        # the spread weights make sequential and pairwise sums differ, so the
        # bitwise assertions above would see a reordered accumulation
        graphs = oracle_graphs(0)
        assert any(scalar_total_volume(g) != float(np.sum(g.vertex_weights[::-1])) for g in graphs)

        def by_end(g):
            n = g.num_vertices
            return np.bincount(g.v, g.w, n) + np.bincount(g.u, g.w, n)

        assert any(not np.array_equal(scalar_degrees(g), by_end(g)) for g in graphs)


class TestConnectivity:
    def test_toy_connected_weights(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0), (1, 2, 9.0)))
        assert is_connected(g)

    def test_toy_broken_weights(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0),))
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(WeightedGraph(np.ones(1), ()))

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            is_connected(WeightedGraph(np.zeros(0), ()))


class TestCheegerExact:
    def test_four_cycle(self):
        res = cheeger_exact(unweighted_cycle(4))
        assert res.upper == 1.0 and res.lower == 1.0
        assert res.witness == (0, 1)

    def test_two_path(self):
        res = cheeger_exact(unweighted_path(2))
        assert res.upper == 1.0
        assert res.witness == (0,)

    def test_disconnected_zero_with_component_witness(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        res = cheeger_exact(g)
        assert res.upper == 0.0
        assert set(res.witness) in ({0, 1}, {2, 3})

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cheeger_exact(unweighted_cycle(25))

    def test_single_vertex_infimum_over_empty_family(self):
        res = cheeger_exact(WeightedGraph(np.ones(1), ()))
        assert math.isinf(res.upper)

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            res = cheeger_exact(g)
            members = set(res.witness)
            vol = 0.0
            for i in sorted(members):
                vol += g.vertex_weights[i]
            bd = sum(w for (u, v, w) in g.edges if (u in members) != (v in members))
            assert vol <= 0.5 * g.total_volume() + 1e-12
            assert bd / vol == pytest.approx(res.upper, abs=1e-10)


    def test_tables_match_chunked_oracle(self, monkeypatch):
        # bit-identical value and witness to the mask-chunk loop, under the
        # default table and under a smaller one (2-16 high-bit chunks); the
        # optimal arcs of rings often hold vertex n-1 and high-bit members
        rng = np.random.default_rng(6)
        default = lscc.graphs._EXACT_LOW_BITS
        for trial in range(400):
            n = int(rng.integers(2, 15))
            kind = trial % 4
            if kind == 3:
                g = random_ring_graph(rng, n, 0)
            else:
                g = random_sparse_graph(rng, n, ties=kind == 1)
            if kind == 2 and n > 2:  # a path plus a chord
                chord = (0, int(rng.integers(2, n)), 0.5)
                g = WeightedGraph(g.vertex_weights, (*unweighted_path(n).edges, chord))
            low = default if rng.random() < 0.5 else max(1, n - 1 - int(rng.integers(1, 5)))
            monkeypatch.setattr(lscc.graphs, "_EXACT_LOW_BITS", low)
            res = cheeger_exact(g)
            assert (res.upper, res.witness) == chunked_cheeger_exact(g), (trial, n, low)

    def test_smallest_members_is_tuple_order(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            sets = rng.integers(1, 1 << 10, int(rng.integers(1, 30)))
            tuples = (tuple(i for i in range(10) if (x >> i) & 1) for x in sets.tolist())
            assert lscc.graphs._smallest_members(sets) == min(tuples)

    def test_many_tied_cuts_across_chunks(self):
        # every cut that keeps 0 and 2 together has boundary 0: ~2^18 ties
        g = WeightedGraph(np.ones(20), ((0, 2, 1.0),))
        res = cheeger_exact(g)
        assert (res.upper, res.witness) == (0.0, (0, 1, 2))

    def test_peak_memory_not_above_chunked_oracle(self):
        rng = np.random.default_rng(7)
        n = 22
        edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
        g = WeightedGraph(rng.uniform(0.2, 3.0, n), (*edges, (0, n // 2, 0.5)))
        peaks = []
        for route in (cheeger_exact, chunked_cheeger_exact):
            tracemalloc.start()
            try:
                route(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestCheegerInterval:
    def test_cycle_matches_exact_bitwise(self):
        rng = np.random.default_rng(1)
        for n in range(3, 13):
            weights = rng.uniform(0.2, 3.0, n)
            edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
            edges.append((0, n - 1, float(rng.uniform(0.1, 2.0))))
            g = WeightedGraph(weights, tuple(edges))
            assert cheeger_interval(g).upper == cheeger_exact(g).upper

    def test_path_matches_exact_bitwise(self):
        rng = np.random.default_rng(2)
        for n in range(2, 13):
            weights = rng.uniform(0.2, 3.0, n)
            edges = tuple((i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1))
            g = WeightedGraph(weights, edges)
            assert cheeger_interval(g).upper == cheeger_exact(g).upper

    def test_four_cycle(self):
        assert cheeger_interval(unweighted_cycle(4)).upper == 1.0

    def test_two_path(self):
        assert cheeger_interval(unweighted_path(2)).upper == 1.0

    def test_topology_mismatch(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        with pytest.raises(TopologyError):
            cheeger_interval(g)

    def test_cycle_closed_form_large(self):
        for L in (32, 48, 64):
            res = cheeger_interval(unweighted_cycle(L))
            assert res.upper == pytest.approx(2.0 / (L // 2), abs=1e-10)

    def test_ring_route_matches_exact(self):
        # rings with dropped edges (broken cycles, broken paths, disconnected
        # pieces), with continuous and tie-prone integer weights
        rng = np.random.default_rng(4)
        for trial in range(300):
            n = int(rng.integers(2, 13))
            ring = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
            kept = [e for e in ring if rng.random() < 0.8]
            if trial % 2:
                w = rng.uniform(0.2, 3.0, n)
                ew = rng.uniform(0.1, 2.0, len(kept))
            else:
                w = rng.integers(1, 4, n).astype(float)
                ew = rng.integers(1, 4, len(kept)).astype(float)
            g = WeightedGraph(w, tuple((u, v, float(x)) for (u, v), x in zip(kept, ew)))
            res, exact = cheeger(g), cheeger_exact(g)
            assert res.method == "IntervalReduction"
            assert res.value == exact.value
            if exact.value > 0.0:  # zero-value cuts of disconnected graphs tie widely
                assert res.witness == exact.witness

    def test_blocks_match_scalar_oracle(self):
        # the block oracle is bit-identical in value and witness to the scalar
        # double loop, across EXACT_BUDGET, under the default block size and
        # under blocks of 1-4 start rows (many blocks, a partial last block)
        rng = np.random.default_rng(5)
        for trial in range(500):
            n = int(rng.integers(1, 301) if trial % 50 == 0 else rng.integers(1, 41))
            g = random_ring_graph(rng, n, trial % 3)
            chunk = 1 << 18 if trial % 2 else int(rng.integers(1, 4 * n + 1))
            assert block_cheeger_interval(g, chunk) == scalar_cheeger_interval(g), (trial, n, chunk)

    def test_route_matches_scalar_oracle(self, backend):
        # the rings above through the route: bit-identical value and witness
        # up to EXACT_BUDGET, and at any size for the integer and unit
        # styles, whose sums are exact; above it continuous weights give the
        # value within 1e-13, and the same witness whenever the values agree
        rng = np.random.default_rng(5)
        for trial in range(500):
            n = int(rng.integers(1, 301) if trial % 50 == 0 else rng.integers(1, 41))
            g = random_ring_graph(rng, n, trial % 3)
            if trial % 2 == 0:
                rng.integers(1, 4 * n + 1)  # the block oracle's chunk draw
            res = cheeger_interval(g)
            value, witness = scalar_cheeger_interval(g)
            if n <= EXACT_BUDGET or trial % 3:
                assert (res.value, res.witness) == (value, witness), (trial, n)
            else:
                assert res.value == pytest.approx(value, rel=1e-13, abs=0.0), (trial, n)
                assert res.value != value or res.witness == witness, (trial, n)

    def test_large_cycle_tie_and_memory(self):
        # every 2048-arc of the unweighted 4096-cycle ties; the smallest
        # witness wins, and no n x n block (134 MB of float64) is formed
        n = 4096
        g = unweighted_cycle(n)
        tracemalloc.start()
        try:
            res = cheeger_interval(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == 4.0 / n
        assert res.witness == tuple(range(n // 2))
        assert peak < 16 * 2**20

    @pytest.fixture(params=["grid", "table"])
    def backend(self, request, monkeypatch):
        """Range minima from the window grid at every size, or from the
        sparse table above EXACT_BUDGET vertices (up to it every arc is
        scored in one pass under both)."""
        monkeypatch.setattr(lscc.graphs, "_GRID_CELLS", 1 << 62 if request.param == "grid" else 0)
        return request.param

    def test_dinkelbach_matches_exact_bitwise(self, backend):
        # value and witness equal to enumeration of all 2^(n-1) cuts,
        # tie-heavy uniform and integer rings included
        rng = np.random.default_rng(12)
        for n in range(2, 15):
            for kind in RING_KINDS[:3] + (("island",) if n >= 12 else ()):
                for cycle in (False, True):
                    g = weighted_ring(rng, n, kind, cycle)
                    res, exact = cheeger_interval(g), cheeger_exact(g)
                    assert (res.value, res.witness) == (exact.value, exact.witness), (n, kind, cycle)
        for trial in range(150):
            g = random_ring_graph(rng, int(rng.integers(2, 15)), trial % 3)
            res, exact = cheeger_interval(g), cheeger_exact(g)
            assert res.value == exact.value, trial
            if exact.value > 0.0:  # zero-value cuts of disconnected graphs tie widely
                assert res.witness == exact.witness, trial
        g = weighted_ring(rng, EXACT_BUDGET, "integer", True)
        res, exact = cheeger_interval(g), cheeger_exact(g)
        assert (res.value, res.witness) == (exact.value, exact.witness)

    @pytest.mark.parametrize("n", [20, 60])
    def test_near_tie_at_one_end(self, backend, n):
        # arcs [n-8..n-1] and [n-3..n-1] of a unit path share their end; the
        # longer is 5e-13 worse (less than _TIE_MARGIN) but minimizes
        # bd - t vol near the optimum, so the shorter must still be found;
        # every other cut's ratio is well above 1/3
        ew = np.full(n - 1, 100.0)
        ew[n - 4], ew[n - 9] = 1.0, 8.0 / 3.0 * (1.0 + 5e-13)
        g = WeightedGraph(np.ones(n), tuple((i, i + 1, ew[i]) for i in range(n - 1)))
        res = cheeger_interval(g)
        assert res.witness == (n - 3, n - 2, n - 1)
        assert (res.value, res.witness) == block_cheeger_interval(g)
        if n <= EXACT_BUDGET:
            exact = cheeger_exact(g)
            assert (res.value, res.witness) == (exact.value, exact.witness)

    def test_light_near_tie_right_of_heavy(self, backend):
        # at the last end of the path, [52..59] (volume 5) has ratio 1/3 and
        # the light [57..59] (volume 3e-6) a ratio 1e-12 lower; near 1/3,
        # bd - t vol favours the heavy arc by its volume, so a search that
        # stops at the heavy arc, or closes the window right of it while its
        # ratio is not yet settled, reports 1/3
        n = 60
        w = np.ones(n)
        w[-3:] = 1e-6
        ew = np.full(n - 1, 100.0)
        ew[n - 4], ew[n - 9] = 1e-6 * (1.0 - 1e-12), (5.0 + 3e-6) / 3.0
        g = WeightedGraph(w, tuple((i, i + 1, ew[i]) for i in range(n - 1)))
        res = cheeger_interval(g)
        assert res.witness == (n - 3, n - 2, n - 1)
        assert (res.value, res.witness) == block_cheeger_interval(g)

    @pytest.mark.parametrize(
        "w, cycle",
        [
            ([0.3, 0.3, 0.7, 0.1, 0.2, 0.3, 0.1], True),
            ([0.3, 0.2, 0.1, 0.3, 0.1, 0.1, 0.3, 0.3, 0.2, 0.3], False),
            ([0.7, 0.7, 0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.7, 0.1, 0.1, 0.2], True),
            ([0.3, 0.7, 0.7, 0.3, 0.2, 0.7, 0.3, 0.7, 0.1, 0.1, 0.3], False),
        ],
    )
    def test_half_volume_by_running_sums(self, backend, w, cycle):
        # an arc whose volume is within rounding of half the total is kept
        # or dropped as the running sums of cheeger_exact decide
        n = len(w)
        ring = [(i, i + 1, 1.0) for i in range(n - 1)] + ([(0, n - 1, 1.0)] if cycle else [])
        g = WeightedGraph(w, tuple(ring))
        res, exact = cheeger_interval(g), cheeger_exact(g)
        assert (res.value, res.witness) == (exact.value, exact.witness)

    def test_matches_block_oracle_above_budget(self, backend):
        # within 1e-13 of the enumeration; the witness is a feasible cut whose
        # own running-sum ratio is the value
        rng = np.random.default_rng(13)
        sizes = (25, 40, 100, 333) if backend == "grid" else (25, 40, 100, 333, 1000)
        cases = [(n, kind, cycle) for n in sizes for kind in RING_KINDS for cycle in (False, True)]
        if backend == "table":
            cases += [(4096, "random", True), (4096, "island", True), (4096, "poly", False)]
        for n, kind, cycle in cases:
            g = weighted_ring(rng, n, kind, cycle)
            res = cheeger_interval(g)
            expected, _ = block_cheeger_interval(g)
            assert res.value == pytest.approx(expected, rel=1e-13, abs=0.0), (n, kind, cycle)
            assert running_ratio(g, res.witness) == res.value, (n, kind, cycle)
            assert np.cumsum(g.vertex_weights[list(res.witness)])[-1] <= 0.5 * g.total_volume()
        for trial in range(60):
            g = random_ring_graph(rng, int(rng.integers(25, 200)), trial % 3)
            res = cheeger_interval(g)
            expected, _ = block_cheeger_interval(g)
            assert res.value == pytest.approx(expected, rel=1e-13, abs=0.0), trial
            assert running_ratio(g, res.witness) == res.value, trial

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_light_island_keeps_digits(self, n):
        # five light vertices cut off far from vertex 0, the last one lighter
        # still: plain prefix differences carry errors of about 1e-5 of the
        # island's volume, which cannot tell it from the island without its
        # last vertex (a ratio 1e-10 higher)
        rng = np.random.default_rng(n)
        for _ in range(5):
            g = weighted_ring(rng, n, "island", True)
            a, ew = n // 2, g.ring_weights
            res = cheeger_interval(g)
            expected = (ew[a - 1] + ew[a + 4]) / math.fsum(g.vertex_weights[a : a + 5])
            assert res.witness == tuple(range(a, a + 5))
            assert abs(res.value - expected) <= 4e-16 * expected

    def test_light_wrapping_arc_exact(self):
        # the light end of a cycle wraps through vertex 0: taking its volume
        # as the total minus a prefix difference (the enumeration's way above
        # EXACT_BUDGET) is off by about 1e-13 here; the exact rational
        # minimum over all arcs is the reference
        n = 100
        far = np.abs(np.arange(n + 1) - n // 2) + 1.0
        w, ew = far[:n] ** -2.0, np.maximum(far[:n], far[1:]) ** -2.0
        edges = tuple((i, i + 1, float(ew[i])) for i in range(n - 1)) + ((0, n - 1, float(ew[-1])),)
        g = WeightedGraph(w, edges)
        ef = [Fraction(float(x)) for x in ew]
        prefix = [Fraction(0)]
        for x in np.concatenate((w, w)).tolist():
            prefix.append(prefix[-1] + Fraction(x))
        best = min(
            (ef[s - 1] + ef[(s + length - 1) % n]) / vol
            for s in range(n)
            for length in range(1, n)
            if (vol := prefix[s + length] - prefix[s]) <= prefix[n] / 2
        )
        res = cheeger_interval(g)
        assert abs(Fraction(res.value) - best) <= Fraction(4e-16) * best
        assert res.witness[0] == 0 and res.witness[-1] == n - 1

    def test_large_cycle_time_and_memory(self):
        rng = np.random.default_rng(14)
        g = weighted_ring(rng, 65536, "random", True)
        start = time.perf_counter()
        res = cheeger_interval(g)
        assert time.perf_counter() - start < 0.5
        assert running_ratio(g, res.witness) == res.value
        g = weighted_ring(rng, 1025, "random", True)
        tracemalloc.start()
        try:
            cheeger_interval(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @staticmethod
    def v_cycle(n, scale):
        """Unit vertices, edge i weighing |i + 1/2 - n/2|: every arc through
        vertex n/2 that avoids the wrap edge has ratio 1, the minimum, so
        about n^2/8 arcs tie; both weights times `scale`."""
        ew = scale * np.abs(np.arange(n) + 0.5 - n // 2)
        edges = tuple((i, i + 1, float(ew[i])) for i in range(n - 1)) + ((0, n - 1, float(ew[-1])),)
        return WeightedGraph(np.full(n, scale), edges)

    def test_many_ties_time_and_memory(self):
        # one arc per end is listed, not every tied arc
        n = 4096
        g = self.v_cycle(n, 1.0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = cheeger_interval(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.value, res.witness) == (1.0, tuple(range(n // 2)))
        assert elapsed < 0.5
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_many_ties_match_block_oracle(self, backend, scale):
        # with weights 0.1 the tied ratios differ in their last bits
        g = self.v_cycle(300, scale)
        res = cheeger_interval(g)
        value, witness = block_cheeger_interval(g)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0.0)
        assert running_ratio(g, res.witness) == res.value
        if scale == 1.0:
            assert (res.value, res.witness) == (value, witness)

    @staticmethod
    def small_rings(rng):
        """Paths and cycles of 2-24 vertices: tie-prone weights from {0.1,
        0.2, 0.3, 0.7}, continuous and decaying weights, each also with one
        interior edge missing."""
        for n in range(2, EXACT_BUDGET + 1):
            for style in ("ties", "ties", "ties", "random", "decay"):
                for cycle in (False, True) if n > 2 else (False,):
                    for gap in (None, n // 2):
                        if style == "ties":
                            w, ew = rng.choice([0.1, 0.2, 0.3, 0.7], (2, n))
                        elif style == "random":
                            w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, n)
                        else:
                            w, ew = 0.5 ** np.arange(n), 0.3 ** np.arange(n)
                        edges = [(i, i + 1, float(ew[i])) for i in range(n - 1)]
                        edges += [(0, n - 1, float(ew[-1]))] if cycle else []
                        if gap is not None and n > 2:
                            del edges[gap - 1]
                        yield WeightedGraph(w, tuple(edges))

    def test_one_pass_matches_grid_oracle(self):
        # the one-pass scoring of rings up to EXACT_BUDGET equals the grid
        # route it replaced in value and witness, bit for bit
        rng = np.random.default_rng(15)
        count = 0
        for g in self.small_rings(rng):
            res = cheeger_interval(g)
            assert (res.value, res.witness) == grid_cheeger_small(g), g.edges
            count += 1
        assert count == 450

    def test_one_pass_matches_exact_on_small_rings(self):
        rng = np.random.default_rng(16)
        for g in self.small_rings(rng):
            if g.num_vertices > 14:
                continue
            res, exact = cheeger_interval(g), cheeger_exact(g)
            assert res.value == exact.value, g.edges
            if exact.value > 0.0:  # zero-value cuts of disconnected graphs tie widely
                assert res.witness == exact.witness, g.edges

    def test_wrapping_arc_volume_in_vertex_order(self):
        # the best arc [0..1] + [5..5] of this cycle: its running sum in
        # ascending vertex order, (w0 + w1) + w5, is one bit above the sum in
        # arc order, (w5 + w0) + w1, and so is the ratio
        w = [0.7, 0.1, 0.7, 0.3, 0.2, 0.3]
        ew = [0.3, 0.2, 0.2, 0.7, 0.3, 0.3]
        g = WeightedGraph(w, tuple((i, i + 1, ew[i]) for i in range(5)) + ((0, 5, ew[5]),))
        ascending, arc_order = (0.2 + 0.3) / ((0.7 + 0.1) + 0.3), (0.2 + 0.3) / ((0.3 + 0.7) + 0.1)
        assert ascending != arc_order
        res = cheeger_interval(g)
        assert (res.value, res.witness) == (ascending, (0, 1, 5))
        assert (res.value, res.witness) == grid_cheeger_small(g)
        exact = cheeger_exact(g)
        assert (res.value, res.witness) == (exact.value, exact.witness)

    def test_agreement_at_enumeration_budget(self):
        # the full 24-vertex budget: 2^23 cuts against the O(n^2) reduction
        rng = np.random.default_rng(3)
        n = 24
        w = rng.uniform(0.2, 3.0, n)
        path_edges = tuple((i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1))
        path = WeightedGraph(w, path_edges)
        assert cheeger_interval(path).upper == cheeger_exact(path).upper
        cyc = WeightedGraph(w, path_edges + ((0, n - 1, float(rng.uniform(0.1, 2.0))),))
        exact = cheeger_exact(cyc)
        interval = cheeger_interval(cyc)
        assert interval.upper == exact.upper
        assert interval.witness == exact.witness


class TestLaplacian:
    def test_two_path(self):
        assert np.array_equal(laplacian(unweighted_path(2)), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        g = unweighted_cycle(3)
        lap = laplacian(g)
        adjacency = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(lap, np.diag([2.0, 2.0, 2.0]) - adjacency)

    def test_toy_row_sums(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0), (1, 2, 9.0)))
        assert np.max(np.abs(laplacian(g).sum(axis=1))) <= 1e-12


class TestAlgebraicConnectivity:
    def test_cycle_closed_forms(self):
        for L in range(3, 65):
            res = algebraic_connectivity(unweighted_cycle(L))
            assert res.lam == pytest.approx(2.0 * (1.0 - math.cos(2.0 * math.pi / L)), abs=1e-10)

    def test_disconnected_zero(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        assert algebraic_connectivity(g).lam == pytest.approx(0.0, abs=1e-12)

    def test_complete_three_unit_weights(self):
        # S = I so the normalized operator is the plain Laplacian: gap 3
        assert algebraic_connectivity(unweighted_cycle(3)).lam == pytest.approx(3.0, abs=1e-10)

    def test_fiedler_conventions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            res = algebraic_connectivity(g)
            z = res.fiedler
            # weighted orthogonality to the constant vector
            assert abs(np.sum(g.vertex_weights * z)) <= 1e-10
            # unit weighted norm and positive leading entry
            assert np.sum(g.vertex_weights * z * z) == pytest.approx(1.0, abs=1e-10)
            lead = z[np.flatnonzero(np.abs(z) > 1e-12 * np.max(np.abs(z)))[0]]
            assert lead > 0.0
            assert rayleigh_quotient(g, z) == pytest.approx(res.lam, abs=1e-9)

    def test_eigensolver_certificate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            res = algebraic_connectivity(g)
            m = normalized_laplacian(g)
            y = np.sqrt(g.vertex_weights) * res.fiedler
            assert np.linalg.norm(m @ y - res.lam * y) <= 1e-9 * np.linalg.norm(m, "fro")

    def test_single_vertex(self):
        res = algebraic_connectivity(WeightedGraph(np.ones(1), ()))
        assert math.isinf(res.lam)


def ring_with_absent(rng, n, absent):
    """Cycle on n vertices with weights in [0.2, 3] x [0.1, 2] and the edges
    at the given positions of `ring_weights` left out (n - 1 is the wrap)."""
    w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, n)
    ew[list(absent)] = 0.0
    u = np.arange(n)
    v = (u + 1) % n
    kept = ew > 0.0
    return WeightedGraph(w, (np.minimum(u, v)[kept], np.maximum(u, v)[kept], ew[kept]))


def dense_lambda(g):
    return lscc.graphs._dense_spectral(g)[0]


def ring_route(g, dtype=np.float64):
    return lscc.graphs._ring_spectral(
        g.vertex_weights.astype(dtype), g.ring_weights.astype(dtype)
    )


class TestRingSpectral:
    """The O(n) inverse iteration on paths and cycles."""

    def test_unit_cycle_closed_form(self):
        for n in (56, 64, 100, 257, 1000, 2048, 4096, 8192):
            exact = 4.0 * math.sin(math.pi / n) ** 2
            lam = algebraic_connectivity(unweighted_cycle(n)).lam
            assert abs(lam - exact) <= 1e-14 * exact, n

    def test_unit_path_closed_form(self):
        for n in (56, 300, 4096):
            exact = 4.0 * math.sin(math.pi / (2 * n)) ** 2
            assert abs(algebraic_connectivity(unweighted_path(n)).lam - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("signal", ["ones", "random"])
    def test_matches_longdouble_on_windowed(self, signal):
        from lscc.scheme import induce_graph
        from lscc.windowed import WindowedConfig, build_windowed_scheme

        scheme = build_windowed_scheme(WindowedConfig(a=2, L=4096, field="complex"))
        f = np.ones(scheme.ambient_dim) if signal == "ones" else scheme.random_signal(
            np.random.default_rng(5)
        )
        g = induce_graph(scheme, f)
        lam = algebraic_connectivity(g).lam
        extended = ring_route(g, np.longdouble)[0]
        assert abs(lam - extended) <= 1e-13 * extended

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(3, 513)) if trial % 5 else int(rng.integers(3, 12))
            kind = trial % 4
            if kind == 0:  # a path
                absent = [n - 1]
            elif kind == 1:  # a cycle
                absent = []
            else:  # one or two edges left out anywhere
                absent = rng.choice(n, kind - 1, replace=False).tolist()
            g = ring_with_absent(rng, n, absent)
            lam, z = ring_route(g)
            w = g.vertex_weights
            if kind == 3:
                assert lam == 0.0 and dense_lambda(g) <= 1e-12
            else:
                assert abs(lam - dense_lambda(g)) <= 1e-9 * lam, (n, absent)
            # the Fiedler contract before the sign rule, and its eigenpair
            assert abs(np.sum(w * z)) <= 1e-12
            assert np.sum(w * z * z) == pytest.approx(1.0, abs=1e-12)
            assert rayleigh_quotient(g, z) == pytest.approx(lam, rel=1e-9, abs=1e-15)
            m = normalized_laplacian(g)
            y = np.sqrt(w) * z
            assert np.linalg.norm(m @ y - lam * y) <= 1e-6 * np.linalg.norm(m, "fro")

    def test_fiedler_vector_matches_dense_on_paths(self):
        # a path's spectrum is simple, so its Fiedler vector is unique up to sign
        rng = np.random.default_rng(12)
        for n in (56, 80, 200):
            g = ring_with_absent(rng, n, [n - 1])
            z = algebraic_connectivity(g).fiedler
            _, y, _ = lscc.graphs._dense_spectral(g)
            ref = y / np.sqrt(g.vertex_weights)
            ref /= math.sqrt(float(np.sum(g.vertex_weights * ref * ref)))
            ref *= np.sign(ref[0])
            assert z[0] > 0.0
            assert np.max(np.abs(z - ref)) <= 1e-6

    def test_route_by_size(self):
        rng = np.random.default_rng(13)
        small = ring_with_absent(rng, lscc.graphs._RING_SPECTRAL_MIN - 1, [])
        big = ring_with_absent(rng, lscc.graphs._RING_SPECTRAL_MIN, [])
        assert algebraic_connectivity(small).lam == dense_lambda(small)
        assert algebraic_connectivity(big).lam == ring_route(big)[0]

    def test_weak_edges_keep_their_digits(self):
        # a path cut by one edge of weight ~1e-21 next to an island of tiny
        # vertices: lambda ~3e-23, against a longdouble run of the iteration.
        # At 12 vertices the dense eigensolve gives 0.0 for both connected
        # rings here; with so few trusted digits the ring route takes over
        rng = np.random.default_rng(0)
        for n in (12, 60, 300):
            for cycle in (False, True):
                g = weighted_ring(rng, n, "island", cycle)
                lam = algebraic_connectivity(g).lam
                assert abs(lam - ring_route(g, np.longdouble)[0]) <= 1e-13 * lam

    def test_peak_memory_linear(self):
        n = 1 << 16
        g = ring_with_absent(np.random.default_rng(14), n, [])
        g.ring_weights
        tracemalloc.start()
        try:
            lam = algebraic_connectivity(g).lam
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam > 0.0
        # about 25 vectors of n doubles; the dense route would need n^2
        assert peak <= 24e6, peak


class TestDisconnectedLambda:
    def test_rings_give_exact_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(3, 130))
            count = int(rng.integers(2, min(n, 6) + 1))
            g = ring_with_absent(rng, n, rng.choice(n, count, replace=False).tolist())
            assert not is_connected(g)
            res = algebraic_connectivity(g)
            assert res.lam == 0.0
            z, w = res.fiedler, g.vertex_weights
            assert abs(np.sum(w * z)) <= 1e-12
            assert np.sum(w * z * z) == pytest.approx(1.0, abs=1e-12)
            assert rayleigh_quotient(g, z) <= 1e-20

    def test_other_graphs_give_exact_zero(self):
        rng = np.random.default_rng(16)
        found = 0
        for _ in range(300):
            g = random_sparse_graph(rng, int(rng.integers(4, 12)), ties=False)
            if g.ring_weights is not None or is_connected(g):
                continue
            found += 1
            assert algebraic_connectivity(g).lam == 0.0
        assert found >= 50


class TestCheegerSweep:
    def test_sandwich_contains_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            exact = cheeger_exact(g).upper
            sw = cheeger_sweep(g)
            assert sw.lower <= exact + 1e-10
            assert sw.upper >= exact - 1e-10

    def test_four_cycle_finds_optimum(self):
        assert cheeger_sweep(unweighted_cycle(4)).upper == pytest.approx(1.0)

    def test_two_path_single_cut(self):
        assert cheeger_sweep(unweighted_path(2)).upper == pytest.approx(1.0)

    def test_sweep_witness_achieves_upper(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            sw = cheeger_sweep(g)
            members = set(sw.witness)
            vol = sum(g.vertex_weights[i] for i in sorted(members))
            bd = sum(w for (u, v, w) in g.edges if (u in members) != (v in members))
            assert vol <= 0.5 * g.total_volume() + 1e-12
            assert bd / vol == pytest.approx(sw.upper, abs=1e-10)

    def test_fallback_dispatch(self):
        # the route follows the edges: a ring takes the interval reduction at
        # any size; one chord sends it to enumeration, then to the sandwich
        assert cheeger(unweighted_cycle(30)).method == "IntervalReduction"
        for n, method in ((12, "ExactEnumeration"), (30, "SpectralSweepSandwich")):
            ring = tuple((i, i + 1, 1.0) for i in range(n - 1)) + ((0, n - 1, 1.0),)
            chorded = WeightedGraph(np.ones(n), ring + ((0, n // 2, 1.0),))
            assert cheeger(chorded).method == method


class TestCheegerInequality:
    def test_four_cycle_closed_forms(self):
        g = unweighted_cycle(4)
        assert check_cheeger_inequality(g, d_n=2.0)

    def test_disconnected(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        assert check_cheeger_inequality(g)

    def test_fuzzed(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            assert check_cheeger_inequality(g)

    def test_normalized_degree_formula(self):
        g = WeightedGraph(np.array([2.0, 1.0]), ((0, 1, 3.0),))
        assert normalized_degree(g) == pytest.approx(3.0)


class TestScalingInvariance:
    def test_cheeger_and_lambda_scale_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            scaled = g.scaled(math.pi)
            assert cheeger_exact(scaled).upper == pytest.approx(
                cheeger_exact(g).upper, rel=1e-10
            )
            assert algebraic_connectivity(scaled).lam == pytest.approx(
                algebraic_connectivity(g).lam, rel=1e-10, abs=1e-12
            )

    def test_lambda_zero_iff_disconnected(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n)
            assert algebraic_connectivity(g).lam > 1e-12
            if n >= 4:
                half = n // 2
                kept = tuple((u, v, w) for (u, v, w) in g.edges if (u < half) == (v < half))
                broken = WeightedGraph(g.vertex_weights, kept)
                assert algebraic_connectivity(broken).lam <= 1e-12


class TestSerialization:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 6)
        again = graph_from_json(graph_to_json(g))
        assert np.array_equal(again.vertex_weights, g.vertex_weights)
        assert again.edges == g.edges
        assert again.labels == g.labels
        assert graph_to_json(again) == graph_to_json(g)

    def test_labels_preserved(self):
        g = WeightedGraph(np.array([1.0, 2.0]), ((0, 1, 3.0),), labels=(5, 9))
        again = graph_from_json(graph_to_json(g))
        assert again.labels == (5, 9)
