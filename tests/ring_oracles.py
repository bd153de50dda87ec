"""Ring Cheeger oracles: the window grid that cheeger_interval no longer
ships, and the exact rational minimum over arcs.  Kept apart from
`oracles`, which test_harness imports into the process whose page faults
it counts: a larger module there moves glibc's heap layout, and with it that
count.  Nothing under src/ imports this module."""

import itertools
import math
from fractions import Fraction

import numpy as np

from lscc.graphs import WeightedGraph


def _common_scale(xs: list, others: list = ()) -> list:
    """xs as exact integers over the least power of two that makes integers
    of xs and others alike."""
    scale = max(x.as_integer_ratio()[1] for x in [*xs, *others])
    return [x.as_integer_ratio()[0] * (scale // x.as_integer_ratio()[1]) for x in xs]


def rational_ring_cheeger(g: WeightedGraph) -> Fraction:
    """The exact minimum of boundary / volume over the arcs of a ring of n >= 2
    vertices, an arc feasible when its exact volume is at most half the
    exact total.  Every float is a dyadic rational, so all weights are
    integers over one power of two, which cancels in each ratio."""
    n = g.num_vertices
    w, ew = g.vertex_weights.tolist(), g.ring_weights.tolist()
    vw, bd = _common_scale(w, ew), _common_scale(ew, w)
    prefix = list(itertools.accumulate(vw + vw, initial=0))
    longest = n - 1 if ew[-1] > 0.0 else None
    best = None
    for s in range(n):
        for e in range(s, s + longest if longest else n):
            vol = prefix[e + 1] - prefix[s]
            if 2 * vol > prefix[n]:
                break
            arc = (bd[s - 1] + bd[e % n], vol)
            if best is None or arc[0] * best[1] < best[0] * arc[1]:
                best = arc
    return Fraction(*best)


def grid_cheeger_interval(g: WeightedGraph) -> tuple[float, tuple]:
    """Reference (value, witness) of a ring of n >= 2 vertices: the window
    grid that cheeger_interval took for rings of about 25 to 64 vertices.
    Windows of starts from compensated prefix sums; an arc within 2^-45 of
    half the volume kept or dropped by its exact volume; every slot of the
    grid of windows scored; the arcs within 2^-40 of the least re-scored by
    running sums, ties to the smallest member tuple."""
    n, ew, w = g.num_vertices, g.ring_weights, g.vertex_weights
    band, margin = 2.0**-45, 2.0**-40

    def members(s, e):
        return [*range(s, e + 1)] if e < n else [*range(e - n + 1), *range(s, n)]

    exact = list(itertools.accumulate(_common_scale(w.tolist()) * 2, initial=0))

    def over_half(s, e):
        return 2 * (exact[e + 1] - exact[s]) > exact[n]

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

    half = 0.5 * math.fsum(w.tolist())
    rounded = hi + lo
    first = rounded[:n].searchsorted(rounded[1:] - (1.0 + band) * half)
    last = np.minimum(np.arange(ends), n - 1)
    v = vol(first, np.arange(ends))
    while np.count_nonzero(near := (first <= last) & (v > (1.0 - band) * half)):
        over = near & (v > half)
        for e in near.nonzero()[0].tolist():
            if v[e] <= (1.0 + band) * half:
                over[e] = over_half(int(first[e]), e)
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
    running = [w[members(x, y)].cumsum()[-1] for x, y in zip(s.tolist(), e.tolist())]
    ratio = (ewp[s] + ewd[e]) / np.array(running)
    best = (ratio == ratio[ratio.argmin()]).nonzero()[0]
    wrap = e[best] >= n
    group = np.where(wrap, 1, np.where(s[best] == 0, 0, 2))
    major = np.where(wrap, n - e[best], np.where(s[best] == 0, e[best], s[best]))
    i = best[np.lexsort((np.where(wrap, s[best], e[best]), major, group))][0]
    return float(ratio[i]), tuple(g.labels[k] for k in members(int(s[i]), int(e[i])))
