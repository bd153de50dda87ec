"""Measurement schemes over a base graph and the graphs they induce per signal.

A scheme attaches to every vertex a locally phase-retrievable frame together
with the coordinate projection onto the subspace it sees (stored as its
sorted coordinate support), and to every edge a family of
"gluing" functionals dominated by both endpoint frames.  Measuring a signal f
induces a weighted graph: vertex weights ||Phi_v(f)||_p^p, edge weights
||Psi_uv(f)||_p^p, keeping strictly positive weights only.  Connectivity of
that graph certifies that f is recoverable up to a global phase.

The three structural axioms (local retrievability with constant C0, edge
domination with constant C1, exhaustion of the signal norm) are validated
numerically on randomized and canonical probes; validation reports worst
observed ratios rather than assuming declared constants.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .blocks import BlockOperator, Blocks, EdgeMap, Supports, by_identity, support_table
from .errors import DimensionError, FieldError, SchemeError
from .graphs import WeightedGraph, is_connected
from .measurement import (
    COMPLEX,
    DENOM_CUTOFF,
    REAL,
    Frame,
    Signal,
    as_field_array,
    gaussian,
    p_norms,
    pair_ratios,
)

RETRIEVABLE = "RetrievableByConnectivity"
INCONCLUSIVE = "Inconclusive"

#: layout of `scheme_to_dict`: supports and local blocks instead of dense matrices
DESCRIPTOR_VERSION = 2
#: relative weight threshold below which induced vertices/edges are dropped
DEFAULT_ZERO_TOL = 1e-12
#: descriptor text the writer formats per chunk of a run of objects
_TEXT_BYTES = 1 << 16


@dataclass(frozen=True, init=False, eq=False)
class BaseGraph:
    """Unweighted simple graph with its maximum degree.

    Edge k joins vertices u[k] < v[k]; the two read-only int64 arrays are
    sorted lexicographically by (u, v).  `edges` may be given as (u, v)
    pairs or as an (E, 2) integer array; the `edges` property lists the
    arrays as tuples of Python ints, made on access.
    """

    num_vertices: int
    u: np.ndarray
    v: np.ndarray

    def __init__(self, num_vertices: int, edges=()):
        if num_vertices < 1:
            raise SchemeError("graph needs at least one vertex")
        ends = np.asarray(edges)
        ends = ends.reshape(0, 2) if ends.size == 0 else ends
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise SchemeError("edges must be (u, v) pairs")
        a, b = ends.T
        bad = (a == b) | ~((0 <= a) & (a < num_vertices) & (0 <= b) & (b < num_vertices))
        if bad.any():
            u, v = ends[np.argmax(bad)].tolist()
            raise SchemeError(f"self-loop at {u}" if u == v else f"edge ({u},{v}) out of range")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * num_vertices + hi
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            lo, hi, key = lo[order], hi[order], key[order]
            if np.any(key[1:] == key[:-1]):
                raise SchemeError("duplicate edges")
        if ends.size and ends.dtype.kind not in "iu":
            raise SchemeError("edge endpoints must be integers")
        object.__setattr__(self, "num_vertices", num_vertices)
        for name, column in (("u", lo), ("v", hi)):
            column = column.astype(np.int64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    @cached_property
    def degree_bound(self) -> int:
        return int(np.bincount(np.concatenate((self.u, self.v)), minlength=self.num_vertices).max())

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.u * self.num_vertices + self.v  # ascending, as the edges are sorted

    def edge_index(self, e) -> int:
        """Position of the edge e = (u, v), u < v, in the arrays; KeyError if absent."""
        try:
            a, b = e
            k = int(np.searchsorted(self._keys, a * self.num_vertices + b))
            found = k < self.u.size and self.u[k] == a and self.v[k] == b
        except (TypeError, ValueError, OverflowError):
            found = False
        if not found:
            raise KeyError(e)
        return k


def path_graph(n: int) -> BaseGraph:
    i = np.arange(n - 1)
    return BaseGraph(n, np.stack((i, i + 1), axis=1))


def cycle_graph(n: int) -> BaseGraph:
    i = np.arange(n - 1)
    ends = np.stack((i, i + 1), axis=1)
    return BaseGraph(n, np.vstack((ends, [[0, n - 1]])) if n > 2 else ends)


@dataclass
class LsccScheme:
    """A validated-by-construction measurement scheme.

    Every local object is a support plus a small block: frame v is an
    r_v x |supp_v| block in the coordinates of `vertex_projections[v]`, and
    the functional of edge e is an r_e x |supp_e| block on
    `edge_supports[e]`.

    The supports may be given as a sequence of 1-D integer arrays (for the
    edges: a dict keyed by edge, or a sequence in `graph.edges` order) or
    as an (n, s) table with one support per row; the edge functionals as a
    dict keyed by edge or a sequence in `graph.edges` order.  The scheme
    keeps one CSR support table, the vertices then the edges in
    `graph.edges` order, and each distinct block once (builders share one
    Frame or one block object between objects), with the index of every
    object's block.  `vertex_projections`, `edge_supports` and
    `edge_functionals` are read-only views of them, which make a per-object
    array only when asked.  Treat instances as immutable; every operation
    on them is pure.
    """

    name: str
    field: str
    p: float
    ambient_dim: int
    graph: BaseGraph
    vertex_frames: tuple[Frame, ...]
    vertex_projections: Sequence[np.ndarray]  # P_v as its sorted int64 coordinate support
    edge_functionals: Mapping[tuple[int, int], np.ndarray]  # Psi_uv as a block on its support
    edge_supports: Mapping[tuple[int, int], np.ndarray]
    local_stability: float  # C0
    edge_domination: float  # C1
    frame_lower: float  # A
    frame_upper: float  # B
    exhaustion_lower: float
    exhaustion_upper: float
    vertex_labels: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise FieldError(f"unknown field {self.field!r}")
        for name, value in (("C0", self.local_stability), ("C1", self.edge_domination)):
            if not 0.0 < value < math.inf:
                raise SchemeError(f"{name} must be finite and > 0, got {value}")
        ranges = {
            "A <= B": (self.frame_lower, self.frame_upper),
            "exhaustion lower <= upper": (self.exhaustion_lower, self.exhaustion_upper),
        }
        for name, (lo, hi) in ranges.items():
            # NaN fails every comparison; the upper end may be inf
            if not (0.0 <= lo < math.inf and lo <= hi):
                raise SchemeError(f"constants must satisfy 0 <= {name}, got [{lo}, {hi}]")
        graph, n_v = self.graph, self.graph.num_vertices
        self.vertex_frames = tuple(self.vertex_frames)
        if len(self.vertex_frames) != n_v:
            raise SchemeError("one frame per vertex required")
        if len(self.vertex_projections) != n_v:
            raise SchemeError("one projection per vertex required")
        supports = _in_edge_order(self.edge_supports, graph, "support")
        functionals = _in_edge_order(self.edge_functionals, graph, "functional")
        flat, bounds = support_table((self.vertex_projections, supports), self.ambient_dim)
        blocks, block_of = _distinct_blocks(self.vertex_frames, functionals, self.field)
        rows, cols = np.array([b.shape[:2] if b.ndim == 2 else (0, -1) for b in blocks]).T
        bad = (rows[block_of] < 1) | (cols[block_of] != np.diff(bounds))
        if bad.any():
            k = int(np.argmax(bad))
            name = f"frame {k}" if k < n_v else f"edge {graph.edges[k - n_v]}"
            raise SchemeError(
                f"{name} has shape {blocks[block_of[k]].shape}: a block needs a row and must "
                f"stay inside its support of {bounds[k + 1] - bounds[k]} coordinates"
            )
        self._flat, self._bounds, self._blocks, self._block_of = flat, bounds, blocks, block_of
        self.vertex_projections = Supports(flat, bounds[: n_v + 1])
        self.edge_supports = EdgeMap(graph, Supports(flat, bounds[n_v:]))
        self.edge_functionals = EdgeMap(graph, Blocks(blocks, block_of[n_v:]))
        if not self.vertex_labels:
            self.vertex_labels = tuple(range(n_v))
        if len(self.vertex_labels) != n_v:
            raise SchemeError(f"{len(self.vertex_labels)} vertex labels for {n_v} vertices")
        if len(set(self.vertex_labels)) != len(self.vertex_labels):
            raise SchemeError("vertex labels must be distinct")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @cached_property
    def vertex_operator(self) -> BlockOperator:
        """Every vertex frame on its support, in vertex order: measure(f) = op @ f."""
        n_v = self.num_vertices
        return BlockOperator(
            self._flat, self._bounds[: n_v + 1], self._blocks, self._block_of[:n_v]
        )

    @cached_property
    def edge_operator(self) -> BlockOperator:
        """Every edge functional on its support, in `graph.edges` order."""
        n_v = self.num_vertices
        return BlockOperator(self._flat, self._bounds[n_v:], self._blocks, self._block_of[n_v:])

    @cached_property
    def _weighted_graph(self) -> WeightedGraph:
        """The base graph under unit weights, checked once: `induce_graph` shares it."""
        u, v, labels = self.graph.u, self.graph.v, self.vertex_labels
        return WeightedGraph(np.ones(self.num_vertices), (u, v, np.ones(u.size)), labels)

    def coerce(self, f) -> np.ndarray:
        if isinstance(f, Signal):
            f = f.values
        vec = as_field_array(f, self.field)
        if vec.ndim != 1 or vec.size != self.ambient_dim:
            raise DimensionError(
                f"signal of length {vec.size} incompatible with ambient dim {self.ambient_dim}"
            )
        return vec

    def measure(self, f) -> np.ndarray:
        return self.vertex_operator @ self.coerce(f)

    def measure_batch(self, columns: np.ndarray) -> np.ndarray:
        return self.vertex_operator @ columns

    def phaseless(self, f) -> np.ndarray:
        return np.abs(self.measure(f))

    def random_signal(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        shape = (self.ambient_dim,) if count is None else (self.ambient_dim, count)
        return gaussian(rng, shape, self.field)

    def descriptor_hash(self) -> str:
        """SHA-256 of `scheme_to_json`, fed one fragment at a time."""
        digest = hashlib.sha256()
        for fragment in _descriptor_fragments(self):
            digest.update(fragment)
        return digest.hexdigest()


def sliding_scheme(
    name: str, local: np.ndarray, stride: int, count: int, cycle: bool, p: float,
    c0: float, c1: float, bounds: tuple[float, float], labels: tuple = (),
) -> LsccScheme:
    """One local frame slid along a path or a cycle of `count` windows.

    Window k reads the width = local.shape[1] coordinates from k * stride on,
    mod d = count * stride on a cycle (on a path d = (count - 1) * stride +
    width), through `local` on its sorted support: a last window that wraps
    reads np.roll(local, -stride, axis=1).  Neighbours are glued by one shared
    identity block on the width - stride coordinates they share, the first
    ones of the later window (window 0 for the wrap edge).  The exhaustion
    constants are (min cover)^(1/p) and (max cover)^(1/p), where the cover
    counts the windows holding each coordinate.
    """
    width = local.shape[1]
    if cycle and not (count >= 3 and width <= 2 * stride):
        raise SchemeError("a cycle needs 3 or more windows, and only the last may wrap")
    dim = count * stride if cycle else (count - 1) * stride + width
    graph = cycle_graph(count) if cycle else path_graph(count)
    windows = np.sort((np.arange(count)[:, None] * stride + np.arange(width)) % dim, axis=1)
    later = np.where(graph.v - graph.u == 1, graph.v, graph.u)
    cover = np.bincount(windows.ravel(), minlength=dim)
    field = COMPLEX if np.iscomplexobj(local) else REAL
    consts = {"p": p, "field": field, "lower": bounds[0], "upper": bounds[1]}
    frames = (Frame(local, **consts),) * (count - 1 if cycle else count)
    if cycle:
        frames += (Frame(np.roll(local, -stride, axis=1), **consts),)
    return LsccScheme(
        name=name, field=field, p=p, ambient_dim=dim, graph=graph, vertex_frames=frames,
        vertex_projections=windows,
        edge_functionals=(np.eye(width - stride, dtype=local.dtype),) * graph.u.size,
        edge_supports=later[:, None] * stride + np.arange(width - stride),
        local_stability=c0, edge_domination=c1, frame_lower=bounds[0], frame_upper=bounds[1],
        exhaustion_lower=float(cover.min()) ** (1.0 / p),
        exhaustion_upper=float(cover.max()) ** (1.0 / p), vertex_labels=labels,
    )


def _edge_keys(mapping: Mapping, what: str) -> list[tuple[int, int]]:
    """The keys of an edge dict as sorted pairs; an edge may appear once."""
    keys = [tuple(sorted(e)) for e in mapping]
    seen = set()
    for e in keys:
        if e in seen:
            raise SchemeError(f"edge {e} has a {what} under both orientations")
        seen.add(e)
    return keys


def _in_edge_order(values, graph: BaseGraph, what: str) -> Sequence:
    """Per-edge values, a Mapping keyed by edge or a sequence already in
    `graph.edges` order, as a sequence in that order."""
    if isinstance(values, Mapping):
        keyed = dict(zip(_edge_keys(values, what), values.values()))
        if keyed.keys() != set(graph.edges):
            raise SchemeError("edge functionals and supports must cover exactly the base edges")
        return [keyed[e] for e in graph.edges]
    if len(values) != graph.u.size:
        raise SchemeError("edge functionals and supports must cover exactly the base edges")
    return values


def _as_supports(supports, dim: int) -> list[np.ndarray]:
    """Coordinate supports validated by `support_table`, as read-only int64
    views of one array."""
    return list(Supports(*support_table((supports,), dim)))


def _as_support(support, dim: int) -> np.ndarray:
    """One coordinate support, validated by `support_table`."""
    return _as_supports([support], dim)[0]


def _distinct_blocks(frames, functionals, field: str) -> tuple[list, np.ndarray]:
    """The distinct local blocks, frame rows first, and the block index of
    every object: the vertices, then the edges.  Each distinct edge block is
    coerced to `field` once."""
    rows, frame_of = by_identity([fr.rows for fr in frames])
    edge_blocks, edge_of = by_identity(functionals)
    blocks = rows + [as_field_array(block, field) for block in edge_blocks]
    return blocks, np.concatenate((frame_of, edge_of + len(rows)))


@dataclass
class ValidationReport:
    check: str
    passed: bool
    worst: float
    detail: dict
    witness: object | None = None


def induce_graph(scheme: LsccScheme, f, zero_tol: float = DEFAULT_ZERO_TOL) -> WeightedGraph:
    """Signal-dependent weighted graph; weights at or below the relative
    threshold are dropped, as are edges incident to dropped vertices.

    An all-zero measurement yields the empty graph (`is_empty`).
    """
    if not 0.0 <= zero_tol < math.inf:
        raise SchemeError(f"zero_tol must lie in [0, inf), got {zero_tol}")
    vec = scheme.coerce(f)
    w_v = scheme.vertex_operator.power_sums(vec, scheme.p)
    w_e = scheme.edge_operator.power_sums(vec, scheme.p)
    w_max = max(w_v.max(initial=0.0), w_e.max(initial=0.0))
    if w_max == 0.0:
        return WeightedGraph(np.zeros(0), (), ())
    cut = zero_tol * w_max
    if w_v.min() > cut and w_e.min(initial=math.inf) > cut:
        # nothing dropped: every weight is > cut >= 0, and finite as w_max is (an
        # infinite w_max makes cut inf or NaN, which no weight exceeds)
        return scheme._weighted_graph._reweighted(w_v, w_e)
    keep = w_v > cut
    u, v = scheme.graph.u, scheme.graph.v
    kept = keep[u] & keep[v] & (w_e > cut)
    index = keep.cumsum() - 1  # kept vertices keep their order
    labels = tuple(scheme.vertex_labels[i] for i in keep.nonzero()[0].tolist())
    return WeightedGraph(w_v[keep], (index[u[kept]], index[v[kept]], w_e[kept]), labels)


def is_phase_retrievable(scheme: LsccScheme, f, zero_tol: float = DEFAULT_ZERO_TOL) -> str:
    """Connectivity-based verdict.

    Connectivity of the induced graph is sufficient for retrievability, not
    necessary, so a disconnected or empty graph yields "Inconclusive", never
    a negative claim.
    """
    g = induce_graph(scheme, f, zero_tol)
    if g.is_empty:
        return INCONCLUSIVE
    return RETRIEVABLE if is_connected(g) else INCONCLUSIVE


def _vertex_probes(scheme: LsccScheme, v: int, trials: int, rng: np.random.Generator):
    """The probe pairs of vertex v as one (2, k, |supp_v|) array: pair i is
    (probes[0, i], probes[1, i]), vectors in range(P_v) on its support.

    Canonical basis pairs come first.  The sum/difference pairs
    (b_i + b_j, b_i - b_j) are the classic witnesses against frames whose rows
    split into two rank-deficient halves, so they catch non-retrievable local
    frames deterministically.  Then come `trials` random pairs, each vector
    |supp_v| standard normals (a complex one its real part, then its
    imaginary part), drawn in blocks of about 2^15 entries.
    """
    support = scheme.vertex_projections[v]
    basis = np.eye(min(4, support.size), support.size)
    pairs = []
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            pairs.append((basis[i], basis[j]))
            if j > i:
                pairs.append((basis[i] + basis[j], basis[i] - basis[j]))
    chunks = [np.array(pairs).swapaxes(0, 1)]
    shape = (2, support.size) if scheme.field == COMPLEX else (support.size,)
    width = max(1, 2**15 // math.prod(shape))  # pairs per draw
    for start in range(0, trials, width):
        draws = rng.standard_normal((2 * min(width, trials - start),) + shape)
        draws = draws[:, 0] + 1j * draws[:, 1] if scheme.field == COMPLEX else draws
        chunks.append(draws.reshape(-1, 2, support.size).swapaxes(0, 1))
    return np.concatenate(chunks, axis=1)


def validate_local_phase_retrieval(
    scheme: LsccScheme,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Sample pairs inside each vertex subspace and compare the aligned
    measurement distance against the phaseless distance (`pair_ratios`:
    phase-equivalent pairs pass, a collision fails the check).

    The check also fails when the observed envelope of the per-vertex frame
    ratios ||Phi_v f||_p / ||f||_p leaves the declared [A, B] by more than a
    relative 1e-9.  `detail` carries the worst ratio as "estimated_c0", a
    sampled lower bound on C0.  The witness is the first collision if there
    is one, else the worst pair, as (v, f, g) with full-length f and g; when
    only the frame envelope fails, (v, f, None) with f the first probe (f
    before g) reaching the out-of-range lower, else upper, frame ratio.

    Each vertex is one array pass: its probes are measured by one stacked
    matmul (one matvec per probe, so bit for bit `Phi_v @ f`) and the frame
    constants come from row norms; only `pair_ratios` runs once per pair.
    """
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    p = scheme.p
    worst = 0.0
    witness = None
    frame_lo, frame_hi = math.inf, 0.0
    envelope = [None, None]  # (v, probe) first reaching frame_lo and frame_hi
    collision = False
    for v, fr in enumerate(scheme.vertex_frames):
        probes = _vertex_probes(scheme, v, trials, rng)
        flat = probes.reshape(-1, probes.shape[-1])
        meas = (np.conj(fr.rows)[None] @ flat[:, :, None])[..., 0]
        norms = p_norms(flat, p)
        ratio = np.divide(p_norms(meas, p), norms, out=np.full_like(norms, np.nan), where=norms > 0)
        in_order = ratio.reshape(2, -1).T.ravel()  # pair order, f before g; basis probes live
        lo, hi = np.nanargmin(in_order), np.nanargmax(in_order)
        if in_order[lo] < frame_lo:
            frame_lo, envelope[0] = float(in_order[lo]), (v, probes[lo % 2, lo // 2])
        if in_order[hi] > frame_hi:
            frame_hi, envelope[1] = float(in_order[hi]), (v, probes[hi % 2, hi // 2])
        meas = meas.reshape(2, -1, meas.shape[-1])
        for k, (x, y) in enumerate(zip(meas[0], meas[1])):
            num, den, equivalent, collides = pair_ratios(x, y, scheme.field, p)
            if collides and not collision:
                collision = True
                witness = (v, probes[0, k], probes[1, k])
            if equivalent:
                continue  # phase-equivalent pair: 0/0, counts as pass
            ratio = num / den
            if ratio > worst:
                worst = ratio
                if not collision:
                    witness = (v, probes[0, k], probes[1, k])
    declared = scheme.local_stability
    c0_holds = not collision and worst <= declared * (1.0 + 1e-9)
    low_holds = scheme.frame_lower * (1.0 - 1e-9) <= frame_lo
    passed = c0_holds and low_holds and frame_hi <= scheme.frame_upper * (1.0 + 1e-9)
    if c0_holds and not passed:
        witness = (*envelope[1 if low_holds else 0], None)
    if witness is not None:
        v, fv, gv = witness
        full = np.zeros((2, scheme.ambient_dim), dtype=fv.dtype)
        full[:, scheme.vertex_projections[v]] = fv, (fv if gv is None else gv)
        witness = (v, full[0], None if gv is None else full[1])
    return ValidationReport(
        check="local-phase-retrieval",
        passed=passed,
        worst=worst if not collision else math.inf,
        detail={
            "declared_c0": declared,
            "estimated_c0": worst,
            "frame_lower_observed": frame_lo,
            "frame_upper_observed": frame_hi,
            "collision_found": collision,
        },
        witness=witness if (collision or not passed) else None,
    )


def _probe_chunks(scheme: LsccScheme, trials: int, rng: np.random.Generator):
    """The probes of the two batched validators as (d, k) column chunks of
    about 2^12 entries: `trials` random signals, drawn in one call before the
    first chunk is used (signal by signal, as `random_signal` draws one),
    then the coordinate basis, built chunk by chunk."""
    dim = scheme.ambient_dim
    if scheme.field == COMPLEX:
        draws = rng.standard_normal((trials, 2, dim))
        probes = (draws[:, 0] + 1j * draws[:, 1]).T
    else:
        probes = rng.standard_normal((trials, dim)).T
    width = max(1, 2**12 // dim)
    for start in range(0, trials, width):
        yield probes[:, start : start + width]
    for start in range(0, dim, width):
        yield np.eye(dim, min(width, dim - start), -start, dtype=probes.dtype)


def validate_edge_domination(
    scheme: LsccScheme, trials: int = 200, rng: np.random.Generator | None = None
) -> ValidationReport:
    """Check ||Psi_uv f||_p <= C1 * min(||Phi_u f||_p, ||Phi_v f||_p) on probes.

    Probes are taken in order, and the edges of each probe in `graph.edges`
    order; the first pair whose min(...) vanishes against ||Psi_uv f||_p
    fails the check, otherwise the first worst pair is the witness.
    """
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    p, edges = scheme.p, scheme.graph.edges
    worst = 0.0
    witness = None
    for probes in _probe_chunks(scheme, trials, rng):
        n_psi = scheme.edge_operator.power_sums(probes, p) ** (1.0 / p)
        n_phi = scheme.vertex_operator.power_sums(probes, p) ** (1.0 / p)
        low = np.minimum(n_phi[scheme.graph.u], n_phi[scheme.graph.v])
        lost = (n_psi != 0.0) & (low <= DENOM_CUTOFF * n_psi)
        ratios = np.divide(n_psi, low, out=np.zeros_like(n_psi), where=(n_psi != 0.0) & ~lost)
        ratios[lost] = math.inf
        if ratios.size:
            t, e = divmod(int(np.argmax(ratios.T)), len(edges))  # first in probe order
            if ratios[e, t] > worst:
                worst, witness = float(ratios[e, t]), (edges[e], probes[:, t].copy())
        if math.isinf(worst):
            break
    passed = worst <= scheme.edge_domination * (1.0 + 1e-9)
    detail = {"declared_c1": scheme.edge_domination}
    if math.isinf(worst):
        detail["edge"] = witness[0]
    return ValidationReport(
        check="edge-domination",
        passed=passed,
        worst=worst,
        detail=detail,
        witness=witness if not passed else None,
    )


def validate_exhaustion(
    scheme: LsccScheme, trials: int = 200, rng: np.random.Generator | None = None
) -> ValidationReport:
    """Check the declared norm equivalence of f against (sum_v ||P_v f||_p^p)^(1/p).

    The sum counts |f_i|^p once per support holding coordinate i; the
    witnesses are the first probes reaching the lowest and highest ratio.
    """
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    p = scheme.p
    vertex_supports = scheme._flat[: scheme._bounds[scheme.num_vertices]]
    cover = np.bincount(vertex_supports, minlength=scheme.ambient_dim)
    lo, hi = math.inf, 0.0
    witness_lo = witness_hi = None
    for probes in _probe_chunks(scheme, trials, rng):
        powers = np.abs(probes) ** p
        base = np.sum(powers, axis=0)
        live = np.flatnonzero(base > 0.0)
        ratios = (cover @ powers[:, live]) ** (1.0 / p) / base[live] ** (1.0 / p)
        if live.size and ratios.min() < lo:
            lo, witness_lo = float(ratios.min()), probes[:, live[np.argmin(ratios)]].copy()
        if live.size and ratios.max() > hi:
            hi, witness_hi = float(ratios.max()), probes[:, live[np.argmax(ratios)]].copy()
    passed = lo >= scheme.exhaustion_lower * (1.0 - 1e-9) and hi <= scheme.exhaustion_upper * (
        1.0 + 1e-9
    )
    return ValidationReport(
        check="exhaustion",
        passed=passed,
        worst=hi,
        detail={
            "observed": [lo, hi],
            "declared": [scheme.exhaustion_lower, scheme.exhaustion_upper],
        },
        witness=None if passed else (witness_lo, witness_hi),
    )


def validate_scheme(
    scheme: LsccScheme, trials: int = 200, rng: np.random.Generator | None = None
) -> list[ValidationReport]:
    rng = np.random.default_rng(0) if rng is None else rng
    return [
        validate_local_phase_retrieval(scheme, trials, rng),
        validate_edge_domination(scheme, trials, rng),
        validate_exhaustion(scheme, trials, rng),
    ]


def _block_columns(block: np.ndarray, field: str) -> tuple[np.ndarray, list]:
    """A local block's nonzero columns: their mask, and the block over them as
    nested lists (a complex entry as [re, im])."""
    keep = (block != 0).any(axis=0)
    block = block[:, keep]
    if field == COMPLEX:
        block = np.stack([block.real, block.imag], axis=-1)
    return keep, block.tolist()


def _block_to_dict(support: np.ndarray, block: np.ndarray, field: str) -> dict:
    """A local block as {m, support, block}: its nonzero columns only."""
    keep, rows = _block_columns(block, field)
    return {"m": len(rows), "support": support[keep].tolist(), "block": rows}


def _block_from_dict(entry: dict, n: int, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The (support, block) pair `_block_to_dict` wrote."""
    m = int(entry["m"])
    support = _as_support(entry["support"], n)
    shape = (m, support.size, 2) if field == COMPLEX else (m, support.size)
    block = np.reshape(np.asarray(entry["block"], dtype=np.float64), shape)
    if field == COMPLEX:
        block = block.view(np.complex128)[..., 0]
    return support, block


def _descriptor_fields(scheme: LsccScheme) -> dict:
    """Every descriptor field but the per-object lists."""
    return {
        "version": DESCRIPTOR_VERSION,
        "name": scheme.name,
        "field": scheme.field,
        "p": scheme.p,
        "n": scheme.ambient_dim,
        "graph": {
            "V": list(scheme.vertex_labels),
            "edges": np.stack((scheme.graph.u, scheme.graph.v), axis=1).tolist(),
        },
        "constants": {
            "D": scheme.graph.degree_bound,
            "C0": scheme.local_stability,
            "C1": scheme.edge_domination,
            "A": scheme.frame_lower,
            "B": scheme.frame_upper,
        },
        "exhaustion": [scheme.exhaustion_lower, scheme.exhaustion_upper],
    }


def scheme_to_dict(scheme: LsccScheme) -> dict:
    """Descriptor v2: projections as supports, frames and functionals as local blocks."""
    d = _descriptor_fields(scheme)
    pairs = {
        "frames": zip(scheme.vertex_projections, (fr.rows for fr in scheme.vertex_frames)),
        "edgeFunctionals": zip(scheme.edge_supports.values(), scheme.edge_functionals.values()),
    }
    for key, objects in pairs.items():
        d[key] = [_block_to_dict(support, block, scheme.field) for support, block in objects]
    d["projections"] = [support.tolist() for support in scheme.vertex_projections]
    return d


def _descriptor_fragments(scheme: LsccScheme):
    """`json.dumps(scheme_to_dict(scheme), sort_keys=True, separators=(",", ":"))`
    as a sequence of ASCII byte fragments whose concatenation is that text.

    Neither the text nor the dict is built.  Each list is written one run of
    consecutive objects at a time: objects sharing a block (for projections, a
    support length) have supports of one width, so a run is one (k, s) slice
    of the CSR table, cut into chunks of about _TEXT_BYTES of text.  A chunk
    is its first object's head, then one `%` format of "support, next head",
    the support as "%d" slots, repeated over the chunk's ints.
    """
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    flat, bounds, blocks, block_of = scheme._flat, scheme._bounds, scheme._blocks, scheme._block_of
    digits = len(str(scheme.ambient_dim))  # the widest coordinate's text

    def block_head(k: int) -> tuple:
        """(kept columns or None, head up to the support, tail) of object k's block."""
        keep, rows = _block_columns(blocks[block_of[k]], scheme.field)
        prefix = f'{{"block":{dumps(rows)},"m":{len(rows)},"support":'
        return None if keep.all() else keep, prefix, "}"

    def texts(lo: int, hi: int, keys: np.ndarray, head):
        """Objects lo..hi-1, comma separated, one run of equal `keys` at a time."""
        # keys are >= 0, so the first object starts a run; no objects, no runs
        first = np.flatnonzero(np.diff(keys[lo:hi], prepend=-1)) + lo
        runs = first, np.append(first[1:], hi), bounds[first], bounds[first + 1] - bounds[first]
        for a, b, at, width in zip(*(column.tolist() for column in runs)):
            keep, prefix, suffix = head(a)
            kept = width if keep is None else int(keep.sum())
            support = "[" + ("%d," * kept)[:-1] + "]" + suffix
            inner = support + "," + prefix  # an object's support, then the next one's head
            step = max(1, _TEXT_BYTES // (len(inner) + kept * digits))
            for c in range(a, b, step):
                k = min(step, b - c)
                ints = flat[at + (c - a) * width : at + (c - a + k) * width]
                if keep is not None:
                    ints = ints.reshape(k, width)[:, keep].ravel()
                template = inner * (k - 1) + support + ("" if c + k == hi else ",")
                yield prefix.encode()
                yield (template % tuple(ints.tolist())).encode()

    n_v = scheme.num_vertices
    lists = {
        "frames": texts(0, n_v, block_of, block_head),
        "edgeFunctionals": texts(n_v, block_of.size, block_of, block_head),
        "projections": texts(0, n_v, np.diff(bounds[: n_v + 1]), lambda k: (None, "", "")),
    }
    fields = _descriptor_fields(scheme)
    for k, key in enumerate(sorted([*fields, *lists])):
        yield (("{" if k == 0 else ",") + dumps(key) + ":").encode()
        if key in fields:
            yield dumps(fields[key]).encode()
            continue
        yield b"["
        yield from lists[key]
        yield b"]"
    yield b"}"


def scheme_from_dict(d: dict) -> LsccScheme:
    version = d.get("version") if isinstance(d, dict) else None
    if version != DESCRIPTOR_VERSION:
        raise SchemeError(
            f"scheme descriptor version {version!r} is not supported; expected "
            f"version {DESCRIPTOR_VERSION} (supports and local blocks)"
        )
    try:
        field = d["field"]
        p = float(d["p"])
        n = int(d["n"])
        labels = tuple(d["graph"]["V"])
        graph = BaseGraph(len(labels), d["graph"]["edges"])
        consts = d["constants"]
        projections = _as_supports(d["projections"], n)
        frames = []
        for projection, entry in zip(projections, d["frames"], strict=True):
            support, block = _block_from_dict(entry, n, field)
            if not np.all(np.isin(support, projection)):
                raise SchemeError("a frame's support must lie inside its projection's support")
            rows = np.zeros((block.shape[0], projection.size), dtype=block.dtype)
            rows[:, np.searchsorted(projection, support)] = block
            frames.append(Frame(rows, p, field, float(consts["A"]), float(consts["B"])))
        pairs = [_block_from_dict(entry, n, field) for entry in d["edgeFunctionals"]]
        supports, functionals = zip(*pairs) if pairs else ((), ())
        lo, hi = d.get("exhaustion", [0.0, math.inf])
        return LsccScheme(
            name=d.get("name", "loaded"),
            field=field,
            p=p,
            ambient_dim=n,
            graph=graph,
            vertex_frames=tuple(frames),
            vertex_projections=projections,
            edge_functionals=functionals,
            edge_supports=supports,
            local_stability=float(consts["C0"]),
            edge_domination=float(consts["C1"]),
            frame_lower=float(consts["A"]),
            frame_upper=float(consts["B"]),
            exhaustion_lower=float(lo),
            exhaustion_upper=float(hi),
            vertex_labels=labels,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemeError(f"malformed scheme descriptor: {exc!r}") from exc


def scheme_to_json(scheme: LsccScheme) -> str:
    """Compact, key-sorted descriptor JSON; `descriptor_hash` hashes exactly this."""
    return b"".join(_descriptor_fragments(scheme)).decode()


def scheme_from_json(text: str) -> LsccScheme:
    return scheme_from_dict(json.loads(text))
