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
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DimensionError, FieldError, SchemeError
from .graphs import WeightedGraph, is_connected
from .measurement import (
    COMPLEX,
    DENOM_CUTOFF,
    REAL,
    Frame,
    Signal,
    as_field_array,
    p_norm,
    pair_ratios,
)

RETRIEVABLE = "RetrievableByConnectivity"
INCONCLUSIVE = "Inconclusive"

#: layout of `scheme_to_dict`: supports and local blocks instead of dense matrices
DESCRIPTOR_VERSION = 2
#: relative weight threshold below which induced vertices/edges are dropped
DEFAULT_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class BaseGraph:
    """Unweighted simple graph with its maximum degree."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise SchemeError("graph needs at least one vertex")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise SchemeError(f"self-loop at {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise SchemeError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        if len(norm) != len(self.edges):
            raise SchemeError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def degree_bound(self) -> int:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg) if deg else 0


def path_graph(n: int) -> BaseGraph:
    return BaseGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> BaseGraph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1))
    return BaseGraph(n, tuple(edges))


@dataclass
class LsccScheme:
    """A validated-by-construction measurement scheme.

    Treat instances as immutable; every operation on them is pure.
    """

    name: str
    field: str
    p: float
    ambient_dim: int
    graph: BaseGraph
    vertex_frames: tuple[Frame, ...]
    vertex_projections: tuple[np.ndarray, ...]  # P_v as its sorted int64 coordinate support
    edge_functionals: dict[tuple[int, int], np.ndarray]
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
        if len(self.vertex_frames) != self.graph.num_vertices:
            raise SchemeError("one frame per vertex required")
        if len(self.vertex_projections) != self.graph.num_vertices:
            raise SchemeError("one projection per vertex required")
        for fr in self.vertex_frames:
            if fr.dim != self.ambient_dim:
                raise SchemeError("vertex frame dimension != ambient dimension")
        self.vertex_projections = tuple(
            _as_support(s, self.ambient_dim) for s in self.vertex_projections
        )
        keys = {tuple(sorted(e)) for e in self.edge_functionals}
        if keys != set(self.graph.edges):
            raise SchemeError("edge functionals must cover exactly the base edges")
        self.edge_functionals = {
            tuple(sorted(e)): as_field_array(mat, self.field)
            for e, mat in self.edge_functionals.items()
        }
        if not self.vertex_labels:
            self.vertex_labels = tuple(range(self.graph.num_vertices))

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @cached_property
    def measurement_operator(self) -> np.ndarray:
        """Conjugated frame rows stacked in vertex order: measure(f) = op @ f."""
        op = np.conj(np.vstack([fr.rows for fr in self.vertex_frames]))
        op.setflags(write=False)
        return op

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """Start of each vertex's rows in the operator, then the total row count."""
        return np.cumsum([0] + [fr.num_rows for fr in self.vertex_frames])

    def coerce(self, f) -> np.ndarray:
        if isinstance(f, Signal):
            f = f.values
        vec = as_field_array(f, self.field)
        if vec.ndim != 1 or vec.size != self.ambient_dim:
            raise DimensionError(
                f"signal of length {vec.size} incompatible with ambient dim {self.ambient_dim}"
            )
        return vec

    def signal_norm(self, f) -> float:
        return p_norm(self.coerce(f), self.p)

    def measure(self, f) -> np.ndarray:
        return self.measurement_operator @ self.coerce(f)

    def measure_batch(self, columns: np.ndarray) -> np.ndarray:
        return self.measurement_operator @ columns

    def phaseless(self, f) -> np.ndarray:
        return np.abs(self.measure(f))

    def vertex_operator(self, v: int) -> np.ndarray:
        """Rows of the measurement operator that belong to vertex v."""
        return self.measurement_operator[self.row_offsets[v] : self.row_offsets[v + 1]]

    def measure_vertex(self, v: int, f) -> np.ndarray:
        return self.vertex_operator(v) @ self.coerce(f)

    def measure_edge(self, edge: tuple[int, int], f) -> np.ndarray:
        mat = self.edge_functionals[tuple(sorted(edge))]
        return np.conj(mat) @ self.coerce(f)

    def random_signal(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        shape = (self.ambient_dim,) if count is None else (self.ambient_dim, count)
        if self.field == COMPLEX:
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return rng.standard_normal(shape)

    def descriptor_hash(self) -> str:
        return hashlib.sha256(scheme_to_json(self).encode()).hexdigest()


def _as_support(support, dim: int) -> np.ndarray:
    """Validate a coordinate support: sorted, distinct integers in [0, dim)."""
    arr = np.asarray(support)
    if arr.size == 0:
        arr = np.zeros(0, dtype=np.int64)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise SchemeError("a projection is given by its support: a 1-D array of integer indices")
    if np.any(np.diff(arr) <= 0):
        raise SchemeError("projection support must be sorted without duplicates")
    if arr.size and (arr[0] < 0 or arr[-1] >= dim):
        raise SchemeError(f"projection support leaves the coordinate range [0, {dim})")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _restrict(f: np.ndarray, support: np.ndarray) -> np.ndarray:
    """P_v f as a full-length vector: f on the support, zero elsewhere.

    Reductions over this vector are bit-identical to those over the dense
    product with the projection matrix.
    """
    out = np.zeros_like(f)
    out[support] = f[support]
    return out


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
    p = scheme.p
    w_v = np.add.reduceat(
        np.abs(scheme.measurement_operator @ vec) ** p, scheme.row_offsets[:-1]
    )
    w_e = {
        e: float(np.sum(np.abs(np.conj(mat) @ vec) ** p))
        for e, mat in scheme.edge_functionals.items()
    }
    w_max = max(float(np.max(w_v)) if w_v.size else 0.0, max(w_e.values(), default=0.0))
    if w_max == 0.0:
        return WeightedGraph(np.zeros(0), (), ())
    cut = zero_tol * w_max
    keep = [v for v in range(scheme.num_vertices) if w_v[v] > cut]
    pos = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        (pos[u], pos[v], w_e[(u, v)])
        for (u, v) in scheme.graph.edges
        if u in pos and v in pos and w_e[(u, v)] > cut
    )
    labels = tuple(scheme.vertex_labels[v] for v in keep)
    return WeightedGraph(w_v[keep], edges, labels)


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


def _probe_pairs(scheme: LsccScheme, v: int, trials: int, rng: np.random.Generator):
    """Random pairs in range(P_v), preceded by canonical basis probes.

    The sum/difference pairs (b_i + b_j, b_i - b_j) are the classic witnesses
    against frames whose rows split into two rank-deficient halves, so they
    catch non-retrievable local frames deterministically.
    """
    support = scheme.vertex_projections[v]
    basis = []
    for i in support[:4]:
        e = np.zeros(scheme.ambient_dim)
        e[i] = 1.0
        basis.append(e)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            yield basis[i], basis[j]
            if j > i:
                yield basis[i] + basis[j], basis[i] - basis[j]
    for _ in range(trials):
        fv = _restrict(scheme.random_signal(rng), support)
        yield fv, _restrict(scheme.random_signal(rng), support)


def validate_local_phase_retrieval(
    scheme: LsccScheme,
    trials: int = 200,
    rng: np.random.Generator | None = None,
    estimate: bool = False,
) -> ValidationReport:
    """Sample pairs inside each vertex subspace and compare the aligned
    measurement distance against the phaseless distance (`pair_ratios`:
    phase-equivalent pairs pass, a collision fails the check).

    Also reports empirical per-vertex frame constants (min/max of
    ||Phi_v f||_p / ||f||_p) and their envelope.  In estimate mode the worst
    ratio is reported as a lower bound for C0 instead of a pass/fail.
    """
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    witness = None
    frame_lo, frame_hi = math.inf, 0.0
    collision = False
    for v in range(scheme.num_vertices):
        op = scheme.vertex_operator(v)
        for fv, gv in _probe_pairs(scheme, v, trials, rng):
            x = op @ fv
            y = op @ gv
            for sig, meas in ((fv, x), (gv, y)):
                nrm = p_norm(sig, scheme.p)
                if nrm > 0.0:
                    r = p_norm(meas, scheme.p) / nrm
                    frame_lo = min(frame_lo, r)
                    frame_hi = max(frame_hi, r)
            num, den, equivalent, collides = pair_ratios(x, y, scheme.field, scheme.p)
            if collides:
                collision = True
                witness = (v, fv, gv)
            if equivalent:
                continue  # phase-equivalent pair: 0/0, counts as pass
            ratio = num / den
            if ratio > worst:
                worst = ratio
                witness = (v, fv, gv)
    declared = scheme.local_stability
    passed = (not collision) and (estimate or worst <= declared * (1.0 + 1e-9))
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


def validate_edge_domination(
    scheme: LsccScheme, trials: int = 200, rng: np.random.Generator | None = None
) -> ValidationReport:
    """Check ||Psi_uv f||_p <= C1 * min(||Phi_u f||_p, ||Phi_v f||_p) on probes."""
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    probes = [scheme.random_signal(rng) for _ in range(trials)]
    eye = np.eye(scheme.ambient_dim, dtype=np.complex128 if scheme.field == COMPLEX else np.float64)
    probes.extend(eye)
    worst = 0.0
    witness = None
    for f in probes:
        for (u, v), mat in sorted(scheme.edge_functionals.items()):
            n_psi = p_norm(np.conj(mat) @ f, scheme.p)
            n_u = p_norm(scheme.measure_vertex(u, f), scheme.p)
            n_v = p_norm(scheme.measure_vertex(v, f), scheme.p)
            low = min(n_u, n_v)
            if n_psi == 0.0:
                continue
            if low <= DENOM_CUTOFF * n_psi:
                return ValidationReport(
                    check="edge-domination",
                    passed=False,
                    worst=math.inf,
                    detail={"declared_c1": scheme.edge_domination, "edge": (u, v)},
                    witness=((u, v), f),
                )
            ratio = n_psi / low
            if ratio > worst:
                worst = ratio
                witness = ((u, v), f)
    passed = worst <= scheme.edge_domination * (1.0 + 1e-9)
    return ValidationReport(
        check="edge-domination",
        passed=passed,
        worst=worst,
        detail={"declared_c1": scheme.edge_domination},
        witness=witness if not passed else None,
    )


def validate_exhaustion(
    scheme: LsccScheme, trials: int = 200, rng: np.random.Generator | None = None
) -> ValidationReport:
    """Check the declared norm equivalence of f against (sum_v ||P_v f||_p^p)^(1/p)."""
    if trials < 1:
        raise SchemeError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    probes = [scheme.random_signal(rng) for _ in range(trials)]
    eye = np.eye(scheme.ambient_dim, dtype=np.complex128 if scheme.field == COMPLEX else np.float64)
    probes.extend(eye)
    lo, hi = math.inf, 0.0
    witness_lo = witness_hi = None
    for f in probes:
        base = p_norm(f, scheme.p)
        if base == 0.0:
            continue
        agg = 0.0
        for support in scheme.vertex_projections:
            agg += p_norm(_restrict(f, support), scheme.p) ** scheme.p
        ratio = agg ** (1.0 / scheme.p) / base
        if ratio < lo:
            lo, witness_lo = ratio, f
        if ratio > hi:
            hi, witness_hi = ratio, f
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


def _block_to_dict(mat: np.ndarray, field: str) -> dict:
    """A dense m x n matrix as {m, support, block}: its nonzero columns only."""
    mat = np.atleast_2d(mat)
    support = np.flatnonzero(np.any(mat != 0, axis=0))
    block = mat[:, support]
    if field == COMPLEX:
        block = np.stack([block.real, block.imag], axis=-1)
    return {"m": mat.shape[0], "support": support.tolist(), "block": block.tolist()}


def _block_from_dict(entry: dict, n: int, field: str) -> np.ndarray:
    """The exact dense rows `_block_to_dict` was given."""
    m = int(entry["m"])
    support = _as_support(entry["support"], n)
    shape = (m, support.size, 2) if field == COMPLEX else (m, support.size)
    block = np.reshape(np.asarray(entry["block"], dtype=np.float64), shape)
    if field == COMPLEX:
        block = block.view(np.complex128)[..., 0]
    mat = np.zeros((m, n), dtype=block.dtype)
    mat[:, support] = block
    return mat


def scheme_to_dict(scheme: LsccScheme) -> dict:
    """Descriptor v2: projections as supports, frames and functionals as local blocks."""
    return {
        "version": DESCRIPTOR_VERSION,
        "name": scheme.name,
        "field": scheme.field,
        "p": scheme.p,
        "n": scheme.ambient_dim,
        "graph": {
            "V": list(scheme.vertex_labels),
            "edges": [list(e) for e in scheme.graph.edges],
        },
        "frames": [_block_to_dict(fr.rows, scheme.field) for fr in scheme.vertex_frames],
        "projections": [support.tolist() for support in scheme.vertex_projections],
        "edgeFunctionals": [
            _block_to_dict(scheme.edge_functionals[e], scheme.field) for e in scheme.graph.edges
        ],
        "constants": {
            "D": scheme.graph.degree_bound,
            "C0": scheme.local_stability,
            "C1": scheme.edge_domination,
            "A": scheme.frame_lower,
            "B": scheme.frame_upper,
        },
        "exhaustion": [scheme.exhaustion_lower, scheme.exhaustion_upper],
    }


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
        edges = tuple(tuple(e) for e in d["graph"]["edges"])
        graph = BaseGraph(len(labels), edges)
        consts = d["constants"]
        frames = tuple(
            Frame(
                _block_from_dict(entry, n, field),
                p=p,
                field=field,
                lower=float(consts["A"]),
                upper=float(consts["B"]),
            )
            for entry in d["frames"]
        )
        functionals = {
            e: _block_from_dict(entry, n, field)
            for e, entry in zip(graph.edges, d["edgeFunctionals"])
        }
        lo, hi = d.get("exhaustion", [0.0, math.inf])
        return LsccScheme(
            name=d.get("name", "loaded"),
            field=field,
            p=p,
            ambient_dim=n,
            graph=graph,
            vertex_frames=frames,
            vertex_projections=tuple(d["projections"]),
            edge_functionals=functionals,
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
    return json.dumps(scheme_to_dict(scheme), sort_keys=True, separators=(",", ":"))


def scheme_from_json(text: str) -> LsccScheme:
    return scheme_from_dict(json.loads(text))


def check_projection_axioms(scheme: LsccScheme, tol: float = 1e-10) -> bool:
    """Structural identity Phi_v * P_v = Phi_v: every frame row vanishes off the
    support of P_v.  A coordinate projection is idempotent by construction."""
    for fr, support in zip(scheme.vertex_frames, scheme.vertex_projections):
        outside = np.delete(fr.rows, support, axis=1)
        if outside.size and np.max(np.abs(outside)) > tol:
            return False
    return True
