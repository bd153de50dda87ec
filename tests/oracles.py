"""Test oracles: routes the library no longer ships, kept so that tests can
check the shipped routes against an independent or older way to the same
answer.  Nothing under src/ imports this module."""

import itertools
import json
import math

import numpy as np

import lscc.harness as harness
from lscc.certify import _check_budget, _real, sigma_strong
from lscc.errors import InvalidWeightError
from lscc.graphs import WeightedGraph, graph_to_dict
from lscc.measurement import COMPLEX, pair_ratios
from lscc.scheme import LsccScheme, _block_columns, _descriptor_fields
from lscc.shiftinv import GeneratorModel
from lscc.windowed import WindowedConfig


def fuzz_samples_reference(
    scheme: LsccScheme, refs: int, per_ref: int, seed: int
) -> harness._FuzzSamples:
    """harness._fuzz_samples before the bracket screen: every column chunk
    scored by pair_ratios, the counts, maxima and collisions taken over all
    of them.  Reads harness._CHUNK and harness.derive_rng at call time, so
    monkeypatched values reach it."""
    rng = harness.derive_rng(seed, "fuzz", scheme.name)
    F, pairs, best, witness, collided, collision = [], [], [], [], [], []
    for k in range(refs):
        f = scheme.random_signal(rng)
        comparisons = scheme.random_signal(rng, per_ref)
        x = scheme.measure(f)
        width = max(1, harness._CHUNK // x.size)
        cols = np.split(comparisons, range(width, per_ref, width), axis=1)
        chunks = [pair_ratios(x, scheme.measure_batch(c), scheme.field, scheme.p) for c in cols]
        num, den, equivalent, hit = (np.concatenate(parts) for parts in zip(*chunks))
        good = np.flatnonzero(~equivalent)
        ratios = num[good] / den[good]
        F.append(f)
        pairs.append(good.size)
        best.append(np.max(ratios) if ratios.size else np.nan)
        j = good[np.argmax(ratios)] if ratios.size else None
        witness.append(np.zeros_like(f) if j is None else comparisons[:, j].copy())
        if np.any(hit):
            collided.append(k)
            collision.append(comparisons[:, np.argmax(hit)].copy())
    return harness._FuzzSamples(
        np.array(F),
        np.array(pairs, dtype=np.int64),
        np.array(best, dtype=np.float64),
        np.array(witness),
        np.array(collided, dtype=np.int64),
        np.array(collision).reshape(len(collided), scheme.ambient_dim),
    )


def min_singular(m: np.ndarray) -> float:
    """inf over unit c of ||M c||_2; zero when M has a nontrivial null space."""
    m = np.atleast_2d(m)
    if m.shape[0] == 0 or m.shape[0] < m.shape[1]:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def sigma_strong_recursive(m: np.ndarray) -> float:
    """Independent second enumeration path over subsets by size.

    Uses itertools.combinations instead of the branch and bound; shares only
    the singular value kernel, so agreement with sigma_strong is a
    structural cross-check.
    """
    m = _real(m)
    rows = m.shape[0]
    _check_budget(rows)
    all_rows = set(range(rows))
    best = math.inf
    for size in range(rows + 1):
        for combo in itertools.combinations(range(rows), size):
            rest = sorted(all_rows.difference(combo))
            val = max(min_singular(m[list(combo)]), min_singular(m[rest]))
            if val < best:
                best = val
    return best


def sigma_crosscheck(gen: GeneratorModel) -> tuple[float, float]:
    """Both subset-enumeration routes to sigma; they must agree bitwise."""
    return sigma_strong(gen.local_matrix), sigma_strong_recursive(gen.local_matrix)


def sample_class_signal(cfg: WindowedConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a member of the window class: moduli uniform in [s, t], random phases."""
    moduli = rng.uniform(cfg.s, cfg.t, cfg.d)
    if cfg.field == COMPLEX:
        return moduli * np.exp(2j * math.pi * rng.random(cfg.d))
    return moduli * np.where(rng.random(cfg.d) < 0.5, 1.0, -1.0)


def graph_to_json(g: WeightedGraph) -> str:
    return json.dumps(graph_to_dict(g), separators=(",", ":"), sort_keys=True)


def graph_from_json(text: str) -> WeightedGraph:
    return graph_from_dict(json.loads(text))


def graph_from_dict(d: dict) -> WeightedGraph:
    """The graph `graph_to_dict` wrote."""
    labels = tuple(d["V"])
    pos = {lab: i for i, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise InvalidWeightError("vertex labels must be distinct")
    try:
        edges = [(pos[u], pos[v], w) for u, v, w in d["edges"]]
    except KeyError as exc:
        raise InvalidWeightError(f"edge endpoint {exc.args[0]!r} is not a vertex label") from None
    return WeightedGraph(d["vertexWeights"], edges, labels)


def _block_to_dict(support: np.ndarray, block: np.ndarray, field: str) -> dict:
    """A local block as {m, support, block}: its nonzero columns only."""
    keep, rows = _block_columns(block, field)
    return {"m": len(rows), "support": support[keep].tolist(), "block": rows}


def scheme_to_dict(scheme: LsccScheme) -> dict:
    """Descriptor v2 as a dict, object by object: projections as supports,
    frames and functionals as local blocks.  `scheme_to_json`'s streamed
    writer must give exactly its compact, key-sorted `json.dumps`."""
    d = _descriptor_fields(scheme)
    pairs = {
        "frames": zip(scheme.vertex_projections, (fr.rows for fr in scheme.vertex_frames)),
        "edgeFunctionals": zip(scheme.edge_supports.values(), scheme.edge_functionals.values()),
    }
    for key, objects in pairs.items():
        d[key] = [_block_to_dict(support, block, scheme.field) for support, block in objects]
    d["projections"] = [support.tolist() for support in scheme.vertex_projections]
    return d
