"""The four-coordinate chain scheme used as the canonical fixture.

Signals live in R^4; vertex k of the 3-vertex path sees coordinates
(k, k+1) through the frame {e_k, e_{k+1}, e_k + e_{k+1}}, and consecutive
vertices are glued by the point evaluation on their shared coordinate.
"""

from __future__ import annotations

import math

import numpy as np

from .certify import real_local_stability, sigma_strong
from .measurement import REAL, Frame
from .scheme import BaseGraph, LsccScheme

FIXTURE_CONNECTED = (1.0, 2.0, 3.0, 4.0)
FIXTURE_BROKEN = (1.0, 2.0, 0.0, 1.0)
FIXTURE_BROKEN_TWIN = (1.0, 2.0, 0.0, -1.0)
FIXTURE_LOCAL = (1.0, 8.0, 0.0, 0.0)

_LOCAL_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def toy_scheme() -> LsccScheme:
    n = 4
    graph = BaseGraph(3, ((0, 1), (1, 2)), topology="path")
    frames = []
    projections = []
    for k in range(3):
        rows = np.zeros((3, n))
        rows[:, k : k + 2] = _LOCAL_ROWS
        frames.append(rows)
        projections.append([k, k + 1])
    functionals = {}
    for k in range(2):
        delta = np.zeros((1, n))
        delta[0, k + 1] = 1.0
        functionals[(k, k + 1)] = delta

    svals = np.linalg.svd(_LOCAL_ROWS, compute_uv=False)
    lower, upper = float(svals[-1]), float(svals[0])
    c0 = real_local_stability(_LOCAL_ROWS, sigma_strong(_LOCAL_ROWS))
    return LsccScheme(
        name="toy",
        field=REAL,
        p=2.0,
        ambient_dim=n,
        graph=graph,
        vertex_frames=tuple(
            Frame(rows, p=2.0, field=REAL, lower=lower, upper=upper) for rows in frames
        ),
        vertex_projections=tuple(projections),
        edge_functionals=functionals,
        local_stability=c0,
        edge_domination=1.0 / lower,
        frame_lower=lower,
        frame_upper=upper,
        exhaustion_lower=1.0,
        exhaustion_upper=math.sqrt(2.0),
    )
