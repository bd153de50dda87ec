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
from .scheme import LsccScheme, path_graph

FIXTURE_CONNECTED = (1.0, 2.0, 3.0, 4.0)
FIXTURE_BROKEN = (1.0, 2.0, 0.0, 1.0)
FIXTURE_BROKEN_TWIN = (1.0, 2.0, 0.0, -1.0)
FIXTURE_LOCAL = (1.0, 8.0, 0.0, 0.0)

_LOCAL_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def toy_scheme() -> LsccScheme:
    svals = np.linalg.svd(_LOCAL_ROWS, compute_uv=False)
    lower, upper = float(svals[-1]), float(svals[0])
    c0 = real_local_stability(_LOCAL_ROWS, sigma_strong(_LOCAL_ROWS))
    frame = Frame(_LOCAL_ROWS, p=2.0, field=REAL, lower=lower, upper=upper)
    return LsccScheme(
        name="toy",
        field=REAL,
        p=2.0,
        ambient_dim=4,
        graph=path_graph(3),
        vertex_frames=(frame,) * 3,
        vertex_projections=np.arange(3)[:, None] + np.arange(2),
        edge_functionals=(np.ones((1, 1)),) * 2,
        edge_supports=np.arange(1, 3)[:, None],
        local_stability=c0,
        edge_domination=1.0 / lower,
        frame_lower=lower,
        frame_upper=upper,
        exhaustion_lower=1.0,
        exhaustion_upper=math.sqrt(2.0),
    )
