"""The four-coordinate chain scheme used as the canonical fixture.

Signals live in R^4; vertex k of the 3-vertex path sees coordinates
(k, k+1) through the frame {e_k, e_{k+1}, e_k + e_{k+1}}, and consecutive
vertices are glued by the point evaluation on their shared coordinate.
"""

from __future__ import annotations

import numpy as np

from .certify import p_frame_bounds, real_local_stability, sigma_strong
from .scheme import LsccScheme, sliding_scheme

FIXTURE_CONNECTED = (1.0, 2.0, 3.0, 4.0)
FIXTURE_BROKEN = (1.0, 2.0, 0.0, 1.0)
FIXTURE_BROKEN_TWIN = (1.0, 2.0, 0.0, -1.0)
FIXTURE_LOCAL = (1.0, 8.0, 0.0, 0.0)

_LOCAL_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def toy_scheme() -> LsccScheme:
    lower, upper = p_frame_bounds(_LOCAL_ROWS, 2.0)
    c0 = real_local_stability(_LOCAL_ROWS, sigma_strong(_LOCAL_ROWS))
    return sliding_scheme("toy", _LOCAL_ROWS, 1, 3, False, 2.0, c0, 1.0 / lower, (lower, upper))
