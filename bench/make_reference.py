"""Regenerate bench/reference.json from the lscc sources next to this file.

    python3 bench/make_reference.py

The references pin results that must not drift: for analyze-windowed, the
bound and spectral gap of every input seed, computed the way
`stability_report` computes them; for sweep-shiftinv, the Cheeger constant
of every radius.  They were generated once from the seed version of lscc and
are compared at 1e-9 relative.  Sampled worst ratios and scheme hashes are
left out on purpose: later changes may legitimately alter them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lscc.cli import resolve_scheme, resolve_signal  # noqa: E402
from lscc.graphs import algebraic_connectivity  # noqa: E402
from lscc.scheme import induce_graph  # noqa: E402
from lscc.shiftinv import POLYNOMIAL, DecayProfile, GeneratorModel, decay_cheeger_study  # noqa: E402
from lscc.stability import complex_bound  # noqa: E402

from workloads import INPUT_SEEDS, REFERENCE  # noqa: E402


def analyze_reference(seed: int) -> list[float]:
    scheme = resolve_scheme("windowed:a=2,L=64,field=complex", seed)
    f = scheme.coerce(resolve_signal("random", scheme, seed))
    graph = induce_graph(scheme, f)
    spectral = algebraic_connectivity(graph)
    return [complex_bound(scheme, f, spectral=spectral, graph=graph), spectral.lam]


def main() -> None:
    radii = [8 * 2**k for k in range(7)]  # the sweep's --Rmin 8 --Rmax 512
    rows = decay_cheeger_study(GeneratorModel(N=2), DecayProfile(POLYNOMIAL, 2.0), radii)
    refs = {
        "analyze-windowed": {str(s): analyze_reference(s) for s in range(INPUT_SEEDS)},
        "sweep-shiftinv": {str(row["R"]): row["cheeger"] for row in rows},
    }
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
