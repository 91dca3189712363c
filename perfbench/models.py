"""Heisenberg-type frame models of any even codimension, generated as JSON.

h_q has one leaf direction u_1 and horizontal u_2..u_{q+1} with brackets
[u_{2j}, u_{2j+1}] = u_1 for j = 1..q/2 (a Heisenberg algebra of dimension
q+1), the standard complex structure J, and the line bundle whose curvature
has diagonal blocks B(f_{2j-1}, f_{2j}) = -i*j.  Every such model is
admissible (nilpotent, bundle-like, unimodular), its mean curvature vanishes,
and all nine identities of the exact suite hold on it.
"""

from __future__ import annotations

import json
from pathlib import Path


def heisenberg_model(q: int) -> dict:
    """Model dictionary in the transdirac JSON model format."""
    if q < 2 or q % 2:
        raise ValueError(f"codimension q={q} must be even and >= 2")
    brackets = [[2 * j, 2 * j + 1, 1, "1"] for j in range(1, q // 2 + 1)]
    jrows = [["0"] * q for _ in range(q)]
    brows = [["0"] * q for _ in range(q)]
    for j in range(q // 2):
        a, b = 2 * j, 2 * j + 1
        jrows[b][a] = "1"      # J f_a = f_b
        jrows[a][b] = "-1"
        brows[a][b] = f"-{j + 1}i"
        brows[b][a] = f"{j + 1}i"
    return {"name": f"h{q}", "p": 1, "q": q, "brackets": brackets,
            "line_bundle": {"B": brows}, "J": jrows, "twist_dim": 1}


def write_heisenberg_model(q: int, directory: Path) -> Path:
    path = Path(directory) / f"h{q}.json"
    path.write_text(json.dumps(heisenberg_model(q), indent=1) + "\n", encoding="utf-8")
    return path
