"""The library-session workload: one process drives cantorlike's public API.

Usage: python3 perfbench/session.py INPUTS.json   (with cantorlike importable)

For each case it builds stage k and stage k+1, then checks identities that
tie the set operations of ``cantorlike.exact`` to the rest of the library:
total_length equals measure_at_depth, contains_point agrees with the
expected flags of the seeded points, stage k covers stage k+1 and, for the
self-similar families, one IFS step maps stage k onto stage k+1.
Prints "ok" and exits 0 when every identity holds; otherwise prints the
failed identities and exits 1.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import cantorlike as cl


def run(inputs: dict) -> list[str]:
    """Check every identity of every case; return the names of those that fail."""
    failed = []
    for i, case in enumerate(inputs["cases"]):
        family = cl.family_from_json(case["family"])
        k = case["depth"]
        stage = cl.iterate(family, k)
        following = cl.iterate(family, k + 1)
        if stage.total_length != cl.measure_at_depth(family, k):
            failed.append(f"case {i}: total_length")
        points = [(Fraction(x), inside) for x, inside in case["points"]]
        if any(stage.contains_point(x) != inside for x, inside in points):
            failed.append(f"case {i}: contains_point")
        if not stage.covers(following):
            failed.append(f"case {i}: covers")
        if case["ifs"] and cl.ifs_step(stage, cl.ifs_maps(family)) != following:
            failed.append(f"case {i}: ifs_step")
    return failed


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        failed = run(json.load(fh))
    print("\n".join(failed) if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
