"""Drive the finite-difference oracle through the isocurv library API.

The oracle has no subcommand, so the benchmark runs this script as a child
process, the way a library user would call it:

    PYTHONPATH=src python bench/oracle_child.py CASES.json

CASES.json is {"tol_rel": t, "cases": [{"surface": text, "points": [[x, y], ...]}]}.
For every point the script evaluates eval_jet, fd_jet and compare and
prints one JSON object with their components, deviations and flags.
"""

from __future__ import annotations

import json
import sys

from isocurv import expr, oracle

COMPONENTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")


def run(doc: dict) -> dict:
    out = []
    tol_rel = doc["tol_rel"]
    for case in doc["cases"]:
        surface = expr.parse(case["surface"])
        jets, fds, devs, flags = [], [], [], []
        for x, y in case["points"]:
            jet = expr.eval_jet(surface, (x, y))
            fd = oracle.fd_jet(surface, (x, y))
            cmp = oracle.compare(jet, fd, tol_rel)
            jets.append([getattr(jet, c) for c in COMPONENTS])
            fds.append([getattr(fd, c) for c in COMPONENTS])
            devs.append([cmp.deviations[c] for c in COMPONENTS])
            flags.append(list(cmp.flagged))
        out.append({"jets": jets, "fd": fds, "deviations": devs, "flagged": flags})
    return {"cases": out}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        json.dump(run(json.load(fh)), sys.stdout, allow_nan=False)
    sys.stdout.write("\n")
