"""Scan for false kernel-witness certificates on ``gamma`` (FOUND 44).

    python3 tools/found44.py

Runs ``witness.ndew_from_edge`` on the canonical ``gamma`` edge state with
``delta = 0.05`` at seeds 0 to 99, at 4, 8 and 16 restarts.  The true
product-vector minimum of its kernel candidate is ``TRUE_MIN``, so a
backed search whose estimate has ``epsilon_estimate / 2`` above it yields
a witness with delta above the true minimum: one that is not block
positive, certified.  Prints one row per restart count: the backed
searches (those that did not raise ``NoConvergedRestartError``), how many
of them are false, and the first false seed with the command that
reproduces it on ``ews state --name gamma``.  Imports ``ews`` from this
checkout's ``src/``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRUE_MIN = 2.061148156e-3
DELTA = 0.05
SEEDS = range(100)
RESTARTS = (4, 8, 16)


def scan(restarts: int) -> tuple[int, list[int]]:
    """(backed searches, seeds whose estimate halved lies above TRUE_MIN)."""
    from ews import canonical_state
    from ews.errors import NoConvergedRestartError
    from ews.witness import NdewParams, ndew_from_edge

    gamma, params = canonical_state("gamma"), NdewParams(delta=DELTA)
    backed, false = 0, []
    for seed in SEEDS:
        try:
            w = ndew_from_edge(gamma, params, restarts=restarts, seed=seed)
        except NoConvergedRestartError:
            continue
        backed += 1
        if w.provenance["epsilon_estimate"] / 2 > TRUE_MIN:
            false.append(seed)
    return backed, false


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"gamma, delta {DELTA}, seeds 0-{SEEDS[-1]}; "
          f"false: epsilon_estimate / 2 > {TRUE_MIN}")
    print("restarts  backed  false  first false")
    for restarts in RESTARTS:
        backed, false = scan(restarts)
        first = "-"
        if false:
            first = f"ews ndew --restarts {restarts} --seed {false[0]} --delta {DELTA}"
        print(f"{restarts:>8}  {backed:>6}  {len(false):>5}  {first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
