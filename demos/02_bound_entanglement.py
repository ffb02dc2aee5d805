"""Bound entangled edge states and the kernel witnesses that detect them.

A bound entangled state is PPT, so no decomposable witness sees it.  For
an edge state, the projectors onto its kernel and onto the kernel of its
partial transpose combine into a block-positive operator whose
product-vector minimum epsilon is strictly positive; shifting by
delta < epsilon gives a nondecomposable witness with negative expectation
on the state.  The tiles construction shows why the margin matters: drop
one tile vector and the kernel projectors of the remaining PPT state
drive epsilon to zero.
"""

import numpy as np

from ews import (
    BipartiteOperator,
    NdewParams,
    canonical_state,
    eig_hermitian,
    is_ppt,
    ndew_from_edge,
    tiles_upb_state,
    tiles_upb_vectors,
)
from ews.errors import EpsilonVanishesError

print("=" * 70)
print("The 2x4 edge state family")
print("=" * 70)
for b in (0.5, 0.9, 0.99):
    rb = canonical_state("rho_b", b=b)
    rank = int((eig_hermitian(rb.mat).values > 1e-10).sum())
    print(f"b = {b}: rank {rank}, PPT: {is_ppt(rb)}")

rb = canonical_state("rho_b", b=0.9)
w = ndew_from_edge(rb, NdewParams(), restarts=64, seed=7)
print(f"\nkernel witness at b = 0.9:")
print(f"  product-vector margin epsilon ~ {w.provenance['epsilon_estimate']:.6f} "
      f"({w.provenance['restarts_agreeing']} of {w.provenance['restarts_tried']} "
      "restarts agree)")
print(f"  detection value tr(W rho)     = {w.provenance['expectation']:+.3e}")
print(f"  smallest witness eigenvalue   = "
      f"{eig_hermitian(w.op.mat).values[-1]:+.6f}")

print()
print("=" * 70)
print("Two-qutrit states")
print("=" * 70)
gamma = canonical_state("gamma")
print(f"gamma: trace = {gamma.trace()}, PPT: {is_ppt(gamma)}")
wg = ndew_from_edge(gamma, NdewParams(), restarts=64, seed=7)
print(f"gamma detected with expectation {wg.provenance['expectation']:+.3e}")

print()
print("=" * 70)
print("The tiles construction: a vanishing margin")
print("=" * 70)
sigma = tiles_upb_state()
rank = int((eig_hermitian(sigma.mat).values > 1e-10).sum())
print(f"tiles complement state: rank {rank}, PPT: {is_ppt(sigma)}")

# keep only four of the five real product vectors: sigma4 = (I - P4)/5 is
# PPT, and it and its partial transpose both have kernel P4, so the fifth
# vector is a product vector with zero expectation and no identity shift
# survives
proj = sum(np.outer(v, v.conj()) for v in tiles_upb_vectors()[:4])
sigma4 = BipartiteOperator(3, 3, (np.eye(9) - proj) / 5.0)
try:
    ndew_from_edge(sigma4, NdewParams(), restarts=32, seed=11)
except EpsilonVanishesError as exc:
    print(f"four-vector projector pair fails as expected: {exc}")
