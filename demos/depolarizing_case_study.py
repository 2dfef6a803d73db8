"""Walk through the depolarizing-channel case study.

The single-qubit depolarizing channel E_lam keeps a state with probability
lam and replaces it with the complete mixture otherwise.  Three critical
values of lam govern how much entanglement survives when the same noise
hits every qubit of a composite system:

  * lam <= 1/3       the channel is entanglement-breaking (EB)
  * lam <= 1/sqrt(3) two copies annihilate all two-qubit entanglement (2-LEA)
  * lam >  0.5567    three copies provably fail to annihilate (GHZ witness)

Run:  python demos/depolarizing_case_study.py
"""

import numpy as np

from ealab import (
    Partition,
    apply_local,
    bisect_threshold,
    depolarizing,
    ghz,
    ghz_three_lea_min_eig,
    partial_transpose,
    ppt_min_eigenvalue,
    schmidt_pure,
    two_lea_min_eig_depolarizing,
    two_lea_pt_eigenvalues,
    werner,
)

print("=" * 72)
print("1. The three critical noise parameters")
print("=" * 72)

eb = bisect_threshold(
    lambda lam: ppt_min_eigenvalue(werner(lam, 2), Partition((0,), (1,))),
    (0.1, 0.6),
    tol=1e-9,
    criterion_id="eb",
)
two = bisect_threshold(two_lea_min_eig_depolarizing, (0.3, 0.9), tol=1e-9)
three = bisect_threshold(ghz_three_lea_min_eig, (0.3, 0.9), tol=1e-9)

print(f"EB boundary      : lam = {eb.critical_value:.9f}   (exact: 1/3)")
print(f"2-LEA boundary   : lam = {two.critical_value:.9f}   (exact: 1/sqrt(3))")
print(f"3-LEA PPT bound  : lam = {three.critical_value:.9f}   (root of 4x^3+x^2-1)")

print()
print("=" * 72)
print("2. Closed-form PT spectrum of a locally depolarized pair")
print("=" * 72)
print()
print("Send both halves of sqrt(q0)|00> + sqrt(q1)|11> through E_lam and")
print("partially transpose the output.  The four eigenvalues have closed")
print("forms; only the last can go negative, and its worst case over q0")
print("sits at the balanced weight q0 = 1/2.")
print()

lam = 0.6
print(f"lam = {lam}")
print(f"{'q0':>6} {'eig1':>10} {'eig2':>10} {'eig+':>10} {'eig-':>10} {'numeric min':>12}")
for q0 in (0.0, 0.25, 0.5, 0.75, 1.0):
    mu = two_lea_pt_eigenvalues(lam, q0)
    out = apply_local(depolarizing(lam, 2), schmidt_pure(q0))
    numeric = np.linalg.eigvalsh(partial_transpose(out.matrix, (2, 2), (1,)))[0]
    print(
        f"{q0:>6.2f} {mu[0]:>10.6f} {mu[1]:>10.6f} {mu[2]:>10.6f} "
        f"{mu[3]:>10.6f} {numeric:>12.6f}"
    )

print()
print("=" * 72)
print("3. How the verdicts change across the noise range")
print("=" * 72)
print()
print(f"{'lam':>5} {'werner PT':>10} {'pair worst':>11} {'GHZ PT':>9}  interpretation")
for lam in np.linspace(0.0, 1.0, 11):
    w = ppt_min_eigenvalue(werner(lam, 2), Partition((0,), (1,)))
    pair = two_lea_min_eig_depolarizing(lam)
    triple = ghz_three_lea_min_eig(lam)
    if w >= -1e-9:
        note = "entanglement-breaking"
    elif pair >= -1e-9 and triple >= -1e-9:
        note = "2-LEA; 3-LEA undecided by PPT"
    elif pair >= -1e-9:
        note = "2-LEA but provably not 3-LEA"
    else:
        note = "not even 2-LEA"
    print(f"{lam:>5.2f} {w:>10.4f} {pair:>11.4f} {triple:>9.4f}  {note}")

print()
print("=" * 72)
print("4. The GHZ state as the three-party witness")
print("=" * 72)
print()
lam = 1 / np.sqrt(3)
out = apply_local(depolarizing(lam, 2), ghz(3))
for part in (Partition((0,), (1, 2)), Partition((0, 1), (2,))):
    val = ppt_min_eigenvalue(out, part)
    print(f"min PT eigenvalue across {part.label():>5}: {val:+.8f}")
print()
print("At lam = 1/sqrt(3) the pair channel annihilates every two-qubit")
print("entangled state, yet the GHZ state keeps multi-party entanglement")
print("alive under the same per-qubit noise.")
