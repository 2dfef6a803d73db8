"""Entanglement-annihilating does not imply entanglement-breaking.

An entanglement-breaking channel severs its system from every outside
ancilla.  An entanglement-annihilating channel only destroys entanglement
inside the system it acts on.  This script builds a channel with the second
property but not the first and, for contrast, one with the first but not
the second.

Run:  python demos/annihilating_without_breaking.py
"""

from ealab import (
    Partition,
    apply_local,
    choi_of,
    constant_channel,
    depolarizing,
    ea_falsify,
    ghz,
    max_entangled,
    ppt_min_eigenvalue,
    tensor_power,
    two_lea_verdict_depolarizing,
)
from ealab.criteria import TWO_LEA_EDGE

# the largest float at which the exact worst case 1 - 3 lam^2 is nonnegative;
# 1 / np.sqrt(3) lies one float above it, and there the verdict is
# Inconclusive
lam = TWO_LEA_EDGE
print("=" * 72)
print(f"1. The pair channel E ox E at lam = 1/sqrt(3) = {lam:.6f} (rounded down)")
print("=" * 72)
print()

verdict = two_lea_verdict_depolarizing(lam)
print(f"worst-case output PT eigenvalue over all pure inputs: "
      f"{verdict.witness_min_eig:+.2e}")
print(f"=> verdict {verdict.status.value}: the pair channel annihilates all")
print("   two-qubit entanglement (outputs are 2x2, where PPT is exact).")
print()

pair_choi = choi_of(tensor_power(depolarizing(lam, 2), 2))
choi_eig = ppt_min_eigenvalue(pair_choi, Partition((0,), (1,)))
print(f"yet its Choi operator has min PT eigenvalue {choi_eig:+.6f} < 0,")
print("so the pair channel is NOT entanglement-breaking: an outside ancilla")
print("can stay entangled with the pair after the noise acts.")
print()

ghz_out = apply_local(depolarizing(lam, 2), ghz(3))
eig = ppt_min_eigenvalue(ghz_out, Partition((0, 1), (2,)))
print("the witness behind that statement is the GHZ state: treating the")
print("third qubit as the ancilla and noising it too,")
print(f"  min PT eigenvalue of the triple output across 12|3 = {eig:+.6f}")
print("local noise on the ancilla cannot create entanglement, so the")
print("entanglement was already there before the ancilla noise -- the pair")
print("channel failed to break it.")

print()
print("=" * 72)
print("2. The reverse separation: breaking without annihilating")
print("=" * 72)
print()
target = max_entangled(2).density()
freeze = constant_channel(target)
report = ea_falsify(freeze, (2, 2), budget=5, seed=0)
print("the constant channel that outputs a fixed maximally entangled pair is")
print("measure-and-prepare, hence entanglement-breaking; but every output is")
print("entangled, so it annihilates nothing:")
print(
    f"  falsifier counterexample '{report.counterexample_label}' with "
    f"PT eigenvalue {report.min_eig_seen:+.4f}"
)
print()
print("conclusion: the two channel classes overlap but neither contains the")
print("other; 'destroys entanglement inside' and 'cuts entanglement to the")
print("outside' are genuinely different kinds of noise.")
