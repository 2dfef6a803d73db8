"""Fixed reference routines that measure how fast the machine runs right now.

On a shared host the same call can take twice as long from one second to the
next, and CPU time moves with wall time, so the slowdown is contention for the
core and its caches, not time spent off the CPU.  Timing a fixed routine that
uses no ealab code next to every measured call tracks that speed.  Dividing a
call's time by the routine's time next to it, and multiplying by the
routine's nominal time, gives the call's time on a machine where the routine
takes exactly ``NOMINAL_UNIT_S``: "reference-speed" time.

There are two routines, because calls slow differently.  Most of ealab's
calls spend their time in the interpreter: small dataclasses validated on
construction, short loops and many small numpy calls.  The "interp" routine
is mostly interpreted Python of that kind, plus a few small numpy calls.
A ``falsify --k 4`` call spends over 90% of its time in one einsum over a
625-operator stack, and the "kernel" routine takes one entry of such an
einsum.  Their inputs are fixed, so they do the same work on every commit;
they must not change, or reference-speed times stop being comparable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# About the seconds a unit of each routine takes on this benchmark's reference
# machine when the host is quiet (a 2-vCPU KVM guest on an Intel Xeon,
# model 143).
NOMINAL_UNIT_S = {"interp": 0.6e-3, "kernel": 0.8e-3}
# Reference time spent after each measured call, as a share of that call.
SHARE = 0.15
MAX_UNITS = 400


@dataclass(frozen=True)
class _Item:
    value: float
    weight: float

    def __post_init__(self):
        if not (isinstance(self.value, float) and self.weight >= 0.0):
            raise ValueError("bad item")


class SpeedProbe:
    """Times the reference unit; a time per unit shows the machine's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.herm = a + a.conj().T
        self.kraus = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        self.kraus_h = self.kraus.conj()
        self.pair = (self.herm[:2, :2], self.herm)
        # Successive kernel units take different entries, so together they
        # walk the whole 5 MB stack the way a full einsum does.
        self.big = rng.standard_normal((625, 16, 16)) + 1j * rng.standard_normal((625, 16, 16))
        self.big_h = self.big.conj()
        self.big_state = self.big[0] + self.big_h[0].T
        self.turn = 0
        self.units = {"interp": self.interp_unit, "kernel": self.kernel_unit}

    def interp_unit(self) -> float:
        s = 0.0
        buckets: dict[int, float] = {}
        for i in range(400):
            item = _Item(float(i), 0.5)
            buckets[i % 7] = buckets.get(i % 7, 0.0) + item.value * item.weight
            s += len([q for q in (item.value, item.weight) if q > 1.0])
        s += math.fsum(buckets.values())
        s += float(np.linalg.eigvalsh(self.herm)[0])
        out = np.einsum("kab,bc,kdc->ad", self.kraus, self.herm, self.kraus_h)
        s += float(out.real.trace())
        s += float(np.kron(*self.pair).real.sum())
        return s

    def kernel_unit(self) -> float:
        i, l = self.turn % 16, (7 * self.turn + 3) % 16
        self.turn += 1
        entry = np.einsum("nij,jk,nlk->il", self.big[:, i : i + 1], self.big_state,
                          self.big_h[:, l : l + 1])
        return float(entry.real.sum())

    def warm_up(self, seconds: float = 0.2) -> None:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for unit in self.units.values():
                unit()

    def measure(self, kind: str, call_seconds: float = 0.0) -> float:
        """Run enough ``kind`` units for ``SHARE`` of a call; return seconds per unit."""
        nominal = NOMINAL_UNIT_S[kind]
        units = min(MAX_UNITS, max(1, math.ceil(SHARE * call_seconds / nominal)))
        unit = self.units[kind]
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        return (time.perf_counter() - t0) / units
