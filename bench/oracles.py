"""Output checks, written without any ealab code.

Channel application here goes through the Choi matrix of the single-site
channel, built straight from the channel description, and partial transposes
and spectra come from numpy.  A check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

VERDICT_TOL = 1e-9
EB = 1.0 / 3.0
TWO_LEA = 1.0 / math.sqrt(3.0)
CSV_HEADER = (
    "lambda,min_mu_2lea,ghz_mu_3lea,werner_min_eig,"
    "verdict_2lea,verdict_eb,verdict_3lea_ppt"
)


def _three_lea_root() -> float:
    """Real root of 4x^3 + x^2 - 1, by Newton's method from 0.5."""
    x = 0.5
    for _ in range(50):
        x -= (4 * x**3 + x**2 - 1) / (12 * x**2 + 2 * x)
    return x


THREE_LEA = _three_lea_root()
THRESHOLDS = (EB, TWO_LEA, THREE_LEA)


def choi(spec: dict) -> np.ndarray:
    """Choi matrix (out, in) of a qubit channel description, trace one."""
    if spec["kind"] == "depolarizing":
        lam = spec["lambda"]
        phi = np.zeros(4)
        phi[[0, 3]] = 1 / math.sqrt(2)
        return lam * np.outer(phi, phi) + (1 - lam) * np.eye(4) / 4
    omega = np.zeros((4, 4), dtype=complex)
    for rows in spec["ops"]:
        k = np.array([[re + 1j * im for re, im in row] for row in rows])
        v = k.reshape(-1)
        omega += np.outer(v, v.conj()) / 2
    return omega


def apply_sitewise(omega: np.ndarray, rho: np.ndarray, k: int) -> np.ndarray:
    """Apply the channel with Choi matrix ``omega`` to each of k qubits.

    E(X)_ab = d * sum_ij Omega[(a,i),(b,j)] X_ij, applied factor by factor.
    """
    w = 2 * omega.reshape(2, 2, 2, 2)  # [a, i, b, j]
    t = rho.reshape((2,) * (2 * k))
    for s in range(k):
        t = np.moveaxis(t, (s, k + s), (0, 1))
        t = np.einsum("aibj,ij...->ab...", w, t)
        t = np.moveaxis(t, (0, 1), (s, k + s))
    return t.reshape(2**k, 2**k)


def pt_min_eig(rho: np.ndarray, k: int, second: tuple[int, ...]) -> float:
    t = rho.reshape((2,) * (2 * k))
    axes = list(range(2 * k))
    for i in second:
        axes[i], axes[k + i] = axes[k + i], axes[i]
    g = t.transpose(axes).reshape(2**k, 2**k)
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])


def _parse_partition(label: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first, second = label.split("|")
    return tuple(int(c) for c in first), tuple(int(c) for c in second)


def expected_found(spec: dict, k: int) -> bool | None:
    """Known falsifier outcome for a depolarizing channel, None if open.

    At lambda <= 1/3 the channel breaks entanglement, so nothing survives at
    any k.  At k = 2, 1/sqrt(3) is the exact 2-LEA threshold.  Past 1/sqrt(3)
    a Bell pair on two of the k sites stays entangled (the embedded
    maximally entangled probe), and at k = 3 the GHZ witness is negative
    past the root of 4x^3 + x^2 - 1.
    """
    if spec["kind"] != "depolarizing":
        return None
    lam = spec["lambda"]
    if lam <= EB or (k == 2 and lam <= TWO_LEA):
        return False
    if lam > TWO_LEA or (k == 3 and lam > THREE_LEA):
        return True
    return None


def check_falsify(op, code: int, out: str) -> tuple[list[str], int]:
    """Problems with one falsify call, and the trials it reports."""
    lines = out.splitlines()
    if len(lines) != 1:
        return [f"expected one line of JSON, got {len(lines)} lines"], 0
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"], 0
    problems = []
    found = rep.get("counterexample_found")
    trials = rep.get("trials_used", 0)
    if code != (1 if found else 0):
        problems.append(f"exit code {code} disagrees with counterexample_found={found}")
    n_parts = 2 ** (op.k - 1) - 1
    n_probes = 2 + n_parts
    if len(rep.get("partitions_checked", ())) != n_parts:
        problems.append("wrong number of partitions checked")
    if rep.get("seed") != op.seed:
        problems.append(f"report seed {rep.get('seed')} is not {op.seed}")
    if found:
        if not 1 <= trials <= n_probes + op.budget:
            problems.append(f"trials_used {trials} outside [1, {n_probes + op.budget}]")
    elif trials != n_probes + op.budget:
        problems.append(f"no counterexample after {trials} of {n_probes + op.budget} trials")
    expected = expected_found(op.spec, op.k)
    if expected is not None and found != expected:
        problems.append(
            f"lambda={op.spec['lambda']:.6f} k={op.k}: counterexample_found={found}, "
            f"expected {expected}"
        )
    seen = rep.get("min_eig_seen")
    if not isinstance(seen, float) or not math.isfinite(seen):
        problems.append(f"min_eig_seen {seen!r} is not a finite number")
    elif found:
        problems += _reverify(op, rep["counterexample"], seen)
    elif seen < -VERDICT_TOL:
        problems.append(f"min_eig_seen {seen} below -tol without a counterexample")
    return problems, int(trials)


def _reverify(op, cex: dict, seen: float) -> list[str]:
    amp = np.array([re + 1j * im for re, im in cex["state"]])
    if cex.get("dims") != [2] * op.k or amp.size != 2**op.k:
        return ["counterexample has wrong dimensions"]
    if abs(np.linalg.norm(amp) - 1.0) > 1e-9:
        return ["counterexample state is not normalized"]
    out = apply_sitewise(choi(op.spec), np.outer(amp, amp.conj()), op.k)
    low = pt_min_eig(out, op.k, _parse_partition(cex["partition"])[1])
    if low >= -VERDICT_TOL:
        return [f"counterexample does not re-verify: PT min eigenvalue {low:.3e}"]
    if abs(low - seen) > 1e-8:
        return [f"re-verified PT min eigenvalue {low:.12g} != min_eig_seen {seen:.12g}"]
    return []


def check_heuristic(op, verdict) -> list[str]:
    problems = []
    w = verdict.witness_min_eig
    status = verdict.status.value
    if not verdict.heuristic:
        problems.append("heuristic verdict not marked heuristic")
    if (verdict.partition.first, verdict.partition.second) != ((0,), (1,)):
        problems.append("heuristic verdict on the wrong partition")
    if not math.isfinite(w) or w < -0.5 - VERDICT_TOL:
        problems.append(f"witness {w} outside the two-qubit PT range")
        return problems
    if status != ("Entangled" if w < -VERDICT_TOL else "Inconclusive"):
        problems.append(f"status {status} inconsistent with witness {w:.3e}")
    if op.spec["kind"] == "depolarizing":
        lam = op.spec["lambda"]
        # Depolarizing noise is covariant, so Schmidt states reach the
        # minimum: the product state below lambda = 1/2, the Bell state above.
        exact = min((1 - lam) ** 2, 1 - 3 * lam * lam) / 4
        if w < exact - VERDICT_TOL:
            problems.append(f"witness {w:.12g} below the true minimum {exact:.12g}")
        if lam <= TWO_LEA and status == "Entangled":
            problems.append(f"Entangled at lambda={lam:.6f} <= 1/sqrt(3)")
        if lam >= 0.58 and status != "Entangled":
            problems.append(f"missed entanglement at lambda={lam:.6f} (min {exact:.3e})")
    return problems


def check_thresholds(code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = out.splitlines()
    if len(lines) != 3:
        return [f"expected 3 lines, got {len(lines)}"]
    problems = []
    for line, want in zip(lines, THRESHOLDS):
        try:
            got = float(line.split("critical lambda = ")[1].split()[0])
        except (IndexError, ValueError):
            problems.append(f"unparseable line {line!r}")
            continue
        if abs(got - want) > 1e-8:
            problems.append(f"threshold {got!r} is not within 1e-8 of {want!r}")
    return problems


def _expected_row(lam: float) -> tuple[list[float], list[str]]:
    mu2 = (1 - 3 * lam * lam) / 4
    ghz = 0.5 * ((1 - lam * lam) / 4 - lam**3)
    werner = (1 - 3 * lam) / 4
    verdicts = [
        "Entangled" if mu2 < -VERDICT_TOL else "SeparableCertified",
        "Entangled" if werner < -VERDICT_TOL else "SeparableCertified",
        "Entangled" if ghz < -VERDICT_TOL else "Inconclusive",
    ]
    return [lam, mu2, ghz, werner], verdicts


class SweepChecker:
    """Checks sweep CSVs; repeated sweeps of one grid must match byte for byte."""

    def __init__(self):
        self.digests: dict[int, str] = {}

    def check(self, op, code: int, out: str, csv: bytes) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if out.strip() != f"wrote {op.rows} rows to {op.argv[-1]}":
            return [f"unexpected stdout {out!r}"]
        digest = hashlib.sha256(csv).hexdigest()
        first = self.digests.setdefault(op.grid, digest)
        if digest != first:
            return [f"grid {op.grid}: CSV bytes differ from the first sweep of this grid"]
        if b"\r" in csv:
            return ["CSV has CR line endings"]
        lines = csv.decode("utf-8").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != op.rows + 2:
            return ["CSV header, row count or final newline is wrong"]
        problems = []
        step = float(op.argv[op.argv.index("--step") + 1])
        for i, line in enumerate(lines[1:-1]):
            cells = line.split(",")
            want, verdicts = _expected_row(op.lo + i * step)
            got = [float(c) for c in cells[:4]]
            if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
                problems.append(f"row {i}: values {cells[:4]} differ from {want}")
            near = min(abs(want[0] - t) for t in THRESHOLDS) < 1e-7
            if cells[4:] != verdicts and not near:
                problems.append(f"row {i}: verdicts {cells[4:]} expected {verdicts}")
        return problems
