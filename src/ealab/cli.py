"""Command-line surface: lambda sweeps, threshold location, falsification
runs, and a numerical replay of the EA-without-EB argument.

Exit codes: 0 clean / no counterexample, 1 counterexample found, 2 input
error.  Reals print with 12 significant digits; CSV output uses LF line
endings and is byte-identical across runs for identical flags and seed.
The seed default can be set through the ``EA_LAB_SEED`` environment
variable (flags take precedence).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    apply,  # unused here; bench/tracing.py wraps cli.apply
    apply_local,
    choi_of,
    depolarizing,
    load_channel_spec,
    tensor_power,
)
from .criteria import (
    BISECTION_TOL,
    VERDICT_TOL,
    Partition,
    _check_tol,
    bisect_threshold,
    eb_min_eig_depolarizing,
    ghz_three_lea_min_eig,
    is_eb,
    k_lea_falsify,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    ppt_status,
    two_lea_min_eig_depolarizing,
    two_lea_verdict_depolarizing,
)
from .linalg import _unit_interval
from .states import _first_invalid_density, _werner_matrix, ghz

DEFAULT_SEED = 0
DEFAULT_BUDGET = 1000
SEED_ENV_VAR = "EA_LAB_SEED"
# Most rows one sweep may plan: the grid 0..1 at step 1e-5.
SWEEP_MAX_ROWS = 100_001
# Rows sweep_rows evaluates as one stack, which bounds its working memory.
SWEEP_CHUNK_ROWS = 512
# The sweep's cuts: qubit | qubit (Werner state, the Choi operator of
# depolarizing(lambda, 2)) and the first qubit of the depolarized GHZ state
# against the other two.
_PAIR_CUT = Partition((0,), (1,))
_GHZ_CUT = Partition((0,), (1, 2))

CSV_HEADER = (
    "lambda,min_mu_2lea,ghz_mu_3lea,werner_min_eig,"
    "verdict_2lea,verdict_eb,verdict_3lea_ppt"
)


def fmt(x: float) -> str:
    """Render a real with 12 significant digits, locale-free."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class SweepRow:
    """One lambda grid point of the sweep table."""

    lam: float
    min_mu_2lea: float
    ghz_mu_3lea: float
    werner_min_eig: float
    verdict_2lea: str
    verdict_eb: str
    verdict_3lea_ppt: str

    def csv(self) -> str:
        reals = (self.lam, self.min_mu_2lea, self.ghz_mu_3lea, self.werner_min_eig)
        verdicts = (self.verdict_2lea, self.verdict_eb, self.verdict_3lea_ppt)
        return ",".join([*map(fmt, reals), *verdicts])


def sweep_row(lam: float, tol: float = VERDICT_TOL) -> SweepRow:
    """Evaluate every sweep column at one lambda: ``sweep_rows([lam], tol)[0]``."""
    return sweep_rows([lam], tol)[0]


def sweep_rows(lams, tol: float = VERDICT_TOL) -> list[SweepRow]:
    """Evaluate every sweep column at each lambda of ``lams``, in order.

    Rows are evaluated ``SWEEP_CHUNK_ROWS`` at a time.  Per chunk, the
    Werner states form one stack, with one density-operator check, one
    partial transpose and one batched eigensolve; ``werner_min_eig`` is
    that of ``werner`` row by row, bit for bit.  The other columns are
    closed forms evaluated per row.  Each verdict is ``ppt_status`` of a
    closed form: ``min_mu_2lea``, the Werner minimum (1 - 3 lambda)/4 of
    ``eb_min_eig_depolarizing``, and ``ghz_mu_3lea`` across the GHZ cut.
    """
    _check_tol(tol)
    lams = [_unit_interval(lam, "depolarizing parameter") for lam in lams]
    rows = []
    for start in range(0, len(lams), SWEEP_CHUNK_ROWS):
        chunk = lams[start : start + SWEEP_CHUNK_ROWS]
        wer = _werner_matrix(np.array(chunk)[:, None, None], 2)
        failure = _first_invalid_density(wer)
        if failure is not None:
            raise ValueError(failure[1])
        wer_low = ppt_min_eigenvalues(wer, (2, 2), _PAIR_CUT)
        for lam, wer_min in zip(chunk, wer_low):
            mu2, mu3 = two_lea_min_eig_depolarizing(lam), ghz_three_lea_min_eig(lam)
            eb = eb_min_eig_depolarizing(lam)
            rows.append(
                SweepRow(
                    lam=lam,
                    min_mu_2lea=mu2,
                    ghz_mu_3lea=mu3,
                    werner_min_eig=float(wer_min),
                    verdict_2lea=ppt_status(mu2, _PAIR_CUT, (2, 2), tol).value,
                    verdict_eb=ppt_status(eb, _PAIR_CUT, (2, 2), tol).value,
                    verdict_3lea_ppt=ppt_status(mu3, _GHZ_CUT, (2, 2, 2), tol).value,
                )
            )
    return rows


def compute_thresholds(tol: float = BISECTION_TOL):
    """The three critical depolarizing parameters, located by bisecting the
    closed-form PT minima of the Werner (Choi), pair and GHZ outputs."""
    eb = bisect_threshold(eb_min_eig_depolarizing, (0.1, 0.6), tol, "eb-choi-ppt")
    two = bisect_threshold(
        two_lea_min_eig_depolarizing, (0.3, 0.9), tol, "two-lea-worst-case"
    )
    three = bisect_threshold(
        ghz_three_lea_min_eig, (0.3, 0.9), tol, "three-lea-ghz-ppt"
    )
    return eb, two, three


def cmd_thresholds(args) -> int:
    results = compute_thresholds(tol=args.tol)
    names = (
        "EB threshold (Choi/Werner PPT boundary)",
        "2-LEA threshold (worst-case pair PT eigenvalue)",
        "3-LEA PPT threshold (GHZ witness)",
    )
    for name, res in zip(names, results):
        print(
            f"{name}: critical lambda = {fmt(res.critical_value)}  "
            f"bracket [{fmt(res.bracket[0])}, {fmt(res.bracket[1])}]  "
            f"tol {fmt(res.tol)}  [{res.criterion_id}]"
        )
    return 0


def cmd_sweep(args) -> int:
    lo, hi, step = args.lo, args.hi, args.step
    if not (0.0 <= lo <= hi <= 1.0) or not step > 0.0:
        raise ValueError(
            f"sweep range needs 0 <= lo <= hi <= 1 and step > 0, "
            f"got lo={lo} hi={hi} step={step}"
        )
    steps = (hi - lo) / step + 1e-9
    if not steps < SWEEP_MAX_ROWS:
        raise ValueError(
            f"sweep grid lo={lo} hi={hi} step={step} has more than the "
            f"{SWEEP_MAX_ROWS} rows a sweep may write"
        )
    # rounding can push the last grid point past hi
    rows = sweep_rows([min(lo + i * step, hi) for i in range(int(steps) + 1)], tol=args.tol)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.csv() + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _report_to_json(report) -> dict:
    payload = {
        "counterexample_found": report.found,
        "trials_used": report.trials_used,
        "min_eig_seen": report.min_eig_seen,
        "seed": report.seed,
        "partitions_checked": [p.label() for p in report.partitions_checked],
    }
    if report.found:
        payload["counterexample"] = {
            "label": report.counterexample_label,
            "partition": report.counterexample_partition.label(),
            "state": [
                [float(a.real), float(a.imag)]
                for a in report.counterexample.amplitudes
            ],
            "dims": list(report.counterexample.dims),
        }
    return payload


def cmd_falsify(args) -> int:
    try:
        channel = load_channel_spec(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: invalid channel description: {exc}", file=sys.stderr)
        return 2
    report = k_lea_falsify(
        channel, args.k, budget=args.budget, seed=args.seed, tol=args.tol
    )
    print(json.dumps(_report_to_json(report), sort_keys=True, allow_nan=False))
    return 1 if report.found else 0


def cmd_report_ea_not_eb(args) -> int:
    lam = 1.0 / math.sqrt(3.0)
    pair_worst = two_lea_verdict_depolarizing(lam)
    ghz_out = apply_local(depolarizing(lam, 2), ghz(3))
    eig_1_23 = ppt_min_eigenvalue(ghz_out, Partition((0,), (1, 2)))
    eig_12_3 = ppt_min_eigenvalue(ghz_out, Partition((0, 1), (2,)))
    single_eb = is_eb(depolarizing(lam, 2))
    pair_choi = choi_of(tensor_power(depolarizing(lam, 2), 2))

    print(f"depolarizing parameter lambda = {fmt(lam)}")
    print()
    print("(1) pair channel annihilates two-qubit entanglement:")
    print(
        f"    worst-case PT eigenvalue over all pure inputs = "
        f"{fmt(pair_worst.witness_min_eig)} >= -{fmt(VERDICT_TOL)}"
    )
    print(
        f"    verdict {pair_worst.status.value}: every output of the pair "
        f"channel is a separable two-qubit state (PPT is exact at 2x2)."
    )
    print()
    print("(2) yet the three-fold channel leaves the GHZ state entangled:")
    print(f"    min PT eigenvalue across 1|23 split  = {fmt(eig_1_23)}")
    print(f"    min PT eigenvalue across 12|3 split  = {fmt(eig_12_3)}")
    print(
        "    both negative, so the triple output is entangled across every "
        "bipartite split."
    )
    print()
    print("(3) contradiction with the pair channel being entanglement-breaking:")
    print(
        "    write the triple channel as (id ox id ox single) after "
        "(pair ox id).  Local noise on the third qubit cannot create "
        "entanglement across the 12|3 split, so the entanglement seen in (2) "
        "must already be present in (pair ox id)[GHZ]."
    )
    print(
        "    an entanglement-breaking pair channel would instead force "
        "(pair ox id)[GHZ] to be separable across 12|3."
    )
    print(
        f"    the pair channel's own Choi operator confirms this directly: "
        f"its min PT eigenvalue is "
        f"{fmt(ppt_min_eigenvalue(pair_choi, Partition((0,), (1,))))} < 0, "
        f"so the Choi operator is entangled and the pair channel is not "
        f"entanglement-breaking."
    )
    print()
    print("(4) the single-qubit channel is itself not entanglement-breaking:")
    print(
        f"    Choi (= Werner state) min PT eigenvalue = "
        f"{fmt(single_eb.witness_min_eig)} -> verdict {single_eb.status.value} "
        f"(lambda exceeds 1/3)."
    )
    print()
    print(
        "conclusion: the pair channel is entanglement-annihilating but not "
        "entanglement-breaking; annihilating all internal entanglement does "
        "not imply breaking entanglement with the outside."
    )
    return 0


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        print(
            f"warning: ignoring non-integer {SEED_ENV_VAR}={raw!r}",
            file=sys.stderr,
        )
        return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ealab",
        description=(
            "Analyze entanglement-breaking and entanglement-annihilating "
            "behavior of quantum channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "thresholds", help="print the three critical depolarizing parameters"
    )
    p.add_argument("--tol", type=float, default=BISECTION_TOL, help="bisection tolerance")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sweep", help="tabulate the lambda sweep as CSV")
    p.add_argument("--lo", type=float, required=True, help="first lambda")
    p.add_argument("--hi", type=float, required=True, help="last lambda")
    p.add_argument("--step", type=float, required=True, help="grid step")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--tol", type=float, default=VERDICT_TOL, help="verdict tolerance")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "falsify",
        help="search for inputs whose output stays entangled under a channel",
    )
    p.add_argument("--spec", required=True, help="path to a JSON channel description")
    p.add_argument("--k", type=int, default=2, help="tensor power (number of parties)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="Haar trials")
    p.add_argument("--seed", type=int, default=None, help="search seed")
    p.add_argument("--tol", type=float, default=VERDICT_TOL, help="verdict tolerance")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser(
        "report-ea-not-eb",
        help="replay the numerical argument that annihilating is not breaking",
    )
    p.set_defaults(func=cmd_report_ea_not_eb)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "falsify":
        args.seed = _env_seed()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
