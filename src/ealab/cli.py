"""Command-line surface: lambda sweeps, threshold location, falsification
runs, and a numerical replay of the EA-without-EB argument.

Exit codes: 0 clean / no counterexample, 1 counterexample found, 2 input
error.  Reals print with 12 significant digits; CSV output uses LF line
endings and is byte-identical across runs for identical flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .channels import (
    apply,  # unused here; bench/tracing.py wraps cli.apply
    apply_local,
    choi_of,
    depolarizing,
    load_channel_spec,
    matrix_to_json,
    tensor_power,
)
from .criteria import (
    BISECTION_TOL,
    TWO_LEA_EDGE,
    VERDICT_TOL,
    Partition,
    _sweep_columns,
    bisect_threshold,
    eb_min_eig_depolarizing,
    ghz_three_lea_min_eig,
    is_eb,
    k_lea_falsify,
    ppt_min_eigenvalue,
    two_lea_min_eig_depolarizing,
    two_lea_verdict_depolarizing,
)
from .states import ghz

DEFAULT_SEED = 0
DEFAULT_BUDGET = 1000
# Most rows one sweep may plan: the grid 0..1 at step 1e-5.
SWEEP_MAX_ROWS = 100_001

CSV_HEADER = (
    "lambda,min_mu_2lea,ghz_mu_3lea,werner_min_eig,"
    "verdict_2lea,verdict_eb,verdict_3lea_ppt"
)


def fmt(x: float) -> str:
    """Render a real with 12 significant digits, locale-free."""
    return f"{float(x):.12g}"


# One sweep row of CSV: the four reals as ``fmt`` renders them (``%.12g``
# gives the same bytes), then the three verdicts.
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%s,%s,%s"


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
    if not (0.0 <= lo <= hi <= 1.0) or not 0.0 < step < math.inf:
        raise ValueError(
            f"sweep range needs 0 <= lo <= hi <= 1 and a finite step > 0, "
            f"got lo={lo} hi={hi} step={step}"
        )
    steps = (hi - lo) / step + 1e-9
    if not steps < SWEEP_MAX_ROWS:
        raise ValueError(
            f"sweep grid lo={lo} hi={hi} step={step} has more than the "
            f"{SWEEP_MAX_ROWS} rows a sweep may write"
        )
    # rounding can push the last grid point past hi
    lams = [min(lo + i * step, hi) for i in range(int(steps) + 1)]
    rows = map((_CSV_ROW + "\n").__mod__, zip(*_sweep_columns(lams, args.tol)))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(rows)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    print(f"wrote {len(lams)} rows to {args.out}")
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
            "state": matrix_to_json([report.counterexample.amplitudes])[0],
            "dims": list(report.counterexample.dims),
        }
    return payload


def cmd_falsify(args) -> int:
    try:
        channel = load_channel_spec(args.spec)
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid channel description: {exc}") from exc
    report = k_lea_falsify(channel, args.k, budget=args.budget, seed=args.seed, tol=args.tol)
    print(json.dumps(_report_to_json(report), sort_keys=True, allow_nan=False))
    return 1 if report.found else 0


def cmd_report_ea_not_eb(args) -> int:
    lam = TWO_LEA_EDGE  # the largest float at or below 1/sqrt(3)
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
        f"{fmt(pair_worst.witness_min_eig)}, and lambda <= {TWO_LEA_EDGE!r}, "
        f"where exact 1 - 3 lambda^2 >= 0"
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses, built by its first call, not at import."""
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="search seed")
    p.add_argument("--tol", type=float, default=VERDICT_TOL, help="verdict tolerance")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser(
        "report-ea-not-eb",
        help="replay the numerical argument that annihilating is not breaking",
    )
    p.set_defaults(func=cmd_report_ea_not_eb)

    return parser


def main(argv=None) -> int:
    """Run one ``ealab`` command line and return its exit code.

    Repeated in-process calls reuse one parser, built on the first call;
    each call's output and exit code are those of a fresh parser.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
