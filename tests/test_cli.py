"""Tests for the command-line surface: output formats and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ealab.cli
import ealab.criteria
from ealab.channels import matrix_to_json, random_channel
from ealab.cli import (
    CSV_HEADER,
    SWEEP_MAX_ROWS,
    build_parser,
    fmt,
    main,
    sweep_row,
    sweep_rows,
)
from ealab.criteria import (
    eb_min_eig_depolarizing,
    ghz_three_lea_min_eig,
    ppt_status,
    two_lea_min_eig_depolarizing,
)
from helpers import EB_EDGES, haar_amplitudes_two_draws

SRC = Path(__file__).resolve().parents[1] / "src"

IDENTITY = matrix_to_json(np.eye(2))
HALF_I = matrix_to_json(np.eye(2) / 2)


# Lambdas whose ghz_mu_3lea lies within rounding of -tol, keyed by tol: a
# 3-LEA verdict taken from a numerical GHZ stack, not from ghz_mu_3lea
# itself, contradicted the printed value at each of them.
THREE_LEA_EDGES = {
    0.05: [0.630483164182297],
    0.01: [0.5728310456958045],
    1e-3: [0.5583442936659618],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholds:
    def test_prints_all_three_critical_values(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds")
        assert code == 0
        assert "0.333333" in out
        assert "0.577350" in out
        three = next(line for line in out.splitlines() if "3-LEA" in line)
        value = float(three.split("=")[1].split()[0])
        assert abs(value - 0.5567) < 5e-4


class TestSweep:
    def test_header_and_noiseless_row(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "0.5", "--step", "0.25",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(0.25)
        assert float(first[2]) == pytest.approx(0.125)
        assert float(first[3]) == pytest.approx(0.25)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--lo", "0", "--hi", "1", "--step", "0.1",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lf_line_endings(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        run_cli(capsys, "sweep", "--lo", "0", "--hi", "0.2", "--step", "0.1",
                "--out", str(p))
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_bad_range_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--lo", "0.5", "--hi", "0.2", "--step", "0.1",
            "--out", str(tmp_path / "d.csv"),
        )
        assert code == 2
        assert "range" in err

    def test_nan_step_exits_2_without_a_file(self, tmp_path, capsys):
        out_path = tmp_path / "e.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "1", "--step", "nan",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep range needs")
        assert not out_path.exists()

    def test_last_point_is_clamped_to_hi(self, tmp_path, capsys):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, past the range
        out_path = tmp_path / "f.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0.09", "--hi", "1", "--step", "0.07",
            "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1 + 14
        assert lines[-1].split(",")[0] == "1"
        assert out.startswith("wrote 14 rows")

    def test_row_bound_exits_2_before_any_row(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "1", "--step", "1e-9",
            "--out", str(out_path),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep grid") and str(SWEEP_MAX_ROWS) in err
        assert not out_path.exists()

    @pytest.mark.parametrize("target", ["directory", "missing/e.csv"])
    def test_unwritable_out_exits_2(self, target, tmp_path, capsys):
        out_path = tmp_path / target
        if target == "directory":
            out_path.mkdir()
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "0.1", "--step", "0.1",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert "Traceback" not in err
        assert out_path.is_dir() == (target == "directory")

    def test_row_at_pair_boundary(self):
        row = sweep_row(1 / np.sqrt(3))
        assert row.verdict_2lea == "SeparableCertified"
        assert row.verdict_3lea_ppt == "Entangled"
        assert row.verdict_eb == "Entangled"

    def test_row_in_eb_region(self):
        assert sweep_row(0.3).verdict_eb == "SeparableCertified"

    def test_row_printing_eb_value_next_to_its_verdict(self):
        # (1 - 3 * 0.4)/4 is -0.05 exactly; an eigensolved Werner value once
        # printed -0.04999999999999993 here beside an Entangled verdict
        row = sweep_row(0.4, 0.05)
        assert row.verdict_eb == "Entangled"
        assert row.werner_min_eig < -0.05

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-3, 0.01, 0.05])
    def test_verdicts_consistent_with_values(self, tol):
        edges = [*THREE_LEA_EDGES.get(tol, []), *EB_EDGES.get(tol, [])]
        for lam in [*np.linspace(0.0, 1.0, 11), *edges]:
            row = sweep_row(lam, tol)
            assert (row.verdict_2lea == "Entangled") == (row.min_mu_2lea < -tol)
            assert (row.verdict_3lea_ppt == "Entangled") == (row.ghz_mu_3lea < -tol)
            # the exact sign of the Werner minimum (1 - 3 lambda)/4
            eb_entangled = (1 - 3 * Fraction(float(lam))) / 4 < -Fraction(tol)
            assert (row.verdict_eb == "Entangled") == eb_entangled
            assert (row.verdict_eb == "Entangled") == (row.werner_min_eig < -tol)


class TestSweepColumns:
    """``sweep_rows`` evaluates each column over the whole grid at once; every
    cell is still its scalar closed form, and its verdict ``ppt_status`` of
    that value, bit for bit."""

    LAMS = [
        *np.random.default_rng(25).uniform(0.0, 1.0, 3000).tolist(),
        *(lam for edges in (*EB_EDGES.values(), *THREE_LEA_EDGES.values()) for lam in edges),
        0.0, 1.0, 0.25, 1 / 3, 0.4, 1 / np.sqrt(3), 0.5567, 5e-324,
    ]

    @staticmethod
    def scalar_row(lam, tol):
        mu2 = two_lea_min_eig_depolarizing(lam)
        mu3 = ghz_three_lea_min_eig(lam)
        eb = eb_min_eig_depolarizing(lam)
        return (
            *(x.hex() for x in (lam, mu2, mu3, eb)),
            ppt_status(mu2, (2, 2), tol).value,
            ppt_status(eb, (2, 2), tol).value,
            ppt_status(mu3, (2, 4), tol).value,
        )

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05, 0.2])
    def test_cells_are_the_scalar_closed_forms(self, tol):
        rows = sweep_rows(self.LAMS, tol)
        assert len(rows) == len(self.LAMS)
        for row, lam in zip(rows, self.LAMS):
            reals = (row.lam, row.min_mu_2lea, row.ghz_mu_3lea, row.werner_min_eig)
            assert all(type(x) is float for x in reals)
            got = (*(x.hex() for x in reals), row.verdict_2lea, row.verdict_eb, row.verdict_3lea_ppt)
            assert got == self.scalar_row(lam, tol), lam

    def test_bad_lambdas_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^depolarizing parameter must lie in \[0, 1\], got 2.0$"):
            sweep_rows([*self.LAMS, 2.0])
        with pytest.raises(ValueError, match="could not convert string to float"):
            sweep_rows([0.5, "half"])

    def test_csv_row_is_fmt_of_each_real(self):
        for row in sweep_rows(self.LAMS[:200] + self.LAMS[-8:], 1e-9):
            reals = (row.lam, row.min_mu_2lea, row.ghz_mu_3lea, row.werner_min_eig)
            verdicts = (row.verdict_2lea, row.verdict_eb, row.verdict_3lea_ppt)
            assert row.csv() == ",".join([*map(fmt, reals), *verdicts])


class TestFalsify:
    def write_spec(self, tmp_path, payload):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_counterexample_exits_1(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.6, "d": 2})
        code, out, _ = run_cli(
            capsys, "falsify", "--spec", spec, "--k", "3", "--budget", "10",
            "--seed", "0",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["counterexample_found"]
        assert payload["counterexample"]["label"] == "probe:GHZ"

    def test_clean_channel_exits_0(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.2, "d": 2})
        code, out, _ = run_cli(
            capsys, "falsify", "--spec", spec, "--k", "2", "--budget", "500",
            "--seed", "0",
        )
        assert code == 0
        assert not json.loads(out)["counterexample_found"]

    def test_non_tp_spec_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            {"kind": "kraus", "ops": [matrix_to_json(np.eye(2) * 0.5)]},
        )
        code, _, err = run_cli(capsys, "falsify", "--spec", spec)
        assert code == 2
        assert "trace preservation" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "falsify", "--spec", str(tmp_path / "nope.json"))
        assert code == 2
        assert "invalid channel description" in err

    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EA_LAB_SEED", "77")
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.1, "d": 2})
        code, out, _ = run_cli(
            capsys, "falsify", "--spec", spec, "--k", "2", "--budget", "3"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 77

    def test_flag_overrides_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EA_LAB_SEED", "77")
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.1, "d": 2})
        code, out, _ = run_cli(
            capsys, "falsify", "--spec", spec, "--k", "2", "--budget", "3",
            "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 5

    def test_nan_kraus_entry_is_an_invalid_description(self, tmp_path, capsys):
        op = matrix_to_json(np.eye(2))
        op[0][1][0] = float("nan")
        spec = self.write_spec(tmp_path, {"kind": "kraus", "ops": [op]})
        code, out, err = run_cli(
            capsys, "falsify", "--spec", spec, "--k", "2", "--budget", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid channel description")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["kraus", "choi", "measure_prepare"])
    def test_non_finite_entry_is_an_invalid_description(self, kind, value, tmp_path, capsys):
        # json reads NaN, Infinity and -Infinity; each is refused by name,
        # before any check of the matrix could warn about it
        bad = matrix_to_json(np.eye(2))
        bad[0][0][0] = value
        choi = matrix_to_json(np.eye(4) / 4)
        choi[3][3][1] = value
        payload = {
            "kraus": {"kind": "kraus", "ops": [bad]},
            "choi": {"kind": "choi", "out_dim": 2, "in_dim": 2, "matrix": choi},
            "measure_prepare": {"kind": "measure_prepare", "povm": [bad],
                                "prepares": [HALF_I]},
        }[kind]
        spec = self.write_spec(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "falsify", "--spec", spec, "--budget", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid channel description")
        assert "finite" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "depolarizing", "lambda": None},
            {"kind": "depolarizing", "lambda": [0.5]},
            {"kind": "depolarizing", "lambda": 0.5, "d": None},
            {"kind": "depolarizing", "lambda": 0.5, "d": 0},
            {"kind": "kraus", "ops": 5},
            {"kind": "measure_prepare", "povm": 5, "prepares": [HALF_I]},
            {"kind": "measure_prepare", "povm": [IDENTITY], "prepares": [HALF_I],
             "prepare_dims": 5},
            {"kind": "choi", "out_dim": None, "in_dim": 2,
             "matrix": matrix_to_json(np.eye(4) / 4)},
            # JSON types are strict: no bool, string or float is coerced
            {"kind": "depolarizing", "lambda": True},
            {"kind": "depolarizing", "lambda": "0.6"},
            {"kind": "depolarizing", "lambda": 0.6, "d": 2.9},
            {"kind": "depolarizing", "lambda": 0.6, "d": True},
            {"kind": "choi", "out_dim": 2.5, "in_dim": 2,
             "matrix": matrix_to_json(np.eye(4) / 4)},
            {"kind": "choi", "out_dim": 2, "in_dim": True,
             "matrix": matrix_to_json(np.eye(4) / 4)},
            {"kind": "measure_prepare", "povm": [IDENTITY], "prepares": [HALF_I],
             "prepare_dims": [2.5]},
            # a JSON integer past the float range
            {"kind": "depolarizing", "lambda": 10**400},
            {"kind": "kraus", "ops": [[[[10**400, 0]]]]},
            # matrix entries are JSON numbers: these strings and bools would
            # read as the identity channel if coerced
            {"kind": "kraus", "ops": [[[["1", "0"], ["0", "0"]], [["0", "0"], [True, False]]]]},
            {"kind": "measure_prepare", "povm": [IDENTITY], "prepares": [HALF_I],
             "prepare_dims": False},
            # the matrix lists are JSON arrays, not strings or objects
            {"kind": "kraus", "ops": "ab"},
            {"kind": "measure_prepare", "povm": {}, "prepares": [HALF_I]},
        ],
    )
    def test_malformed_spec_is_an_invalid_description(self, payload, tmp_path, capsys):
        spec = self.write_spec(tmp_path, payload)
        code, out, err = run_cli(capsys, "falsify", "--spec", spec, "--budget", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid channel description")

    @pytest.mark.parametrize("depth", [500, 990, 1200])
    def test_deeply_nested_spec_is_an_invalid_description(self, depth, tmp_path, capsys):
        # raw text: json.dumps would recurse as deep as the parser
        path = tmp_path / "channel.json"
        path.write_text('{"kind":"kraus","ops":[' + "[" * depth + "]" * depth + "]}")
        code, out, err = run_cli(capsys, "falsify", "--spec", str(path), "--budget", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid channel description")

    @pytest.mark.parametrize(
        "payload, k, message",
        [
            ({"kind": "kraus", "ops": [[[[1, 0]]]]}, "16", "dimension >= 2"),
            ({"kind": "kraus", "ops": [[[[1, 0]]]]}, "40", "dimension >= 2"),
            ({"kind": "depolarizing", "lambda": 0.6}, "1000", "bytes"),
            ({"kind": "depolarizing", "lambda": 0.6}, "100000", "bytes"),
            ({"kind": "depolarizing", "lambda": 0.6}, "3000000", "bytes"),
            ({"kind": "depolarizing", "lambda": 0.6}, str(10**9), "bytes"),
            # past a C ssize_t: the pre-check lists a bounded number of factors
            ({"kind": "depolarizing", "lambda": 0.6}, str(2**63), "bytes"),
            ({"kind": "depolarizing", "lambda": 0.6}, str(10**30), "bytes"),
            ({"kind": "kraus", "ops": [[[[1, 0]]]]}, str(10**30), "dimension >= 2"),
        ],
    )
    def test_k_is_bounded_before_any_work(self, payload, k, message, tmp_path, capsys):
        spec = self.write_spec(tmp_path, payload)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "falsify", "--spec", spec, "--k", k)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_huge_depolarizing_dimension_exits_2(self, tmp_path, capsys):
        # d = 100 would need about 1.6 GB of Kraus operators
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.5, "d": 100})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "falsify", "--spec", spec)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid channel description: ")
        assert "byte bound" in err

    @pytest.mark.parametrize("budget", ["0", "5"])
    @pytest.mark.parametrize("lam", [0.6, 0.3])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_exits_2(
        self, source, lam, budget, tmp_path, capsys, monkeypatch
    ):
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": lam})
        argv = ["falsify", "--spec", spec, "--budget", budget]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("EA_LAB_SEED", "-1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"

    def test_non_integer_env_seed_warns_and_falls_back_to_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.3})
        argv = ["falsify", "--spec", spec, "--k", "3", "--budget", "6"]
        _, explicit, _ = run_cli(capsys, *argv, "--seed", "0")
        monkeypatch.setenv("EA_LAB_SEED", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == "warning: ignoring non-integer EA_LAB_SEED='abc'\n"
        assert out == explicit and json.loads(out)["seed"] == 0

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"kind": "depolarizing", "lambda": 0.6, "d": 2})
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--spec", spec, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_multi_word_seed_report_is_default_rngs(self, tmp_path, capsys, monkeypatch):
        # a channel whose lowest PT eigenvalue comes from a Haar row, so the
        # report pins the rows drawn from the two-word seed 2**32
        ops = [matrix_to_json(k) for k in random_channel(2, seed=0).kraus]
        spec = self.write_spec(tmp_path, {"kind": "kraus", "ops": ops})
        argv = ("falsify", "--spec", spec, "--k", "3", "--seed", "4294967296")
        code, probes_only, _ = run_cli(capsys, *argv, "--budget", "0")
        assert code == 0
        drawn = run_cli(capsys, *argv, "--budget", "40")
        assert drawn[0] == 0
        assert json.loads(drawn[1])["min_eig_seen"] < json.loads(probes_only)["min_eig_seen"]
        # the reference draws row after row of its own default_rng(2**32),
        # whatever generator the search passes
        stream = np.random.default_rng(2**32)

        def reference_rows(rng, n, dim):
            return np.array([haar_amplitudes_two_draws(stream, dim) for _ in range(n)])

        monkeypatch.setattr(ealab.criteria, "_haar_rows", reference_rows)
        assert run_cli(capsys, *argv, "--budget", "40") == drawn


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
class TestBadTolerance:
    """``--tol`` must be finite and nonnegative on every subcommand."""

    def test_falsify(self, tmp_path, capsys, tol):
        spec = tmp_path / "channel.json"
        spec.write_text(json.dumps({"kind": "depolarizing", "lambda": 0.6, "d": 2}))
        code, out, err = run_cli(
            capsys, "falsify", "--spec", str(spec), "--budget", "3", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and nonnegative")

    def test_sweep_writes_no_file(self, tmp_path, capsys, tol):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0.5", "--hi", "1", "--step", "0.25",
            "--out", str(out_path), "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and nonnegative")
        assert not out_path.exists()

    def test_thresholds(self, capsys, tol):
        code, out, err = run_cli(capsys, "thresholds", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and nonnegative")


class TestReport:
    def test_replays_the_argument(self, capsys):
        code, out, _ = run_cli(capsys, "report-ea-not-eb")
        assert code == 0
        assert "SeparableCertified" in out
        assert "-0.0128917115316" in out
        assert "not entanglement-breaking" in out


# Reference outputs of the CLI contract.  Every real prints at 12 significant
# digits and the sweep's near-zero rows print as exact decimals, so these
# bytes do not depend on the last bits of a LAPACK result.
GOLDEN_THRESHOLDS = (
    "EB threshold (Choi/Werner PPT boundary): critical lambda = 0.33333333293  bracket [0.333333332464, 0.333333333395]  tol 1e-09  [eb-choi-ppt]\n"
    "2-LEA threshold (worst-case pair PT eigenvalue): critical lambda = 0.577350268979  bracket [0.577350268699, 0.577350269258]  tol 1e-09  [two-lea-worst-case]\n"
    "3-LEA PPT threshold (GHZ witness): critical lambda = 0.556693094876  bracket [0.556693094596, 0.556693095155]  tol 1e-09  [three-lea-ghz-ppt]\n"
)

GOLDEN_REPORT = (
    "depolarizing parameter lambda = 0.57735026919\n"
    "\n"
    "(1) pair channel annihilates two-qubit entanglement:\n"
    "    worst-case PT eigenvalue over all pure inputs = -8.32667268469e-17 >= -1e-09\n"
    "    verdict SeparableCertified: every output of the pair channel is a separable two-qubit state (PPT is exact at 2x2).\n"
    "\n"
    "(2) yet the three-fold channel leaves the GHZ state entangled:\n"
    "    min PT eigenvalue across 1|23 split  = -0.0128917115316\n"
    "    min PT eigenvalue across 12|3 split  = -0.0128917115316\n"
    "    both negative, so the triple output is entangled across every bipartite split.\n"
    "\n"
    "(3) contradiction with the pair channel being entanglement-breaking:\n"
    "    write the triple channel as (id ox id ox single) after (pair ox id).  Local noise on the third qubit cannot create entanglement across the 12|3 split, so the entanglement seen in (2) must already be present in (pair ox id)[GHZ].\n"
    "    an entanglement-breaking pair channel would instead force (pair ox id)[GHZ] to be separable across 12|3.\n"
    "    the pair channel's own Choi operator confirms this directly: its min PT eigenvalue is -0.0721687836487 < 0, so the Choi operator is entangled and the pair channel is not entanglement-breaking.\n"
    "\n"
    "(4) the single-qubit channel is itself not entanglement-breaking:\n"
    "    Choi (= Werner state) min PT eigenvalue = -0.183012701892 -> verdict Entangled (lambda exceeds 1/3).\n"
    "\n"
    "conclusion: the pair channel is entanglement-annihilating but not entanglement-breaking; annihilating all internal entanglement does not imply breaking entanglement with the outside.\n"
)

# sha256 of `ealab sweep --lo 0 --hi 1 --step 0.0025`
GOLDEN_SWEEP_SHA256 = "ba8e244790ab7a4760f92eaa5db4da3f780e2df41afb8ec5c17ab6988cddfdd9"
# sha256 of `ealab sweep --lo 0 --hi 1 --step 1e-5`, the SWEEP_MAX_ROWS grid.
# It sees the last bit of lambda**3 where the 401-row grid does not: numpy's
# array power (numpy 2.4, x86-64) differs from libm pow on 5628 of these
# lambdas and moves 9 printed ghz_mu_3lea cells, none of the 401-row grid's.
GOLDEN_FULL_SWEEP_SHA256 = "1e3aa16b3ae37a631652709bc75bc0eb7dc7c24fb17163cd50cff6ad81ae75fb"


class TestGoldenOutputs:
    def test_thresholds(self, capsys):
        assert run_cli(capsys, "thresholds") == (0, GOLDEN_THRESHOLDS, "")

    def test_report(self, capsys):
        assert run_cli(capsys, "report-ea-not-eb") == (0, GOLDEN_REPORT, "")

    def test_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "1", "--step", "0.0025",
            "--out", str(out_path),
        )
        assert (code, out, err) == (0, f"wrote 401 rows to {out_path}\n", "")
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SWEEP_SHA256

    def test_full_resolution_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--lo", "0", "--hi", "1", "--step", "1e-5",
            "--out", str(out_path),
        )
        assert (code, out, err) == (0, f"wrote {SWEEP_MAX_ROWS} rows to {out_path}\n", "")
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == GOLDEN_FULL_SWEEP_SHA256


def test_real_formatting_is_twelve_significant_digits():
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(1 / np.sqrt(3)) == "0.57735026919"
    assert fmt(0.125) == "0.125"


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["mystery"])
    assert exc.value.code == 2


class TestParserReuse:
    """``main`` parses every call with one parser, built by its first call."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self, monkeypatch):
        monkeypatch.delenv("EA_LAB_SEED", raising=False)
        ealab.cli._parser.cache_clear()
        yield
        ealab.cli._parser.cache_clear()

    @pytest.fixture
    def specs(self, tmp_path):
        """Spec paths of a clean (lambda 0.2) and a refuted (lambda 0.6) channel."""
        specs = {}
        for name, lam in (("clean", 0.2), ("hit", 0.6)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"kind": "depolarizing", "lambda": lam}))
            specs[name] = str(path)
        return specs

    @pytest.fixture
    def csv_path(self, tmp_path):
        return tmp_path / "sweep.csv"

    @pytest.fixture
    def calls(self, specs, csv_path):
        """Command lines of every subcommand, with exits 0, 1 and 2."""
        out = str(csv_path)
        return [
            ["thresholds"],
            ["sweep", "--lo", "0.3", "--hi", "0.6", "--step", "0.05", "--out", out],
            ["falsify", "--spec", specs["hit"], "--k", "3", "--budget", "5", "--seed", "1"],
            ["thresholds", "--tol", "1e-6"],
            ["falsify", "--spec", specs["clean"], "--budget", "20"],
            ["sweep", "--lo", "0.5", "--hi", "0.2", "--step", "0.1", "--out", out],
            ["falsify", "--spec", specs["clean"], "--budget", "3", "--tol", "nan"],
            ["sweep", "--lo", "0", "--hi", "1", "--step", "0.25", "--out", out, "--tol", "0.01"],
            ["falsify", "--spec", specs["clean"], "--k", "3", "--budget", "4", "--seed", "7"],
        ]

    @staticmethod
    def run(capsys, csv_path, argv):
        """Exit code, stdout, stderr and the CSV bytes (None without a file)."""
        csv_path.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        csv = csv_path.read_bytes() if csv_path.exists() else None
        return code, captured.out, captured.err, csv

    def test_parser_is_built_once(self, calls, capsys, csv_path, monkeypatch):
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(ealab.cli, "build_parser", counted)
        for argv in calls:
            self.run(capsys, csv_path, argv)
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_interleaved_calls_match_fresh_parsers(self, calls, capsys, csv_path):
        interleaved = [self.run(capsys, csv_path, argv) for argv in calls]
        fresh = []
        for argv in calls:
            ealab.cli._parser.cache_clear()
            fresh.append(self.run(capsys, csv_path, argv))
        assert interleaved == fresh
        assert {code for code, *_ in interleaved} == {0, 1, 2}

    def test_seed_variable_is_read_per_call(self, specs, capsys, monkeypatch):
        argv = ["falsify", "--spec", specs["clean"], "--budget", "3"]
        assert run_cli(capsys, *argv, "--seed", "5")[0] == 0
        for seed in ("3", "9"):
            monkeypatch.setenv("EA_LAB_SEED", seed)
            code, out, _ = run_cli(capsys, *argv)
            assert (code, json.loads(out)["seed"]) == (0, int(seed))

    def test_usage_error_leaves_the_parser_working(self, specs, capsys, csv_path):
        valid = [["thresholds"], ["falsify", "--spec", specs["clean"], "--budget", "5"]]
        before = [self.run(capsys, csv_path, argv) for argv in valid]
        for bad in (["falsify", "--spec", specs["clean"], "--workers", "2"], ["mystery"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            after = [self.run(capsys, csv_path, argv) for argv in valid]
            assert after == before
            assert {code for code, *_ in after} == {0}


class TestModuleEntryPoint:
    """``python -m ealab`` builds its parser on the process's first call."""

    @staticmethod
    def python(*args):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    def test_thresholds(self):
        proc = self.python("-m", "ealab", "thresholds")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, GOLDEN_THRESHOLDS, "")

    def test_workers_flag_exits_2(self, tmp_path):
        spec = tmp_path / "channel.json"
        spec.write_text(json.dumps({"kind": "depolarizing", "lambda": 0.6}))
        proc = self.python("-m", "ealab", "falsify", "--spec", str(spec), "--workers", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--workers" in proc.stderr

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(None)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import ealab.cli\n"
            "print(len(built))\n"
        )
        proc = self.python("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
