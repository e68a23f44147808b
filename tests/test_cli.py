"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import qexpand
from qexpand import cli
from qexpand.freealgebra import NCPolynomial
from qexpand.ordering import SYSTEM_B
from qexpand.verify import VerificationSummary, expand_formula


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarVerbs:
    def test_qint(self, capsys):
        code, out, _ = run_cli(["qint", "--n", "4"], capsys)
        assert code == 0
        assert out.strip() == "1+q+q^2+q^3"

    def test_qint_base_two(self, capsys):
        _, out, _ = run_cli(["qint", "--n", "3", "--base", "2"], capsys)
        assert out.strip() == "1+q^2+q^4"

    def test_qfact(self, capsys):
        _, out, _ = run_cli(["qfact", "--n", "3"], capsys)
        assert out.strip() == "1+2q+2q^2+q^3"

    def test_phi(self, capsys):
        code, out, _ = run_cli(["phi", "--beta", "2"], capsys)
        assert code == 0
        assert out.strip() == "(1+q^2)/(1-q)"

    def test_phi_recursive_route_agrees(self, capsys):
        _, closed, _ = run_cli(["phi", "--beta", "5"], capsys)
        _, recursive, _ = run_cli(["phi", "--beta", "5", "--route", "recursive"], capsys)
        assert closed == recursive

    def test_coeff(self, capsys):
        _, out, _ = run_cli(
            ["coeff", "--system", "A", "--alpha", "1", "--beta", "0", "--gamma", "1"],
            capsys,
        )
        assert out.strip() == "1+q"

    def test_coeff_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            [
                "coeff",
                "--system",
                "B",
                "--alpha",
                "0",
                "--beta",
                "2",
                "--gamma",
                "0",
                "--format",
                "json",
            ],
            capsys,
        )
        data = json.loads(out)
        assert data == {"num": ["-1", "0", "-1"], "den": ["-1", "1"]}


class TestExpandAndNormalize:
    def test_expand_text(self, capsys):
        code, out, _ = run_cli(["expand", "--system", "A", "--n", "2"], capsys)
        assert code == 0
        assert out.strip() == "c + a^2 + (1+q)·b·a + b^2"

    def test_expand_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            ["expand", "--system", "B", "--n", "3", "--format", "json"], capsys
        )
        parsed = NCPolynomial.from_json(json.loads(out))
        assert parsed == expand_formula(SYSTEM_B, 3)

    def test_normalize_text(self, capsys):
        code, out, _ = run_cli(["normalize", "--system", "A", "--word", "ab"], capsys)
        assert code == 0
        assert out.strip() == "c + (q)·b·a"

    def test_normalize_empty_word(self, capsys):
        _, out, _ = run_cli(["normalize", "--system", "B", "--word", ""], capsys)
        assert out.strip() == "1"

    def test_normalize_degenerate_system(self, capsys):
        _, out, _ = run_cli(["normalize", "--system", "A-c0", "--word", "ab"], capsys)
        assert out.strip() == "(q)·b·a"


class TestVerifyVerb:
    def test_lemma1_small(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lemma1", "--max-n", "3"], capsys)
        assert code == 0
        assert out.strip() == "lemma1: 3/3 match"

    def test_identity_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "identity", "--max-i", "5"], capsys)
        assert code == 0
        assert out.strip() == "identity: 5/5 match"

    def test_phi_suite_json(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "phi", "--max-beta", "6", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["suites"][0]["suite"] == "phi"
        assert data["suites"][0]["failures"] == 0
        assert data["suites"][0]["cases"] == 7

    def test_lemma_json_reports(self, capsys):
        _, out, _ = run_cli(
            ["verify", "--suite", "lemma1", "--max-n", "2", "--format", "json"], capsys
        )
        data = json.loads(out)
        reports = data["suites"][0]["reports"]
        assert [r["n"] for r in reports] == [1, 2]
        assert all(r["match"] for r in reports)

    def test_all_suites_at_default_bounds(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "lemma1",
            "lemma2",
            "phi",
            "recurrences-A",
            "recurrences-B",
            "degenerations",
            "identity",
        ]
        assert all(line.endswith("match") for line in lines)
        assert lines == [
            "lemma1: 8/8 match",
            "lemma2: 6/6 match",
            "phi: 41/41 match",
            "recurrences-A: 162/162 match",
            "recurrences-B: 167/167 match",
            "degenerations: 254/254 match",
            "identity: 20/20 match",
        ]

    def test_failures_flip_exit_status(self, capsys, monkeypatch):
        broken = VerificationSummary("phi", 3, 1, 0)
        monkeypatch.setattr(cli, "verify_phi", lambda max_beta: broken)
        code, out, _ = run_cli(["verify", "--suite", "phi"], capsys)
        assert code == 1
        assert out.strip() == "phi: 2/3 match"


class TestEvalVerb:
    def test_values_at_cube_root(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--system", "A", "--n", "2", "--at-root", "3"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        row = dict(line.split("\t") for line in lines)
        # the b.a coefficient 1+q at q = exp(2*pi*i/3)
        assert row["b·a"].startswith("0.5")

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(
            ["eval", "--system", "B", "--n", "2", "--at-root", "4", "--format", "json"],
            capsys,
        )
        data = json.loads(out)
        assert all(("value" in row) or ("pole" in row) for row in data)
        words = [row["word"] for row in data]
        assert words == sorted(words, key=lambda w: (len(w), w))


class TestUsageErrors:
    def test_root_order_too_small(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--at-root", "2"])
        assert exc.value.code == 2
        assert "N must be >= 3" in capsys.readouterr().err

    def test_negative_index_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "coeff",
                    "--system",
                    "A",
                    "--alpha",
                    "-1",
                    "--beta",
                    "0",
                    "--gamma",
                    "0",
                ]
            )
        assert exc.value.code == 2

    def test_bad_word_character(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["normalize", "--system", "A", "--word", "axb"])
        assert exc.value.code == 2
        assert "invalid generator 'x' at position 2" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["qint", "--n", "2", "--frobnicate"])
        assert exc.value.code == 2

    def test_max_beta_below_two_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "phi", "--max-beta", "1"])
        assert exc.value.code == 2
        assert "--max-beta: must be >= 2" in capsys.readouterr().err

    def test_system_without_closed_form_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["coeff", "--system", "A-c0", "--alpha", "1", "--beta", "0", "--gamma", "1"]
            )
        assert exc.value.code == 2
        assert "invalid choice: 'A-c0' (choose from 'A', 'B')" in capsys.readouterr().err

    def test_zero_exponent_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--system", "A", "--n", "0"])
        assert exc.value.code == 2


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [True, False])
    def test_reader_closing_early_is_silent(self, buffered, tmp_path):
        # buffered, the write fails at the final flush; unbuffered, at print
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = os.path.dirname(os.path.dirname(qexpand.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        err = tmp_path / "stderr"
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qexpand", "expand", "--system", "A", "--n", "3"],
                stdout=subprocess.PIPE,
                stderr=err_file,
                env=env,
            )
        proc.stdout.close()  # before the interpreter has started, let alone written
        assert proc.wait(timeout=60) == 1
        assert err.read_bytes() == b""
