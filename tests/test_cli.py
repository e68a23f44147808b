"""Tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import reference as ref
from conftest import of_nc, to_nc

import qexpand
from qexpand import cli
from qexpand.freealgebra import NCPolynomial
from qexpand.ordering import SYSTEM_A, SYSTEM_A_C0, SYSTEM_B, SYSTEMS, normalize
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

    @pytest.mark.parametrize(
        "system, alpha, beta, gamma, n, power",
        [
            ("A", 1100, 0, 1, 1101, 1),
            ("A", 1, 0, 1100, 1101, 1),
            ("B", 1000, 1, 0, 1001, 2),
        ],
    )
    def test_skewed_coeff_past_the_recursion_limit(
        self, capsys, system, alpha, beta, gamma, n, power
    ):
        # each coefficient is the q-integer [n] in base q**power
        argv = ["coeff", "--system", system, "--alpha", str(alpha),
                "--beta", str(beta), "--gamma", str(gamma)]
        assert run_cli(argv, capsys) == (0, f"{qexpand.q_int(n, power)}\n", "")

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
        parsed = ref.published_terms(json.loads(out))
        assert parsed == of_nc(expand_formula(SYSTEM_B, 3))

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

    def test_normalize_long_chain(self, capsys):
        # a^2000 b nests 2000 core reductions, each needing the next; they
        # run on an explicit stack, within the default recursion limit
        k = 2000
        argv = ["normalize", "--system", "A", "--word", "a" * k + "b"]
        expected = to_nc(ref.a_word_times_b(0, 0, k))
        assert run_cli(argv, capsys) == (0, f"{expected}\n", "")

    def test_normalize_outputs_are_pinned(self, capsys):
        # digest of the text and JSON output over a fixed word list; a^20 b^20
        # in System A needs a packing width above 64 bits
        digest = hashlib.sha256()
        for system in SYSTEMS:
            words = ["ab", "aab", "aac", "acab", "cba", ""]
            if system == "A":
                words.append("a" * 20 + "b" * 20)
            for word in words:
                for fmt in ("text", "json"):
                    argv = ["normalize", "--system", system, "--word", word]
                    code, out, _ = run_cli(argv + ["--format", fmt], capsys)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "f3e2e24f4dbc8d00e97729727566f0079a82e3e99173cff294f4822c3745b7a0"
        )

    def test_formula_outputs_are_pinned(self, capsys):
        # digest of the text and JSON output of the formula verbs, whose
        # values carry denominators (1-q)^k of both parities of k
        calls = [["expand", "--system", "B", "--n", "12"]]
        for route in ("closed", "recursive"):
            calls += [["phi", "--beta", str(b), "--route", route] for b in range(10)]
        for alpha, beta, gamma in ((3, 7, 2), (0, 5, 1)):
            calls.append(["coeff", "--system", "B", "--alpha", str(alpha),
                          "--beta", str(beta), "--gamma", str(gamma)])
        digest = hashlib.sha256()
        for argv in calls:
            for fmt in ("text", "json"):
                code, out, _ = run_cli(argv + ["--format", fmt], capsys)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "124194272dfed6cae6e5987899d369d170ead8daa1eab3d0eb3fcdc77636316c"
        )


class TestStreamedOutput:
    """expand and normalize write term by term, with the bytes of the whole."""

    @pytest.mark.parametrize("system", [SYSTEM_A, SYSTEM_B], ids=lambda s: s.name)
    def test_expand_bytes(self, capsys, system):
        for n in range(1, 9):
            poly = expand_formula(system, n)
            argv = ["expand", "--system", system.name, "--n", str(n)]
            assert run_cli(argv, capsys)[1] == f"{poly}\n"
            json_out = run_cli(argv + ["--format", "json"], capsys)[1]
            assert json_out == json.dumps(poly.to_json()) + "\n"

    def test_one_term_normalize_bytes(self, capsys):
        poly = normalize(NCPolynomial.from_word("ca"), SYSTEMS["A"])
        assert len(poly) == 1
        argv = ["normalize", "--system", "A", "--word", "ca"]
        assert run_cli(argv, capsys)[1] == f"{poly}\n"
        json_out = run_cli(argv + ["--format", "json"], capsys)[1]
        assert json_out == json.dumps(poly.to_json()) + "\n"


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

    def test_all_suites_json_is_pinned(self, capsys):
        # digest of the whole JSON output with every duration_ms set to 0
        code, out, _ = run_cli(["verify", "--suite", "all", "--format", "json"], capsys)
        assert code == 0
        masked = re.sub(r'"duration_ms": \d+', '"duration_ms": 0', out)
        assert hashlib.sha256(masked.encode()).hexdigest() == (
            "5046a0c072e9dbadcbde04df4c103e913c06ca9419ddf510e96bbb4123a6368d"
        )

    def test_degenerations_failure_exits_one(self, capsys, wrong_formula_term):
        # the coefficient [12, 5] of b^5 a^7 in the c = 0 limit
        wrong_formula_term(SYSTEM_A_C0, "b" * 5 + "a" * 7)
        code, out, _ = run_cli(["verify", "--suite", "degenerations"], capsys)
        assert code == 1
        assert out == "degenerations: 253/254 match\n"

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
        assert all("value" in row for row in data)
        words = [row["word"] for row in data]
        assert words == sorted(words, key=lambda w: (len(w), w))

    def test_formula_coefficients_have_no_poles(self, capsys):
        # every coefficient lies in Z[q, (1-q)^-1], so no root of unity other
        # than 1 is a pole, even where (q-1)^k is small in floats
        argv = ["eval", "--system", "B", "--n", "20", "--at-root", "100"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 231
        assert not any("pole" in line for line in lines)
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert len(data) == 231
        assert all(set(row) == {"word", "value"} for row in data)


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
