import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncsym import hopf, serialize, verify, words
from ncsym.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "product", "12", "1")
        assert (code, out) == (0, "12.3\n")

    def test_antipode_default_method(self, capsys):
        code, out, _ = run_cli(capsys, "antipode", "12.3")
        assert (code, out) == (0, "1.23\n")

    def test_antipode_methods_agree(self, capsys):
        outputs = set()
        for method in ("direct", "factored", "oracle"):
            code, out, _ = run_cli(capsys, "antipode", "13.2.4", "--method", method)
            assert code == 0
            outputs.add(out)
        assert outputs == {"(1.24.3) - (1.23.4) - (1.2.34)\n"}

    def test_antipode_of_unit(self, capsys):
        code, out, _ = run_cli(capsys, "antipode", "")
        assert (code, out) == (0, "∅\n")

    def test_counit(self, capsys):
        assert run_cli(capsys, "counit", "12.3")[:2] == (0, "0\n")
        assert run_cli(capsys, "counit", "")[:2] == (0, "1\n")

    def test_primitive(self, capsys):
        code, out, _ = run_cli(capsys, "primitive", "13.2")
        assert (code, out) == (0, "(13.2) - (12.3)\n")

    def test_atoms(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "12.346.57.8")
        assert (code, out) == (0, "12|124.35|1\n")

    def test_is_atomic(self, capsys):
        assert run_cli(capsys, "is-atomic", "17.235.4.68")[:2] == (0, "true\n")
        assert run_cli(capsys, "is-atomic", "12.346.57.8")[:2] == (0, "false\n")

    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "13|2", "13.29.458.7")
        assert (code, out) == (0, "12.345.67\n")

    def test_qshuffle_left(self, capsys):
        code, out, _ = run_cli(capsys, "qshuffle", "1|3", "24", "--left")
        assert code == 0
        assert out.splitlines() == ["124|3", "1|234", "1|24|3", "1|3|24"]

    def test_qshuffle_full_count(self, capsys):
        code, out, _ = run_cli(capsys, "qshuffle", "1|3", "24")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_lyndon(self, capsys):
        code, out, _ = run_cli(capsys, "lyndon", "aabb")
        assert (code, out) == (0, "true\n(a,abb)\n")
        code, out, _ = run_cli(capsys, "lyndon", "ba")
        assert (code, out) == (0, "false\n")

    def test_hall(self, capsys):
        code, out, _ = run_cli(capsys, "hall", "aabb")
        assert (code, out) == (0, "[a,[[a,b],b]]\n")

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "partitions", "3")
        assert code == 0
        assert out.splitlines() == ["123", "12.3", "13.2", "1.23", "1.2.3"]

    def test_enumerate_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "compositions", "3", "--count")
        assert (code, out) == (0, "13\n")

    def test_verify_small(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--max-weight", "2", "--checks", "antipode-methods"
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# verify max-weight=2")
        assert lines[1] == "ok antipode-methods cases=4"


class TestAntipodeSizes:
    def test_many_atoms_run_without_warning(self, capsys):
        code, out, err = run_cli(capsys, "antipode", "1.2.3.4.5.6.7.8.9.10.11,")
        assert (code, out, err) == (0, "-(1.2.3.4.5.6.7.8.9.10.11,)\n", "")

    def test_wide_atom_refused(self, capsys):
        code, out, err = run_cli(capsys, "antipode", "1,12.2.3.4.5.6.7.8.9.10.11")
        assert (code, out) == (2, "")
        assert "atom of 11 blocks" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("antipode", "1,12.2.3.4.5.6.7.8.9.10.11"),
            ("antipode", "1.2.3.4.5.6.7.8.9.10.11,", "--method", "direct"),
        ],
    )
    def test_refusal_prints_no_warning(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_warning_follows_the_method(self, capsys):
        nine = "1.2.3.4.5.6.7.8.9"
        assert run_cli(capsys, "antipode", nine)[2] == ""
        code, _, err = run_cli(capsys, "antipode", nine, "--method", "oracle")
        assert code == 0
        assert err.startswith("warning: 9 blocks;")
        assert "composition sum" not in err


class TestErrors:
    def test_parse_error_names_token(self, capsys):
        code, _, err = run_cli(capsys, "antipode", "1x.2")
        assert code == 2
        assert "'x'" in err

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "13|2", "1.2")
        assert code == 2
        assert "out of range" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "antipode", "1", "--bogus")[0] == 2

    def test_non_disjoint_shuffle(self, capsys):
        code, _, err = run_cli(capsys, "qshuffle", "12", "23")
        assert code == 2
        assert "disjoint" in err

    def test_non_lyndon_hall(self, capsys):
        code, _, err = run_cli(capsys, "hall", "ba")
        assert code == 2
        assert "Lyndon" in err

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        failing = verify.CheckResult("stub", cases=1, failures=["boom"])
        monkeypatch.setattr(verify, "run_checks", lambda *a, **k: [failing])
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL stub" in out
        assert json.loads(err.splitlines()[0]) == {"check": "stub", "detail": "boom"}


class TestGolden:
    def run_bytes(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ncsym", *argv],
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def test_antipode_golden(self):
        code, out = self.run_bytes("antipode", "12.3")
        assert code == 0
        assert out == (GOLDEN / "antipode_12_3.txt").read_bytes()

    def test_antipode_factored_golden(self):
        code, out = self.run_bytes("antipode", "13.2.4", "--method", "factored")
        assert code == 0
        assert out == (GOLDEN / "antipode_13_2_4_factored.txt").read_bytes()

    def test_verify_deterministic_modulo_timestamp(self):
        runs = [
            self.run_bytes("verify", "--max-weight", "3")[1].splitlines()
            for _ in range(2)
        ]
        assert runs[0][0].startswith(b"# verify")
        assert runs[0][1:] == runs[1][1:]


def label(obj):
    return obj.format() or "∅"


def lines_from_words(decoded):
    rendered = [serialize.word_from_obj(obj) for obj in decoded]
    return "".join(label(w) + "\n" for w in rendered)


def tree_from_obj(obj):
    if isinstance(obj, list):
        return tree_from_obj(obj[0]), tree_from_obj(obj[1])
    return obj


class TestJsonRoundTrip:
    """The JSON output of every subcommand re-parses to the text output."""

    def roundtrip(self, capsys, argv, decode):
        code_t, text, _ = run_cli(capsys, *argv)
        code_j, blob, _ = run_cli(capsys, *argv, "--format", "json")
        assert code_t == code_j == 0
        assert decode(json.loads(blob)) == text

    def test_product(self, capsys):
        self.roundtrip(
            capsys,
            ["product", "13.2", "1"],
            lambda obj: hopf.format_element(serialize.element_from_obj(obj)) + "\n",
        )

    def test_antipode(self, capsys):
        self.roundtrip(
            capsys,
            ["antipode", "14.2.3"],
            lambda obj: hopf.format_element(serialize.element_from_obj(obj)) + "\n",
        )

    def test_primitive(self, capsys):
        self.roundtrip(
            capsys,
            ["primitive", "13.2"],
            lambda obj: hopf.format_element(serialize.element_from_obj(obj)) + "\n",
        )

    def test_coproduct(self, capsys):
        self.roundtrip(
            capsys,
            ["coproduct", "12.3"],
            lambda obj: hopf.format_tensor(serialize.tensor_from_obj(obj)) + "\n",
        )

    def test_counit(self, capsys):
        self.roundtrip(capsys, ["counit", "12.3"], lambda obj: f"{obj}\n")

    def test_atoms(self, capsys):
        self.roundtrip(
            capsys,
            ["atoms", "12.346.57.8"],
            lambda obj: "|".join(
                serialize.partition_from_obj(o).format() for o in obj
            )
            + "\n",
        )

    def test_is_atomic(self, capsys):
        self.roundtrip(capsys, ["is-atomic", "1"], lambda obj: json.dumps(obj) + "\n")

    def test_eval(self, capsys):
        self.roundtrip(
            capsys,
            ["eval", "2|34", "13.28.456.7"],
            lambda obj: label(serialize.partition_from_obj(obj)) + "\n",
        )

    def test_qshuffle(self, capsys):
        self.roundtrip(capsys, ["qshuffle", "1|3", "24"], lines_from_words)
        self.roundtrip(capsys, ["qshuffle", "1|3", "24", "--left"], lines_from_words)

    def test_lyndon(self, capsys):
        def decode(obj):
            out = json.dumps(obj["lyndon"]) + "\n"
            if obj["factorization"]:
                out += f"({obj['factorization'][0]},{obj['factorization'][1]})\n"
            return out

        self.roundtrip(capsys, ["lyndon", "aabb"], decode)
        self.roundtrip(capsys, ["lyndon", "ba"], decode)

    def test_hall(self, capsys):
        self.roundtrip(
            capsys,
            ["hall", "aabb"],
            lambda obj: words.bracket_format(tree_from_obj(obj)) + "\n",
        )

    def test_enumerate(self, capsys):
        self.roundtrip(
            capsys,
            ["enumerate", "anchored", "3"],
            lambda obj: "".join(
                label(serialize.composition_from_obj(o)) + "\n" for o in obj
            ),
        )
        self.roundtrip(
            capsys,
            ["enumerate", "atomic", "4"],
            lambda obj: "".join(
                label(serialize.partition_from_obj(o)) + "\n" for o in obj
            ),
        )

    def test_enumerate_count(self, capsys):
        self.roundtrip(
            capsys,
            ["enumerate", "partitions", "5", "--count"],
            lambda obj: f"{obj['count']}\n",
        )

    def test_verify(self, capsys):
        argv = ["verify", "--max-weight", "2", "--checks", "cardinalities,primitives"]
        code_t, text, _ = run_cli(capsys, *argv)
        code_j, blob, _ = run_cli(capsys, *argv, "--format", "json")
        assert code_t == code_j == 0
        report = json.loads(blob)
        body = text.splitlines()[1:-1]
        assert [
            f"{'ok' if c['ok'] else 'FAIL'} {c['name']} cases={c['cases']}"
            for c in report["checks"]
        ] == body
        assert report["ok"] is True
