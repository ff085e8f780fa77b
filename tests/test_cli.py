import argparse
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsym import SetPartition, cli, hopf, serialize, verify, words
from ncsym.cli import main
from ncsym.setparts import WORK_LIMIT

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


class TestEnumerateBound:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("compositions", "12"),
                "enumerate compositions 12: predicted count Fubini(12) = 28091567595",
            ),
            (
                ("partitions", "1000000"),
                "enumerate partitions 1000000: predicted count Bell(1000000) > 474869816156751",
            ),
            (
                ("atomic", "12", "--count"),
                "enumerate atomic 12: predicted count Bell(12) = 4213597",
            ),
            (("anchored", "9"), "enumerate anchored 9: predicted count Fubini(9) = 7087261"),
        ],
    )
    def test_refused_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {message} (limit {WORK_LIMIT})\n"

    def test_counts_under_the_limit_still_print(self, capsys):
        assert run_cli(capsys, "enumerate", "partitions", "8", "--count")[:2] == (0, "4140\n")

    def test_negative_size_keeps_its_message(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "compositions", "-1")
        assert (code, out, err) == (2, "", "error: size must be a nonnegative integer, got -1\n")


class TestEnumerateCount:
    @pytest.mark.parametrize("kind", ["partitions", "atomic", "compositions", "anchored"])
    def test_count_equals_the_listing(self, capsys, kind):
        for n in range(8):
            code, text, _ = run_cli(capsys, "enumerate", kind, str(n))
            values = json.loads(run_cli(capsys, "enumerate", kind, str(n), "--format", "json")[1])
            assert code == 0 and text.count("\n") == len(values)
            count = run_cli(capsys, "enumerate", kind, str(n), "--count")
            assert count == (0, f"{len(values)}\n", "")
            count = run_cli(capsys, "enumerate", kind, str(n), "--count", "--format", "json")
            assert count == (0, json.dumps({"count": len(values)}) + "\n", "")

    def test_count_enumerates_nothing(self, capsys, monkeypatch):
        def no_stream(n):
            raise AssertionError("the stream ran")

        monkeypatch.setattr(cli, "_STREAMS", dict.fromkeys(cli._STREAMS, no_stream))
        # Sizes under the limit whose streams would take seconds to count.
        expected = {"partitions": 115975, "atomic": 67146, "compositions": 545835, "anchored": 94586}
        for kind, count in expected.items():
            size = "10" if kind in ("partitions", "atomic") else "8"
            assert run_cli(capsys, "enumerate", kind, size, "--count") == (0, f"{count}\n", "")

    def test_negative_size_counted_keeps_its_message(self, capsys):
        for kind in ("partitions", "atomic", "compositions", "anchored"):
            code, out, err = run_cli(capsys, "enumerate", kind, "-1", "--count")
            assert (code, out, err) == (2, "", "error: size must be a nonnegative integer, got -1\n")


class TestCoproductBound:
    def test_twenty_blocks_refused_without_splitting(self, capsys, monkeypatch):
        def no_splits(code):
            raise AssertionError("the splits ran")

        monkeypatch.setattr(hopf, "_all_splits", no_splits)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coproduct", ".".join(map(str, range(1, 21))) + ",")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: coproduct of 20 blocks: predicted 2^20 = 1048576 splits "
            f"(limit {WORK_LIMIT})\n"
        )

    def test_under_the_limit_still_prints(self, capsys):
        code, out, _ = run_cli(capsys, "coproduct", "1.2.3.4.5.6.7.8.9", "--format", "json")
        assert code == 0 and len(json.loads(out)["terms"]) == 10


class TestParserBuiltOnce:
    def test_later_calls_build_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        main(["counit", "1"])
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["product", "1", "1"]) == 0
        assert main(["antipode", "1", "--bogus"]) == 2
        assert built == []


def outcome(argv):
    """(exit, stdout, stderr) of ``main(argv)``, the timestamp of a verify
    text report left out."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, re.sub(r"started \S+", "started", out.getvalue()), err.getvalue()


def top_parser_outcome(argv):
    """``outcome(argv)`` with argv parsed by the top parser alone, as before
    ``main`` went to a subcommand's parser directly."""
    with mock.patch.object(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv)):
        return outcome(argv)


# Every argv the tests above run in process, then help and error argv: none,
# an option first, an unknown name, leftover or missing arguments, the "--"
# separator, and a bad option value.
DISPATCH_CORPUS = [
    ["product", "12", "1"], ["antipode", "12.3"], ["antipode", "13.2.4", "--method", "direct"],
    ["antipode", "13.2.4", "--method", "factored"], ["antipode", "13.2.4", "--method", "oracle"],
    ["antipode", ""], ["counit", "12.3"], ["counit", ""], ["counit", "1"], ["primitive", "13.2"],
    ["atoms", "12.346.57.8"], ["is-atomic", "17.235.4.68"], ["is-atomic", "12.346.57.8"],
    ["eval", "13|2", "13.29.458.7"], ["qshuffle", "1|3", "24", "--left"],
    ["qshuffle", "1|3", "24"], ["lyndon", "aabb"], ["lyndon", "ba"], ["hall", "aabb"],
    ["enumerate", "partitions", "3"], ["enumerate", "compositions", "3", "--count"],
    ["enumerate", "compositions", "12"], ["enumerate", "partitions", "1000000"],
    ["enumerate", "atomic", "12", "--count"], ["enumerate", "anchored", "9"],
    ["enumerate", "partitions", "8", "--count"], ["enumerate", "compositions", "-1"],
    ["enumerate", "atomic", "4", "--format", "json"], ["enumerate", "anchored", "-1", "--count"],
    ["coproduct", ".".join(map(str, range(1, 21))) + ","],
    ["coproduct", "1.2.3.4.5.6.7.8.9", "--format", "json"], ["product", "1", "1"],
    ["antipode", "1.2.3.4.5.6.7.8.9.10.11,"], ["antipode", "1,14.2.3.4.5.6.7.8.9.10.11.12.13"],
    ["antipode", "1.2.3.4.5.6.7.8.9.10.11,", "--method", "direct"],
    ["antipode", "1.2.3.4.5.6.7.8.9", "--method", "oracle"], ["antipode", "1x.2"],
    ["eval", "13|2", "1.2"], ["verify", "--checks", "bogus"], ["qshuffle", "12", "23"],
    ["hall", "ba"], ["qshuffle", "1", "2"], ["verify", "--max-weight", "-1"],
    ["verify", "--max-weight", "99"], ["verify", "--checks", ","], ["verify", "--checks", ""],
    ["verify", "--max-weight", "2", "--checks", "cardinalities,primitives"],
    ["verify", "--max-weight", "2", "--checks", "cardinalities,primitives", "--format", "json"],
    ["product", "13.2", "1", "--format", "json"], ["coproduct", "12.3", "--format", "json"],
    ["eval", "2|34", "13.28.456.7"], ["lyndon", "aabb", "--format", "json"],
    [], ["-h"], ["antipode", "-h"], ["frobnicate"], ["antipode", "1", "--bogus"],
    ["antipode", "--", "1"], ["product", "1"], ["verify", "--max-weight", "x"],
    ["enumerate", "partitions", "3", "extra"], ["--format", "json", "counit", "1"],
    ["enumerate", "bogus", "3"], ["antipode", "1", "--method", "bogus"], ["verify", "-h"],
]


class TestOneParseLevel:
    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
    def test_same_outcome_as_the_top_parser(self, argv):
        assert outcome(argv) == top_parser_outcome(argv)

    def test_help_and_errors_keep_their_usage(self):
        code, out, err = outcome([])
        assert (code, out) == (2, "") and err.startswith("usage: ncsym [-h]")
        assert err.endswith("ncsym: error: the following arguments are required: command\n")
        code, out, err = outcome(["enumerate", "partitions", "3", "extra"])
        assert (code, out) == (2, "")
        assert err.endswith("ncsym: error: unrecognized arguments: extra\n")
        code, out, err = outcome(["product", "1"])
        assert (code, out) == (2, "")
        assert err.endswith("ncsym product: error: the following arguments are required: right\n")
        assert outcome(["antipode", "-h"])[1].startswith("usage: ncsym antipode [-h]")

    def test_a_subcommand_argv_skips_the_top_parser(self, monkeypatch):
        parser, commands = cli._shared_parsers()

        def refused(*args, **kwargs):
            raise AssertionError("parsed by the top parser")

        monkeypatch.setattr(parser, "parse_args", refused)
        monkeypatch.setattr(parser, "parse_known_args", refused)
        assert outcome(["product", "1", "1", "--format", "json"])[0] == 0
        assert outcome(["verify", "--checks", "counit-laws", "--max-weight", "2"])[0] == 0


class TestAntipodeSizes:
    def test_many_atoms_run_without_warning(self, capsys):
        code, out, err = run_cli(capsys, "antipode", "1.2.3.4.5.6.7.8.9.10.11,")
        assert (code, out, err) == (0, "-(1.2.3.4.5.6.7.8.9.10.11,)\n", "")

    def test_wide_atom_refused(self, capsys):
        code, out, err = run_cli(capsys, "antipode", "1,14.2.3.4.5.6.7.8.9.10.11.12.13")
        assert (code, out) == (2, "")
        assert err == (
            "error: antipode of an atom of 13 blocks: predicted 3^13 = 1594323 splits "
            "(limit 1000000)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("antipode", "1,14.2.3.4.5.6.7.8.9.10.11.12.13"),
            ("antipode", "1.2.3.4.5.6.7.8.9.10.11,", "--method", "direct"),
        ],
    )
    def test_refusal_prints_no_warning(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_ten_block_atom_runs_without_warning(self, capsys):
        chain = "1,3.2,5.4,7.6,9.8,11.10,13.12,15.14,17.16,19.18,20"
        code, out, err = run_cli(capsys, "antipode", chain)
        assert (code, err) == (0, "")
        assert out.count("(") == 512

    def test_no_method_warns(self, capsys):
        nine = "1.2.3.4.5.6.7.8.9"
        for method in ("factored", "oracle"):
            assert run_cli(capsys, "antipode", nine, "--method", method) == (
                0,
                "-(1.2.3.4.5.6.7.8.9)\n",
                "",
            )
        assert run_cli(capsys, "antipode", nine, "--method", "direct") == (
            2,
            "",
            "error: antipode_direct of 9 blocks: predicted Fubini(9) = 7087261 compositions "
            "(limit 1000000)\n",
        )

    def test_output_size_refused_before_multiplying(self, capsys):
        # Sixteen copies of the atom 13.2, whose antipode has 3 terms: 3^16
        # product terms, far more than memory holds.
        copies = ".".join(f"{i},{i + 2}.{i + 1}" for i in range(1, 48, 3))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "antipode", copies)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: antipode of a product of atoms: predicted Π|S(atom)| = 43046721 terms "
            "(limit 1000000)\n"
        )


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

    def test_recursion_limit_is_an_input_error(self, capsys):
        long_word = "|".join(map(str, range(1, 1500))) + ","
        code, out, err = run_cli(capsys, "qshuffle", long_word, "1500,")
        assert (code, out) == (2, "")
        assert err == "error: input too large: recursion limit exceeded\n"

    def test_out_of_memory_is_an_input_error(self, capsys, monkeypatch):
        def exhausted(u, v):
            raise MemoryError

        monkeypatch.setattr(words, "quasi_shuffle", exhausted)
        code, out, err = run_cli(capsys, "qshuffle", "1", "2")
        assert (code, out, err) == (2, "", "error: input too large: out of memory\n")

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(u, v):
            raise KeyboardInterrupt

        monkeypatch.setattr(words, "quasi_shuffle", interrupted)
        code, out, err = run_cli(capsys, "qshuffle", "1", "2")
        assert (code, out, err) == (130, "", "error: interrupted\n")

    def test_type_error_is_an_input_error(self, capsys, monkeypatch):
        def mistyped(u, v):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(words, "quasi_shuffle", mistyped)
        code, out, err = run_cli(capsys, "qshuffle", "1", "2")
        assert (code, out, err) == (2, "", "error: unsupported operand\n")

    def test_coproduct_of_256_blocks_is_refused(self, capsys):
        singletons = ".".join(map(str, range(1, 257))) + ","
        code, out, err = run_cli(capsys, "coproduct", singletons)
        assert (code, out) == (2, "")
        assert err == (
            "error: coproduct of 256 blocks: predicted 2^256 > 2097152 splits (limit 1000000)\n"
        )

    @pytest.mark.parametrize("weight", ["-1", str(verify.MAX_WEIGHT + 1), "99"])
    def test_verify_weight_out_of_range(self, capsys, weight):
        code, out, err = run_cli(capsys, "verify", "--max-weight", weight)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: max weight must be")
        with pytest.raises(ValueError, match="max weight must be"):
            verify.run_checks(int(weight), ["cardinalities"])

    @pytest.mark.parametrize("checks", [",", ""])
    def test_verify_empty_check_list(self, capsys, checks):
        code, out, err = run_cli(capsys, "verify", "--checks", checks)
        assert (code, out, err) == (2, "", "error: no check selected\n")
        with pytest.raises(ValueError, match="no check selected"):
            verify.run_checks(3, [])

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        failing = verify.CheckResult("stub", cases=1, failures=["boom"])
        monkeypatch.setattr(verify, "run_checks", lambda *a, **k: [failing])
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL stub" in out
        assert json.loads(err.splitlines()[0]) == {"check": "stub", "detail": "boom"}

    def test_closed_pipe_exits_quietly(self):
        # Bell(10) lines fill the pipe long before the child is done, so it is
        # still writing when the reader closes after the first line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "ncsym", "enumerate", "partitions", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == b"1,10.2,3,4,5,6,7,8,9\n"
        assert err == b""


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

    def test_verify_w5_json_golden(self):
        # The whole report at seed 0, every check's case count included; the
        # JSON form carries no timestamp.
        code, out = self.run_bytes("verify", "--max-weight", "5", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "verify_w5.json").read_bytes()

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


# A bounded argv grammar: every subcommand and both encodings, well-formed
# shorthand (partitions of at most 5 blocks) mixed with raw text over the
# shorthand alphabet, which is at most 9 characters and so at most 5 blocks.
RAW = st.text(alphabet="0123456789.,|∅", max_size=9)


def _shorthand(labelled):
    """Text of the partition putting each element in the block of its label."""
    blocks = {}
    for element, label in labelled.items():
        blocks.setdefault(label, []).append(element)
    return SetPartition(blocks.values()).format()


PARTITIONS = st.one_of(
    RAW, st.dictionaries(st.integers(1, 12), st.integers(0, 4), max_size=8).map(_shorthand)
)
GROUPS = st.one_of(
    RAW,
    st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3), max_size=4).map(
        lambda groups: "|".join("".join(map(str, g)) for g in groups)
    ),
)
LETTERS = st.text(alphabet="abc", max_size=6)


COMMANDS = [
    "product", "coproduct", "counit", "antipode", "primitive", "atoms", "is-atomic",
    "eval", "qshuffle", "lyndon", "hall", "enumerate", "verify",
]


def _arguments(draw, command):
    if command == "product":
        return [draw(PARTITIONS), draw(PARTITIONS)]
    if command == "antipode":
        methods = st.sampled_from([[], ["--method", "direct"], ["--method", "oracle"]])
        return [draw(PARTITIONS), *draw(methods)]
    if command == "eval":
        return [draw(GROUPS), draw(PARTITIONS)]
    if command == "qshuffle":
        return [draw(GROUPS), draw(GROUPS), *draw(st.sampled_from([[], ["--left"]]))]
    if command in ("lyndon", "hall"):
        return [draw(LETTERS)]
    if command == "enumerate":
        kind = draw(st.sampled_from(["partitions", "atomic", "compositions", "anchored"]))
        size = draw(st.integers(-1, 6))
        return [kind, str(size), *draw(st.sampled_from([[], ["--count"]]))]
    if command == "verify":
        weight, seed = draw(st.integers(-1, 2)), draw(st.integers(0, 9))
        return ["--checks", "counit-laws", "--max-weight", str(weight), "--seed", str(seed)]
    return [draw(PARTITIONS)]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_0_or_2(command, fmt, data):
    argv = [command, *_arguments(data.draw, command), "--format", fmt]
    result = outcome(argv)
    assert result[0] in (0, 2), argv
    assert result == top_parser_outcome(argv), argv
