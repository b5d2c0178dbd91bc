import hashlib
import json
import os
import re
import subprocess
import sys
import time
from enum import IntEnum
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchain import gamma_complex, geometry, io, partitions, polynomials, posets, toric, verify
from enchain.cli import COMMANDS, DEFAULTS, build_parser, config_from_args, main
from enchain.io import MAX_INPUT_N, parse_poset, render_json, render_tsv
from enchain.polynomials import IntPolynomial
from enchain.errors import IdentityViolation, ParseError, SizeLimit


@pytest.fixture
def chain2(tmp_path):
    path = tmp_path / "chain2.poset"
    path.write_text("2\n1 < 2\n")
    return str(path)


@pytest.fixture
def anti2(tmp_path):
    path = tmp_path / "anti2.poset"
    path.write_text("2\n")
    return str(path)


@pytest.fixture
def v3(tmp_path):
    path = tmp_path / "v3.poset"
    path.write_text("3\n1 < 3\n2 < 3\n")
    return str(path)


@pytest.fixture
def cold_hstar():
    """An empty h* memo around a test that patches the dilation counts, so
    its counts neither reach nor outlive it."""
    geometry.ehrhart_and_hstar.cache_clear()
    yield
    geometry.ehrhart_and_hstar.cache_clear()


DATA = Path(__file__).parent / "data"

# Posets whose grobner and triangulation outputs are stored in tests/data.
TORIC_POSETS = {
    "anti4": "4\n",
    "anti5": "5\n",
    "bowtie": "5\n1 < 3\n2 < 3\n3 < 4\n3 < 5\n",
}

# Posets whose complex outputs are stored in tests/data; relabeled4 is not
# naturally labelled, so its output carries relabeled_by.
COMPLEX_POSETS = {
    "anti4": "4\n",
    "relabeled4": "4\n4 < 1\n",
    "anti6": "6\n",
}

# Posets whose peaks and gamma outputs are stored in tests/data: the
# 6-antichain's 720 extensions, and 5 elements labelled against the order,
# whose payloads carry relabeled_by.
PEAK_POSETS = {
    "anti6": "6\n",
    "relabeled5": "5\n2 < 1\n2 < 4\n5 < 3\n",
}

# Posets whose outputs of the plain JSON commands are stored in tests/data;
# relabeled3 is not naturally labelled, so the payloads that canonicalize
# carry relabeled_by.
JSON_POSETS = {
    "chain2": "2\n1 < 2\n",
    "v3": "3\n1 < 3\n2 < 3\n",
    "relabeled3": "3\n3 < 1\n3 < 2\n",
}
JSON_COMMANDS = ("antichains", "extensions", "ehrhart", "hstar", "gamma", "peaks", "partitions")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_matches_golden(out, stem):
    """Compare output with tests/data/<stem>.json byte for byte, or with
    the SHA-256 digest in <stem>.sha256 where the output is large (the
    5-antichain triangulation, 396 KB; the 6-antichain complex, 412 KB)."""
    digest = DATA / f"{stem}.sha256"
    if digest.exists():
        assert hashlib.sha256(out.encode()).hexdigest() == digest.read_text().strip()
    else:
        assert out.encode() == (DATA / f"{stem}.json").read_bytes()


class TestParsing:
    def test_text_format(self):
        poset = parse_poset("3\n1 < 3\n2 < 3\n")
        assert poset.pairs == {(1, 3), (2, 3)}

    def test_json_format(self):
        poset = parse_poset('{"n": 3, "covers": [[1, 3], [2, 3]]}')
        assert poset.pairs == {(1, 3), (2, 3)}

    def test_comments_and_blanks(self):
        poset = parse_poset("# a chain\n\n2\n1 < 2\n")
        assert poset.pairs == {(1, 2)}

    def test_malformed_cover(self):
        with pytest.raises(ParseError):
            parse_poset("2\n1 <\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_poset("\n\n")

    @pytest.mark.parametrize(
        "text, value",
        [
            ('{"n": 2.7, "covers": []}', "2.7"),
            ('{"n": 2.0, "covers": []}', "2.0"),
            ('{"n": true, "covers": []}', "true"),
            ('{"n": "2", "covers": []}', '"2"'),
            ('{"n": 3, "covers": [[1.9, 3]]}', "1.9"),
            ('{"n": 3, "covers": [[1, false]]}', "false"),
            ('{"n": 3, "covers": [["1", 3]]}', '"1"'),
        ],
    )
    def test_json_numbers_must_be_integers(self, text, value):
        with pytest.raises(ParseError, match=f"must be integers, got {re.escape(value)}$"):
            parse_poset(text)

    @pytest.mark.parametrize("text", ['{"n": 256, "covers": []}', "256\n", "256\n255 < 256\n"])
    def test_n_at_the_input_bound_is_accepted(self, text):
        assert parse_poset(text).n == MAX_INPUT_N == 256

    def test_json_float_exits_one(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"n": 2.7, "covers": []}')
        assert main(["antichains", str(path)]) == 1
        assert "got 2.7" in capsys.readouterr().err

    def test_non_utf8_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_bytes(b"\xff\xfe3\n")
        assert main(["ehrhart", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read poset file {path}: ") and err.count("\n") == 1


class TestCommands:
    def test_ehrhart_two_chain(self, capsys, chain2):
        code, out = run(capsys, ["ehrhart", chain2])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "L": [1, 2, 2],
            "hstar": [1, 2, 1],
            "gamma": [1],
            "volume": 4,
        }

    def test_complex_two_antichain(self, capsys, anti2):
        code, out = run(capsys, ["complex", anti2])
        assert code == 0
        payload = json.loads(out)
        assert payload["f"] == [1, 4]
        assert payload["identity"] == "pass"
        assert payload["kruskal_katona"] == "pass"

    def test_antichains(self, capsys, v3):
        code, out = run(capsys, ["antichains", v3])
        payload = json.loads(out)
        assert payload["count"] == 5
        assert [1, 2] in payload["antichains"]

    def test_extensions(self, capsys, v3):
        code, out = run(capsys, ["extensions", v3])
        payload = json.loads(out)
        assert payload["extensions"] == [[1, 2, 3], [2, 1, 3]]

    def test_hstar_properties(self, capsys, v3):
        code, out = run(capsys, ["hstar", v3])
        payload = json.loads(out)
        assert payload["hstar"] == [1, 7, 7, 1]
        assert payload["properties"]["palindromic"]
        assert payload["properties"]["gamma_positive"]

    def test_gamma(self, capsys, v3):
        code, out = run(capsys, ["gamma", v3])
        payload = json.loads(out)
        assert payload["gamma"] == [1, 4]
        assert payload["left_peak"] == [1, 1]

    def test_partitions(self, capsys, chain2):
        code, out = run(capsys, ["partitions", chain2, "--m", "1"])
        payload = json.loads(out)
        assert payload["count"] == 5

    def test_peaks(self, capsys, v3):
        code, out = run(capsys, ["peaks", v3])
        payload = json.loads(out)
        assert payload["W_left"] == [1, 1]
        assert payload["W_des"] == [1, 1]
        assert payload["extensions"] == 2

    def test_grobner(self, capsys, chain2):
        code, out = run(capsys, ["grobner", chain2])
        payload = json.loads(out)
        assert payload["buchberger"] == "pass"
        assert payload["hilbert_checks"] == [[1, 5, 5], [2, 13, 13], [3, 25, 25]]
        assert payload["triangulation"]["boundary_h"] == [1, 2, 1]

    def test_triangulation(self, capsys, anti2):
        code, out = run(capsys, ["triangulation", anti2])
        payload = json.loads(out)
        assert payload["simplices"] == 8
        assert payload["boundary_h"] == [1, 6, 1]
        assert payload["unimodular"] is True

    @pytest.mark.parametrize("name", sorted(TORIC_POSETS))
    @pytest.mark.parametrize("command", ["grobner", "triangulation"])
    def test_toric_output_is_byte_identical(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(TORIC_POSETS[name])
        code, out = run(capsys, [command, str(path)])
        assert code == 0
        assert_matches_golden(out, f"{command}_{name}")

    def test_grobner_on_a_two_chain_beside_two_points_is_byte_identical(self, capsys, tmp_path):
        # its kept symmetries fix fewer variables than the 4-antichain's, so
        # this pins the verdict and basis of a second reduced Buchberger walk
        path = tmp_path / "chain2_plus2.poset"
        path.write_text("4\n3 < 4\n")
        code, out = run(capsys, ["grobner", str(path)])
        assert code == 0
        assert json.loads(out)["buchberger"] == "pass"
        assert_matches_golden(out, "grobner_chain2_plus2")

    def test_grobner_on_a_reverse_labelled_six_element_fence_is_byte_identical(self, capsys, tmp_path):
        # every element labelled against the order, at n = 6, where no sweep
        # goes: the graph and the Hilbert rows past Buchberger's cap
        path = tmp_path / "fence6_relabeled.poset"
        path.write_text("6\n2 < 1\n2 < 3\n4 < 3\n4 < 5\n6 < 5\n")
        code, out = run(capsys, ["grobner", str(path)])
        assert code == 0
        assert_matches_golden(out, "grobner_fence6_relabeled")

    @pytest.mark.parametrize("name", sorted(COMPLEX_POSETS))
    def test_complex_output_is_byte_identical(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(COMPLEX_POSETS[name])
        code, out = run(capsys, ["complex", str(path)])
        assert code == 0
        assert_matches_golden(out, f"complex_{name}")

    @pytest.mark.parametrize("fmt, suffix", [("tsv", "tsv"), ("text", "txt")])
    def test_flat_complex_is_byte_identical(self, capsys, tmp_path, fmt, suffix):
        # the flat renderers on the complex's edges, which are tuples
        path = tmp_path / "anti4.poset"
        path.write_text(COMPLEX_POSETS["anti4"])
        code, out = run(capsys, ["complex", str(path), "--format", fmt])
        assert code == 0
        assert out.encode() == (DATA / f"complex_anti4.{suffix}").read_bytes()

    @pytest.mark.parametrize("name", sorted(JSON_POSETS))
    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_json_output_is_byte_identical(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(JSON_POSETS[name])
        code, out = run(capsys, [command, str(path)])
        assert code == 0
        assert_matches_golden(out, f"{command}_{name}")

    def test_extensions_of_a_non_natural_five_poset_are_byte_identical(self, capsys, tmp_path):
        # labels that are not natural: the walk orders the 20 extensions as given
        path = tmp_path / "relabeled5.poset"
        path.write_text("5\n2 < 1\n2 < 4\n5 < 3\n")
        code, out = run(capsys, ["extensions", str(path)])
        assert code == 0 and json.loads(out)["count"] == 20
        assert_matches_golden(out, "extensions_relabeled5")

    @pytest.mark.parametrize("name", sorted(PEAK_POSETS))
    @pytest.mark.parametrize("command", ["peaks", "gamma"])
    def test_peak_outputs_past_three_elements_are_byte_identical(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(PEAK_POSETS[name])
        code, out = run(capsys, [command, str(path)])
        assert code == 0
        assert_matches_golden(out, f"{command}_{name}")

    def test_omitted_partitions_output_is_byte_identical(self, capsys, tmp_path):
        # 9^4 = 6561 partitions, past the 5000 that are listed
        path = tmp_path / "anti4.poset"
        path.write_text("4\n")
        code, out = run(capsys, ["partitions", str(path), "--m", "4"])
        assert code == 0 and json.loads(out)["partitions"] == "omitted"
        assert_matches_golden(out, "partitions_omitted")

    def test_omitted_partitions_are_counted_not_listed(self, capsys, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the omitted case listed its partitions")

        monkeypatch.setattr(partitions, "iter_partitions", forbidden)
        path = tmp_path / "anti4.poset"
        path.write_text("4\n")
        code, out = run(capsys, ["partitions", str(path), "--m", "4"])
        assert code == 0
        assert_matches_golden(out, "partitions_omitted")

    def test_partitions_past_the_former_guard_are_omitted(self, capsys, tmp_path, monkeypatch):
        # 11^8 partitions: counted by the ideal-chain kernel, never listed
        def forbidden(*args, **kwargs):
            raise AssertionError("the omitted case listed its partitions")

        monkeypatch.setattr(partitions, "iter_partitions", forbidden)
        path = tmp_path / "anti8.poset"
        path.write_text("8\n")
        start = time.perf_counter()
        code, out = run(capsys, ["partitions", str(path), "--m", "5"])
        assert time.perf_counter() - start < 10
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 214358881 and payload["partitions"] == "omitted"

    def test_non_natural_input_notes_relabeling(self, capsys, tmp_path):
        path = tmp_path / "rev.poset"
        path.write_text("2\n2 < 1\n")
        code, out = run(capsys, ["peaks", str(path)])
        payload = json.loads(out)
        assert code == 0
        assert payload["relabeled_by"] == [2, 1]


class TestHilbertCertificateOnce:
    @pytest.fixture
    def degrees(self, monkeypatch):
        """Degrees the Hilbert certificate passes to count_dilation, from a
        cold cache."""
        seen = []
        original = toric.count_dilation

        def record(poset, m):
            seen.append(m)
            return original(poset, m)

        monkeypatch.setattr(toric, "count_dilation", record)
        toric.hilbert_certificate.cache_clear()
        yield seen
        toric.hilbert_certificate.cache_clear()

    def test_verify_poset(self, degrees):
        row = verify.verify_poset(parse_poset("4\n"))
        assert row["alarms"] == [] and row["triangulation"]["pass"]
        assert degrees == [1, 2, 3]

    def test_cmd_grobner(self, capsys, tmp_path, degrees):
        path = tmp_path / "anti4.poset"
        path.write_text("4\n")
        code, out = run(capsys, ["grobner", str(path)])
        assert code == 0 and "boundary_h" in json.loads(out)["triangulation"]
        assert degrees == [1, 2, 3]

    def test_failed_certificate_still_alarms_triangulation(self, capsys, anti2, monkeypatch):
        toric.hilbert_certificate.cache_clear()
        original = toric.count_dilation
        monkeypatch.setattr(toric, "count_dilation", lambda p, m: original(p, m) + 1)
        try:
            assert main(["triangulation", anti2]) == 2
            assert "initial ideal certificate failed" in capsys.readouterr().err
        finally:
            toric.hilbert_certificate.cache_clear()


class TestAlarmsNameTheirValues:
    def test_complex_kruskal_katona(self, capsys, anti2, monkeypatch):
        monkeypatch.setattr(gamma_complex, "kruskal_katona_check", lambda f: False)
        assert main(["complex", anti2]) == 2
        err = capsys.readouterr().err
        assert "alarm: complex f-vector [1, 4] fails Kruskal-Katona" in err

    def test_verify_poset_kruskal_katona(self, monkeypatch):
        monkeypatch.setattr(gamma_complex, "kruskal_katona_check", lambda f: False)
        row = verify.verify_poset(parse_poset("2\n"))
        assert row["complex"]["kruskal_katona"] is False
        assert "complex f-vector [1, 4] fails Kruskal-Katona" in row["alarms"]

    def test_buchberger(self, capsys, chain2, monkeypatch):
        monkeypatch.setattr(toric, "buchberger_verify", lambda *a, **k: False)
        assert main(["grobner", chain2]) == 2
        err = capsys.readouterr().err
        assert "buchberger verification failed: basis size 2, leading terms agree: True" in err

    def test_buchberger_leading_terms(self, capsys, chain2, monkeypatch):
        monkeypatch.setattr(toric, "leading_terms_agree", lambda basis, weights: False)
        assert main(["grobner", chain2]) == 2
        err = capsys.readouterr().err
        assert "buchberger verification failed: basis size 2, leading terms agree: False" in err

    def verify_all_alarms(self, capsys, path):
        code, out = run(capsys, ["verify-all", "--poset", path])
        assert code == 2
        return json.loads(out)["rows"][0]["alarms"]

    def test_verify_all_hilbert(self, capsys, chain2, monkeypatch):
        original = toric.count_dilation
        monkeypatch.setattr(toric, "count_dilation", lambda p, m: original(p, m) + 1)
        toric.hilbert_certificate.cache_clear()
        expected = "hilbert certificate failed: [(1, 5, 6), (2, 13, 14), (3, 25, 26)]"
        try:
            assert expected in self.verify_all_alarms(capsys, chain2)
            assert main(["grobner", chain2]) == 2
            assert f"alarm: {expected}" in capsys.readouterr().err
        finally:
            toric.hilbert_certificate.cache_clear()

    def test_verify_all_buchberger(self, capsys, chain2, monkeypatch):
        monkeypatch.setattr(toric, "buchberger_verify", lambda *a, **k: False)
        assert self.verify_all_alarms(capsys, chain2) == [
            "buchberger verification failed: basis size 2, leading terms agree: True"
        ]

    def test_verify_all_buchberger_leading_terms(self, capsys, chain2, monkeypatch):
        monkeypatch.setattr(toric, "leading_terms_agree", lambda basis, weights: False)
        assert self.verify_all_alarms(capsys, chain2) == [
            "buchberger verification failed: basis size 2, leading terms agree: False"
        ]


class TestParser:
    @pytest.mark.parametrize("name", [*COMMANDS, "verify-all"])
    def test_help_lists_the_flags_of_each_command(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--guard-points" in out
        assert bool(re.search(r"--m\b", out)) == (name == "partitions")
        assert ("--kind" in out) == (name == "partitions")


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_text("2\n1 <\n")
        assert main(["ehrhart", str(path)]) == 1

    def test_cycle(self, capsys, tmp_path):
        path = tmp_path / "cycle.poset"
        path.write_text("2\n1 < 2\n2 < 1\n")
        assert main(["antichains", str(path)]) == 1

    @pytest.mark.parametrize(
        "text", ['{"n": 1000000000, "covers": []}', "1000000000\n", '{"n": 257, "covers": []}']
    )
    def test_n_past_the_input_bound_exits_one_at_once(self, capsys, tmp_path, text):
        path = tmp_path / "huge.poset"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["verify-all", "--poset", str(path)]) == 1
        assert time.perf_counter() - start < 1
        n = json.loads(text)["n"] if text.startswith("{") else int(text)
        assert f"may give at most 256 elements, got n={n}" in capsys.readouterr().err

    def test_verify_all_guard(self, capsys):
        assert main(["verify-all", "--max-n", "12"]) == 1

    @pytest.mark.parametrize(
        "flag", ["--max-n", "--max-m", "--truncation", "--guard-points", "--guard-spairs"]
    )
    def test_zero_is_rejected(self, capsys, chain2, flag):
        assert main(["ehrhart", chain2, flag, "0"]) == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grobner", "triangulation"])
    def test_guard_points_leave_toric_commands_alone(self, capsys, tmp_path, command):
        # the point guard bounds partition work only, which no toric command does
        path = tmp_path / "anti4.poset"
        path.write_text("4\n")
        code, out = run(capsys, [command, str(path), "--guard-points", "1"])
        assert code == 0
        assert_matches_golden(out, f"{command}_anti4")

    @pytest.mark.parametrize("command", ["ehrhart", "verify-all"])
    def test_unknown_format_is_rejected_before_any_work(
        self, capsys, chain2, monkeypatch, command
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started its work")

        monkeypatch.setattr(geometry, "hstar_and_gamma", no_work)
        monkeypatch.setattr(verify, "verify_poset", no_work)
        monkeypatch.setenv("ENCHAIN_FORMAT", "xml")
        argv = [command, chain2] if command == "ehrhart" else [command, "--poset", chain2]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown format 'xml'") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ehrhart", "--format", "xml", "x"],
            ["ehrhart"],
            ["nosuch"],
            ["ehrhart", "--max-n", "abc", "x"],
        ],
    )
    def test_usage_error_is_an_input_error(self, capsys, argv):
        # argparse's own exit status, 2, is the code of an identity alarm
        assert main(argv) == 1
        assert "usage: enchain" in capsys.readouterr().err

    def test_grobner_spair_guard_trip_exits_one(self, capsys, tmp_path):
        # the command runs the row's Buchberger check, but a trip is an error, not a skip
        path = tmp_path / "anti4.poset"
        path.write_text("4\n")
        assert main(["grobner", str(path), "--guard-spairs", "1"]) == 1
        assert capsys.readouterr().err == "error: 77664 S-pair lcm classes exceed guard 1\n"

    def test_missing_file(self, capsys):
        assert main(["ehrhart", "/nonexistent/poset"]) == 1

    def test_negative_partition_bound_is_rejected(self, capsys, chain2):
        assert main(["partitions", chain2, "--m", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        code, out = run(capsys, ["partitions", chain2, "--m", "0"])
        assert code == 0 and json.loads(out)["count"] == 1


# An environment value and a flag value for each option, neither its default.
OPTION_VALUES = {name: ("tsv", "text") if name == "format" else ("3", "5") for name in DEFAULTS}
INT_OPTIONS = [name for name, default in DEFAULTS.items() if isinstance(default, int)]


def option(argv, name):
    cfg = config_from_args(build_parser().parse_args(argv))
    return str(cfg.fmt if name == "format" else getattr(cfg, name))


class TestOptions:
    """Every option is read from its flag, else its ENCHAIN_ variable, else
    its default."""

    @pytest.fixture(autouse=True)
    def no_variables(self, monkeypatch):
        for name in DEFAULTS:
            monkeypatch.delenv(f"ENCHAIN_{name.upper()}", raising=False)

    @pytest.mark.parametrize("name", list(DEFAULTS))
    def test_variable_sets_the_option_and_the_flag_wins(self, monkeypatch, name):
        from_variable, from_flag = OPTION_VALUES[name]
        flag = "--" + name.replace("_", "-")
        assert option(["ehrhart", "p"], name) == str(DEFAULTS[name])
        monkeypatch.setenv(f"ENCHAIN_{name.upper()}", from_variable)
        assert option(["ehrhart", "p"], name) == from_variable
        assert option(["ehrhart", "p", flag, from_flag], name) == from_flag

    @pytest.mark.parametrize("name", INT_OPTIONS)
    def test_a_variable_that_is_no_integer_exits_one(self, capsys, chain2, monkeypatch, name):
        monkeypatch.setenv(f"ENCHAIN_{name.upper()}", "abc")
        assert main(["ehrhart", chain2]) == 1
        assert capsys.readouterr().err == f"error: bad ENCHAIN_{name.upper()} value 'abc'\n"

    @pytest.mark.parametrize("name", INT_OPTIONS)
    def test_a_zero_variable_exits_one(self, capsys, chain2, monkeypatch, name):
        monkeypatch.setenv(f"ENCHAIN_{name.upper()}", "0")
        assert main(["ehrhart", chain2]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_verify_all_sweeps_to_four_without_max_n(self, capsys):
        code, out = run(capsys, ["verify-all"])
        assert code == 0
        assert out.encode() == (DATA / "verify_all_max_n4.json").read_bytes()

    def test_verify_all_sweeps_to_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("ENCHAIN_MAX_N", "3")
        code, out = run(capsys, ["verify-all"])
        assert code == 0
        assert out.encode() == (DATA / "verify_all_max_n3.json").read_bytes()


class TestWorkBounds:
    """Bounds that would exhaust memory or run for hours are refused before
    any work."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["partitions", "--m", "100000000"],
                "bound m=100000000: 6800000000 transfer additions exceed guard 33554432",
            ),
            (["verify-all", "--max-m", "100000", "--poset"], "max_m may be at most 16, got 100000"),
            (
                ["verify-all", "--truncation", "100000", "--poset"],
                "truncation may be at most 1024, got 100000",
            ),
        ],
    )
    def test_huge_bounds_exit_one_at_once(self, capsys, chain2, argv, message):
        start = time.perf_counter()
        assert main(argv + [chain2]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bounds_at_their_limits_run(self, capsys, chain2):
        argv = ["verify-all", "--poset", chain2, "--max-m", "16", "--truncation", "1024"]
        code, out = run(capsys, argv)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["ehrhart_equals_left_order"] == {"max_m": 16, "pass": True}
        assert row["series_identity"] == {"truncation": 1024, "pass": True}
        assert row["alarms"] == []

    def test_interpolation_past_its_guard_reads_skipped(self):
        # the 512-chain is past io.MAX_INPUT_N, so only a library caller
        # reaches its counts; the 256-chain's stay under the guard
        row = verify.verify_poset(posets.poset_from_covers(512, [(i, i + 1) for i in range(1, 512)]))
        for key in ("gamma_left_peak", "volume_extensions", "enriched_relation"):
            assert row[key].startswith("skipped (interpolating 513 values of up to "), key
            assert row[key].endswith(f" exceeds guard {polynomials.INTERPOLATE_WORK_GUARD})"), key
        assert row["ehrhart_equals_left_order"] == {"max_m": 4, "pass": True}
        assert row["alarms"] == []
        relation = verify.verify_poset(chain(MAX_INPUT_N))["enriched_relation"]
        assert len(relation["left_order"]) == MAX_INPUT_N + 1

    def test_ehrhart_exits_one_when_interpolation_trips(self, capsys, chain2, monkeypatch, cold_hstar):
        monkeypatch.setattr(polynomials, "INTERPOLATE_WORK_GUARD", 31)
        assert main(["ehrhart", chain2]) == 1
        # the counts 1, 5, 13: d = 2, 4 bits, work 2 * 2 * (4 + 2 * 2)
        message = "interpolating 3 values of up to 4 bits: work 32 exceeds guard 31"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"max_m": 0}, "max_m must be at least 1, got 0"),
            ({"max_m": -3}, "max_m must be at least 1, got -3"),
            ({"truncation": -1}, "truncation must be at least 1, got -1"),
            ({"guard_points": -5}, "guard_points must be at least 1, got -5"),
            ({"guard_spairs": 0}, "guard_spairs must be at least 1, got 0"),
        ],
    )
    def test_bounds_below_one_are_refused(self, bounds, message):
        # a row past no bound compares nothing, and a guard below 1 skips
        # what it guards, so neither may read as a pass
        with pytest.raises(SizeLimit) as exc:
            verify.verify_poset(parse_poset("2\n1 < 2\n"), **bounds)
        assert str(exc.value) == message


def poset_text(n, covers):
    return f"{n}\n" + "".join(f"{a} < {b}\n" for a, b in covers)


def stacked(k, depth):
    """k-antichains stacked depth deep, each wholly below the next."""
    n = k * depth
    level = [(e - 1) // k for e in range(n + 1)]
    covers = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1) if level[b] == level[a] + 1]
    return poset_text(n, covers)


# Wide and long posets up to io.MAX_INPUT_N.  Unless the frontier DP's work
# is bounded, the first five run it for seconds or past the memory cap.
HOSTILE = {
    "8-antichains stacked 2 deep": stacked(8, 2),
    "8-antichains stacked 4 deep": stacked(8, 4),
    "7-antichains stacked 4 deep": stacked(7, 4),
    "6-antichains stacked 5 deep": stacked(6, 5),
    "16-element crown": poset_text(16, [(i, 8 + j) for i in range(1, 9) for j in range(1, 9) if i != j]),
    "8 parallel 32-chains": poset_text(256, [(i, i + 1) for i in range(1, 256) if i % 32]),
    "256-element fence": poset_text(256, [(i, i + 1) if i % 2 else (i + 1, i) for i in range(1, 256)]),
    "128 stacked 2-antichains": stacked(2, 128),
    "256-chain": stacked(1, 256),
}

# Run in a fresh interpreter that caps its own address space at 1 GiB, a
# limit on that process alone: argv[1] is the poset file.
CAPPED = r"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from enchain.cli import main
sys.exit(main(["verify-all", "--poset", sys.argv[1]]))
"""


class TestHostileInputs:
    """verify-all --poset on each hostile poset finishes within 10 s under
    a 1 GiB address-space cap, exiting 0 or 2; a tripped guard reads
    skipped."""

    @pytest.mark.parametrize("name", list(HOSTILE))
    def test_finishes_under_a_memory_cap(self, tmp_path, name):
        path = tmp_path / "hostile.poset"
        path.write_text(HOSTILE[name])
        env = {k: v for k, v in os.environ.items() if not k.startswith("ENCHAIN_")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert done.returncode in (0, 2), done.stderr
        (row,) = json.loads(done.stdout)["rows"]
        counts = row["ehrhart_equals_left_order"]
        assert counts == {"max_m": 4, "pass": True} or counts.startswith("skipped (")
        if name == "8-antichains stacked 4 deep":
            assert counts.endswith(f"partition DP steps exceed guard {partitions.FRONTIER_WORK_GUARD})")


class TestVerifyAll:
    @pytest.mark.parametrize("max_n", [3, 4])
    def test_sweep_is_byte_identical(self, capsys, max_n):
        code, out = run(capsys, ["verify-all", "--max-n", str(max_n)])
        assert code == 0
        expected = DATA / f"verify_all_max_n{max_n}.json"
        assert out.encode() == expected.read_bytes()

    @pytest.mark.parametrize("fmt, suffix", [("tsv", "tsv"), ("text", "txt")])
    def test_flat_sweep_is_byte_identical(self, capsys, fmt, suffix):
        # the flat renderers on sweep rows: dicts, lists of dicts, and lists
        # of lists such as hilbert_checks
        code, out = run(capsys, ["verify-all", "--max-n", "3", "--format", fmt])
        assert code == 0
        assert out.encode() == (DATA / f"verify_all_max_n3.{suffix}").read_bytes()

    def test_sweep_five_is_byte_identical(self, capsys):
        # the 955,562-byte report is pinned by its digest, taken before the
        # leading-term graph and the ideal transfer moved to bitsets
        code, out = run(capsys, ["verify-all", "--max-n", "5"])
        assert code == 0
        assert len(out.encode()) == 955_562
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "291e2e65f62b1ac61a3eb8f6ea1b80ee5c858981191054c79d6ec6b7c0f86d13"
        )

    def test_spair_guard_trip_is_a_skip(self, capsys):
        code, out = run(capsys, ["verify-all", "--max-n", "2", "--guard-spairs", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"posets": 3, "alarms": 0}
        verdicts = [row["groebner"]["buchberger"] for row in payload["rows"]]
        assert "skipped (48 S-pair lcm classes exceed guard 1)" in verdicts

    def test_nine_chain_passes_every_dilation_check(self, capsys, tmp_path):
        # only the ideal table guards the counts, and a 9-chain has 10 ideals
        path = tmp_path / "chain9.poset"
        path.write_text("9\n" + "".join(f"{i} < {i + 1}\n" for i in range(1, 9)))
        code, out = run(capsys, ["verify-all", "--poset", str(path)])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["gamma_left_peak"] is True
        assert row["volume_extensions"] is True
        assert row["ehrhart_equals_left_order"] == {"max_m": 4, "pass": True}
        # the cross-polytope's points: sum over k of 2^k C(9, k) C(m, k)
        rows = [[1, 19, 19], [2, 181, 181], [3, 1159, 1159]]
        assert row["groebner"]["hilbert_checks"] == rows
        assert row["groebner"]["hilbert_pass"] is True
        assert row["alarms"] == []

    def test_twelve_antichain_counts_pass(self, capsys, tmp_path):
        # 4096 ideals: the counts run, and gamma stops at the extension guard
        path = tmp_path / "anti12.poset"
        path.write_text("12\n")
        code, out = run(capsys, ["verify-all", "--poset", str(path)])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["ehrhart_equals_left_order"] == {"max_m": 4, "pass": True}
        reason = "skipped (linear extension enumeration guarded at n <= 10)"
        assert row["gamma_left_peak"] == reason
        assert row["alarms"] == []

    def test_guard_points_trip_is_a_skip(self, capsys):
        # the point guard trips the partition DP only; every other check passes
        code, out = run(capsys, ["verify-all", "--max-n", "2", "--guard-points", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"posets": 3, "alarms": 0}
        for row in payload["rows"]:
            assert row["gamma_left_peak"] is True
            assert row["volume_extensions"] is True
            assert row["groebner"]["hilbert_pass"] is True
            assert row["triangulation"]["pass"] is True

    def test_partition_guard_trip_is_a_skip(self, capsys):
        code, out = run(capsys, ["verify-all", "--max-n", "2", "--guard-points", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"posets": 3, "alarms": 0}
        verdicts = [row["ehrhart_equals_left_order"] for row in payload["rows"]]
        skipped = "skipped (2 partition DP steps exceed guard 1)"
        assert verdicts == [{"max_m": 4, "pass": True}] + [skipped] * 2  # 1, anti2, chain2

    def test_partition_guard_trip_keeps_a_mismatch(self, monkeypatch, cold_hstar):
        # the 2-chain's DP costs 2 (m + 1) units, so guard 4 trips at m = 2
        wrong = lambda poset, m: posets.ideal_chain_count(poset, m) + (m == 1)
        monkeypatch.setattr(geometry, "count_dilation", wrong)
        row = verify.verify_poset(parse_poset("2\n1 < 2\n"), guard_points=4)
        assert row["ehrhart_equals_left_order"] == {"max_m": 4, "pass": False}
        assert "count mismatch at m=1: 6 != 5" in row["alarms"]

    def test_guard_points_bound_the_partition_dp_work(self, capsys, tmp_path):
        # two stacked 8-antichains at m = 1: the lower elements cost 2 + 4 + ... + 256
        # units and each upper one 256, so guard 1000 trips at the tenth element
        path = tmp_path / "stacked.poset"
        path.write_text(stacked(8, 2))
        code, out = run(capsys, ["verify-all", "--poset", str(path), "--guard-points", "1000"])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["ehrhart_equals_left_order"] == "skipped (1001 partition DP steps exceed guard 1000)"

    def test_chain_past_the_extension_guard_gets_a_row(self, capsys, tmp_path):
        path = tmp_path / "chain11.poset"
        path.write_text("11\n" + "".join(f"{i} < {i + 1}\n" for i in range(1, 11)))
        code, out = run(capsys, ["verify-all", "--poset", str(path)])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        reason = "skipped (linear extension enumeration guarded at n <= 10)"
        assert row["series_identity"] == reason
        assert row["narrow_left_peak_equals_descent"] == reason
        assert row["complex"] == "skipped" and row["alarms"] == []

    def test_hilbert_vertex_guard_is_a_skip(self, capsys, tmp_path):
        path = tmp_path / "anti8.poset"
        path.write_text("8\n")
        code, out = run(capsys, ["verify-all", "--poset", str(path)])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["groebner"]["hilbert_checks"] == "skipped (6561 variables exceed guard 1024)"
        assert row["gamma_left_peak"] is True and row["alarms"] == []

    def test_alarm_in_a_formerly_unguarded_check(self, capsys, chain2, monkeypatch):
        def violated(poset, truncation):
            raise IdentityViolation("series coefficient 3 != 4")

        monkeypatch.setattr(partitions, "series_identity_failure", violated)
        code, out = run(capsys, ["verify-all", "--poset", chain2])
        assert code == 2
        (row,) = json.loads(out)["rows"]
        assert row["series_identity"] is False
        assert row["alarms"] == ["series: series coefficient 3 != 4"]
        # the checks after it still ran
        assert row["enriched_relation"]["holds"] is False
        assert row["complex"]["identity"] is True

    def test_series_alarm_names_both_coefficients(self, capsys, chain2, monkeypatch):
        original = partitions.series_rhs_coefficient

        def shifted(w_left, n, m):
            return original(w_left, n, m) + (m == 2)

        monkeypatch.setattr(partitions, "series_rhs_coefficient", shifted)
        code, out = run(capsys, ["verify-all", "--poset", chain2])
        assert code == 2
        (row,) = json.loads(out)["rows"]
        assert row["series_identity"] == {"truncation": 8, "pass": False}
        chain = parse_poset("2\n1 < 2\n")
        count = partitions.count_partitions(chain, 2, "left")
        assert row["alarms"] == [
            f"series_identity failed at m=2: {count} left partitions "
            f"!= series coefficient {count + 1}"
        ]

    def test_narrow_alarm_names_both_polynomials(self, capsys, chain2, monkeypatch):
        original = partitions.peak_polynomials

        def shifted(poset):
            peaks = original(poset)
            return replace(peaks, descent=peaks.descent + IntPolynomial([0, 1]))

        monkeypatch.setattr(partitions, "peak_polynomials", shifted)
        code, out = run(capsys, ["verify-all", "--poset", chain2])
        assert code == 2
        (row,) = json.loads(out)["rows"]
        assert row["narrow_left_peak_equals_descent"] is False
        assert row["alarms"] == [
            "narrow poset descent identity failed: left peak polynomial "
            "IntPolynomial([1]) != descent polynomial IntPolynomial([1, 1])"
        ]

    def test_invariance_alarm_names_the_orientation(
        self, capsys, chain2, monkeypatch, cold_hstar
    ):
        original = geometry.count_dilation

        def reversed_differs(poset, m):
            return original(poset, m) + poset.less(2, 1)

        monkeypatch.setattr(geometry, "count_dilation", reversed_differs)
        code, out = run(capsys, ["verify-all", "--poset", chain2])
        assert code == 2
        (row,) = json.loads(out)["rows"]
        assert row["comparability_invariance"] is False
        assert row["alarms"] == [
            "comparability invariance failed at orientation [(2, 1)]: "
            "dilation counts [6, 14] != [5, 13]"
        ]

    def test_sweep_two(self, capsys):
        code, out = run(capsys, ["verify-all", "--max-n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"posets": 3, "alarms": 0}
        for row in payload["rows"]:
            assert row["gamma_left_peak"] is True
            assert row["volume_extensions"] is True
            assert row["ehrhart_equals_left_order"]["pass"] is True
            assert row["series_identity"]["pass"] is True
            # the halved-difference relation is reported, not assumed
            assert row["enriched_relation"]["holds"] is False

    def test_single_element_relation_verdict(self, capsys, tmp_path):
        path = tmp_path / "one.poset"
        path.write_text("1\n")
        code, out = run(capsys, ["verify-all", "--poset", str(path)])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["enriched_relation"]["enriched_order"] == [0, 2]
        assert row["enriched_relation"]["left_order"] == [1, 2]
        assert row["enriched_relation"]["holds"] is False


def chain(n):
    return parse_poset(poset_text(n, [(i, i + 1) for i in range(1, n)]))


def row_value(row, path):
    *parents, key = path.split(".")
    return (row[parents[0]] if parents else row)[key]


class TestChecksTable:
    """verify.CHECKS is the one list of a row's checks, and enchain grobner
    runs the records of the row's groebner section."""

    def test_row_keys_are_the_records_and_their_extras(self):
        row = verify.verify_poset(parse_poset("2\n1 < 2\n"))
        keys = {f"groebner.{key}" for key in row.pop("groebner")}
        keys |= set(row) - {"poset", "alarms"}
        extras = {"ehrhart", "reflexive", "groebner.hilbert_pass", "groebner.variables"}
        extras |= {"groebner.basis_size", "groebner.leading_terms"}
        assert keys == {check[0] for check in verify.CHECKS} | extras

    @pytest.mark.parametrize(
        "path, cap", [(check[0], check[3]) for check in verify.CHECKS if check[3] is not None]
    )
    def test_a_capped_check_runs_at_its_cap_and_skips_past_it(self, path, cap):
        assert 4 <= cap <= 6
        assert row_value(verify.verify_poset(chain(cap)), path) != "skipped"
        assert row_value(verify.verify_poset(chain(cap + 1)), path) == "skipped"

    def test_grobner_agrees_with_the_row(self, capsys, tmp_path):
        chosen = [p for n in range(1, 5) for p in posets.all_natural_posets(n)]
        chosen.append(parse_poset(TORIC_POSETS["bowtie"]))
        path = tmp_path / "poset"
        for poset in chosen:
            path.write_text(poset_text(poset.n, sorted(poset.covers())))
            code, out = run(capsys, ["grobner", str(path)])
            assert code == 0
            payload = json.loads(out)
            section = json.loads(render_json(verify.verify_poset(poset)["groebner"]))
            assert set(section) <= set(payload)
            assert {key: payload[key] for key in section} == section


class TestRendering:
    def test_deterministic(self, capsys, v3):
        _, first = run(capsys, ["ehrhart", v3])
        _, second = run(capsys, ["ehrhart", v3])
        assert first == second

    def test_tsv(self, capsys, chain2):
        code, out = run(capsys, ["ehrhart", chain2, "--format", "tsv"])
        assert code == 0
        assert "volume\t4" in out.splitlines()

    def test_text(self, capsys, chain2):
        code, out = run(capsys, ["ehrhart", chain2, "--format", "text"])
        assert "volume: 4" in out.splitlines()

    def test_env_override(self, capsys, chain2, monkeypatch):
        monkeypatch.setenv("ENCHAIN_FORMAT", "tsv")
        code, out = run(capsys, ["ehrhart", chain2])
        assert "volume\t4" in out.splitlines()

    def test_flag_beats_env(self, capsys, chain2, monkeypatch):
        monkeypatch.setenv("ENCHAIN_FORMAT", "tsv")
        code, out = run(capsys, ["ehrhart", chain2, "--format", "json"])
        json.loads(out)

    def test_tsv_flattens_nested(self):
        rendered = render_tsv({"a": {"b": [1, 2]}, "c": 3})
        assert rendered == "a.b\t[1, 2]\nc\t3\n"


# Strings with quotes, backslashes, control, non-ASCII and astral characters.
JSON_TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é\u2028", "\U0001f600"]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def uniform_rows(draw):
    """A list of uniform rows: lists or tuples of one width, at least 1,
    whose leaves are all str or all int."""
    width = draw(st.integers(1, 4))
    leaf = draw(st.sampled_from([JSON_TEXT, st.integers()]))
    row = st.lists(leaf, min_size=width, max_size=width)
    return draw(st.lists(row | row.map(tuple), min_size=1, max_size=8))


# Leaves of int and str subclasses, which the joined path leaves to the
# recursive one.
class Level(IntEnum):
    LOW = 1


class Label(str):
    pass


class TestRenderJson:
    """render_json writes what json.dumps(sort_keys=True, indent=2) does."""

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @given(uniform_rows(), JSON_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_uniform_rows_match_json_dumps(self, rows, key):
        assert io._leaf_writer(rows) is not None
        for payload in (rows, {key: rows}, [{key: rows}]):
            self.assert_dumps(payload)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_at_the_block_edges(self, offset):
        block = io.ROWS_PER_PIECE
        for count in (1, block + offset, 2 * block + offset):
            edges = [(f"{i}|^0 1", f"{i}|^3 2") for i in range(count)]
            counts = [[i, -i, 10**20 + i] for i in range(count)]
            for rows in (edges, counts):
                assert io._leaf_writer(rows) is not None
                self.assert_dumps({"rows": rows, "more": {"rows": rows[::-1]}})

    @pytest.mark.parametrize(
        "rows",
        [
            [["a"], ("b",), ["c"]],
            [(1,), (-(10**40),), (0,)],
            [('say "hi"', "back\\slash"), ("\x00\x1f\n", "café \u2028 \U0001f600"), ("", "é")],
            [(1, 2), [3, 4], (-5, 10**30)],
        ],
    )
    def test_uniform_rows_take_the_joined_path(self, rows):
        assert io._leaf_writer(rows) is not None
        self.assert_dumps(rows)
        self.assert_dumps({"a": {"b": rows}, "c": [rows, rows]})

    @pytest.mark.parametrize(
        "rows",
        [
            [[True, False], [False, True]],
            [[Level.LOW, 2], [3, 4]],
            [[Level.LOW], [Level.LOW]],
            [[Label("a"), "b"], ["c", "d"]],
            [[Label("a")]],
            [[], []],
            [["a"], []],
            [["a", "b"], ["c"]],
            [[1, 2], [3]],
            [["a", 1], ["b", 2]],
            [["a"], [1]],
            [[None], [None]],
            [[["a"]], [["b"]]],
            [["a"], "b"],
        ],
    )
    def test_other_lists_take_the_recursive_path(self, rows):
        assert io._leaf_writer(rows) is None
        self.assert_dumps(rows)
        self.assert_dumps({"rows": rows})

    def test_empty_containers_and_nesting(self):
        payload = {"a": [], "b": {}, "c": ((), [{}]), "d": [[1, [True, None]], "x"]}
        assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), 0.5])
    def test_other_types_raise(self, value):
        # a float is out of scope here, although json would write it
        for payload in (value, [value], {"key": value}):
            with pytest.raises(TypeError):
                render_json(payload)

    def test_non_string_key_raises(self):
        with pytest.raises(TypeError):
            render_json({1: 2})

    @staticmethod
    def assert_dumps(payload):
        assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_lists_of_str_inside_lists(self):
        """Lists and tuples holding only str, at several depths and
        lengths, some of them lists of uniform rows."""
        self.assert_dumps([["a", "b"], ("c",), ["d", "e", "f"], "g", [["h"], ("i", "j")]])
        self.assert_dumps({"edges": [["1|^0 2", "2|^3 1"]] * 3, "k": [("x", "y"), "z"]})
        self.assert_dumps((["a"], ("b", "c")))

    def test_empty_inner_lists_and_tuples(self):
        self.assert_dumps([[], (), ["a"], [], ()])
        self.assert_dumps({"e": [[], ["a", "b"], ()], "f": ((), [[]])})

    def test_str_first_mixed_items(self):
        self.assert_dumps([["a", 1], ["a", None, True], ("a", ["b"]), ["a", {"b": "c"}, "d"]])
        self.assert_dumps([["a", "b", 1], ["a", ("b",)], ["a", []]])
        for item in (["a", Fraction(1, 2)], ("a", "b", Fraction(1, 2)), ["a", 0.5]):
            with pytest.raises(TypeError):
                render_json([item])

    def test_lists_of_integer_pairs(self):
        self.assert_dumps([[1, 2], [3, 4], (5, 6), [-7, 10**30]])
        self.assert_dumps({"pairs": [[1, 2], [3, "a"], [True, None]], "flat": [1, "b"]})

    def test_escaped_strings(self):
        texts = ['say "hi"', "back\\slash", "\x00\x1f\x7f\n\t\r\b\f", "café \u2028 ∑"]
        texts += ["\U0001f600", ""]
        self.assert_dumps([texts, tuple(reversed(texts))])
        self.assert_dumps([[text] for text in texts] + texts)
