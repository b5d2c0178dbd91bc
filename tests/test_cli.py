import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchain import gamma_complex, geometry, partitions, posets, toric, verify
from enchain.cli import COMMANDS, main
from enchain.io import parse_poset, render_json, render_tsv
from enchain.polynomials import IntPolynomial
from enchain.errors import IdentityViolation, ParseError


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

    def test_json_float_exits_one(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"n": 2.7, "covers": []}')
        assert main(["antichains", str(path)]) == 1
        assert "got 2.7" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", sorted(COMPLEX_POSETS))
    def test_complex_output_is_byte_identical(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(COMPLEX_POSETS[name])
        code, out = run(capsys, ["complex", str(path)])
        assert code == 0
        assert_matches_golden(out, f"complex_{name}")

    @pytest.mark.parametrize("name", sorted(JSON_POSETS))
    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_json_output_is_byte_identical(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.poset"
        path.write_text(JSON_POSETS[name])
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
        """Degrees passed to standard_monomial_count, from a cold cache."""
        seen = []
        original = toric.standard_monomial_count

        def record(poset, m):
            seen.append(m)
            return original(poset, m)

        monkeypatch.setattr(toric, "standard_monomial_count", record)
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
        original = toric.standard_monomial_count
        monkeypatch.setattr(toric, "standard_monomial_count", lambda p, m: original(p, m) + 1)
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
        monkeypatch.setattr(toric, "leading_terms_agree", lambda basis, order: False)
        assert main(["grobner", chain2]) == 2
        err = capsys.readouterr().err
        assert "buchberger verification failed: basis size 2, leading terms agree: False" in err

    def verify_all_alarms(self, capsys, path):
        code, out = run(capsys, ["verify-all", "--poset", path])
        assert code == 2
        return json.loads(out)["rows"][0]["alarms"]

    def test_verify_all_hilbert(self, capsys, chain2, monkeypatch):
        original = toric.standard_monomial_count
        monkeypatch.setattr(toric, "standard_monomial_count", lambda p, m: original(p, m) + 1)
        toric.hilbert_certificate.cache_clear()
        expected = "hilbert certificate failed: [(1, 6, 5), (2, 14, 13), (3, 26, 25)]"
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
        monkeypatch.setattr(toric, "leading_terms_agree", lambda basis, order: False)
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

    def test_missing_file(self, capsys):
        assert main(["ehrhart", "/nonexistent/poset"]) == 1

    def test_negative_partition_bound_is_rejected(self, capsys, chain2):
        assert main(["partitions", chain2, "--m", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        code, out = run(capsys, ["partitions", chain2, "--m", "0"])
        assert code == 0 and json.loads(out)["count"] == 1


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
        skipped = "skipped (2 partition DP states exceed guard 1)"
        assert verdicts == [{"max_m": 4, "pass": True}] * 2 + [skipped]  # 1, anti2, chain2

    def test_partition_guard_trip_keeps_a_mismatch(self, monkeypatch, cold_hstar):
        # the 2-chain's DP holds m + 1 states, so guard 2 trips at m = 2
        wrong = lambda poset, m: posets.ideal_chain_count(poset, m) + (m == 1)
        monkeypatch.setattr(geometry, "count_dilation", wrong)
        row = verify.verify_poset(parse_poset("2\n1 < 2\n"), guard_points=2)
        assert row["ehrhart_equals_left_order"] == {"max_m": 4, "pass": False}
        assert "count mismatch at m=1: 6 != 5" in row["alarms"]

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


class TestRenderJson:
    """render_json writes what json.dumps(sort_keys=True, indent=2) does."""

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

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
