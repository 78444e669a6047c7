"""CLI behavior: parsing, exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlab.cli as cli_mod
import wlab.search as search_mod
from wlab import congruence
from wlab.cli import main, parse_index_expr
from wlab.errors import WlabError
from wlab.modring import PRIME_BOUND
from wlab.search import primes_in

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexExpr:
    def test_forms(self):
        assert parse_index_expr("13308", 11) == 13308
        assert parse_index_expr("p-3", 13) == 10
        assert parse_index_expr("p-5", 13) == 8
        assert parse_index_expr("p^2-p-4", 13) == 152
        assert parse_index_expr("p^4-p^3-2", 11) == 13308
        assert parse_index_expr("p^4-p^3-4", 11) == 13306
        assert parse_index_expr("p^3 - p^2 - 2", 11) == 1208

    def test_garbage_rejected(self):
        for bad in ("p**3", "3p", "q-3", "p^", ""):
            with pytest.raises(WlabError):
                parse_index_expr(bad, 11)

    # a term is an integer, "p" (exponent None) or "p^k"
    _terms = st.lists(st.tuples(
        st.sampled_from(["+", "-"]),
        st.one_of(st.integers(0, 10**30), st.none(), st.integers(0, 12).map(lambda k: ("p", k))),
        st.sampled_from(["", " ", "  "]),
    ), min_size=1, max_size=8)

    @given(p=st.sampled_from([3, 11, 13, 16843, 2124679]), terms=_terms, lead_sign=st.booleans())
    def test_round_trip(self, p, terms, lead_sign):
        parts, want = [], 0
        for i, (sign, term, pad) in enumerate(terms):
            if term is None:
                text, value = "p", p
            elif isinstance(term, tuple):
                text, value = f"p^{term[1]}", p ** term[1]
            else:
                text, value = str(term), term
            shown = sign if i or lead_sign or sign == "-" else ""
            parts.append(f"{shown}{pad}{text}{pad}")
            want += -value if sign == "-" else value
        assert parse_index_expr("".join(parts), p) == want


class TestVerify:
    def test_range_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "11..200", "--check", "thm1.1")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(row["holds"] for row in rows)
        assert [row["p"] for row in rows] == sorted(row["p"] for row in rows)

    def test_p7_exp7_violation(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "7", "--check", "thm1.1", "--exp", "7")
        assert code == 2
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["residual_valuation"] == 6 and row["status"] == "fail"

    def test_p7_exp6_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "7", "--check", "thm1.1", "--exp", "6")
        assert code == 0

    def test_non_prime_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "12", "--check", "thm1.1")
        assert code == 1
        assert "not a prime" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p", "11", "--check", "bogus")
        assert code == 1 and "unknown check" in err

    def test_exp_requires_thm(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p", "11", "--check", "eq1.1", "--exp", "4")
        assert code == 1

    def test_identity_reports_do_not_fail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "3..7", "--check", "thm1.1")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["status"] for r in rows] == ["identity", "identity", "n/a"]

    def test_na_rows_keep_their_bytes(self, capsys):
        # make_report given no sides: every key, in print order, the judged ones null
        code, out, _ = run_cli(capsys, "verify", "--p", "3..60", "--check", "all")
        na = [json.loads(line) | {"line": line} for line in out.splitlines() if '"n/a"' in line]
        assert code == 0 and len(na) == 139
        for row in na:
            assert row["line"] == (
                f'{{"check": "{row["check"]}", "p": {row["p"]}, "required_exp": {row["required_exp"]}, '
                '"residual_valuation": null, "holds": null, "lhs": null, "rhs": null, "status": "n/a"}')

    def test_range_from_2_starts_at_3(self, capsys):
        assert run_cli(capsys, "verify", "--p", "2..7", "--check", "eq1.1") == \
            run_cli(capsys, "verify", "--p", "3..7", "--check", "eq1.1")
        code, out, _ = run_cli(capsys, "verify", "--p", "2..7", "--check", "eq1.1")
        assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [3, 5, 7]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "11", "--check", "eq1.1", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("check,p,required_exp")
        assert row.startswith("eq1.1,11,3,")

    def test_library_rows_are_the_printed_rows(self, capsys):
        # run_suite and check_theorem_main return the rows verify prints, unchanged
        code, out, _ = run_cli(capsys, "verify", "--p", "11..200", "--check", "all")
        assert code == 0
        assert out == "".join(json.dumps(r) + "\n" for p in primes_in(11, 200) for r in congruence.run_suite(p))
        code, out, _ = run_cli(capsys, "verify", "--p", "7..13", "--check", "thm1.1", "--exp", "7")
        assert code == 2
        assert out == "".join(json.dumps(congruence.check_theorem_main(p, 7)) + "\n" for p in (7, 11, 13))

    def test_human_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "11", "--check", "eq1.1", "--format", "human")
        assert code == 0 and "eq1.1" in out and "pass" in out

    def test_worker_count_does_not_change_stream(self, capsys):
        streams = []
        for w in ("1", "4"):
            code, out, _ = run_cli(capsys, "verify", "--p", "11..100", "--check", "cor1.5",
                                   "--workers", w)
            assert code == 0
            streams.append(out)
        assert streams[0] == streams[1]

    def test_exit_code_from_streamed_rows(self, capsys):
        # the fail row comes first; the passing rows after it leave the exit code at 2
        code, out, _ = run_cli(capsys, "verify", "--p", "7..13", "--check", "thm1.1", "--exp", "7")
        assert code == 2
        assert [json.loads(line)["status"] for line in out.splitlines()] == ["fail", "pass", "pass"]

    def test_rows_stream_before_an_error(self, capsys, monkeypatch):
        # each prime's rows are written before the next prime runs
        run_suite = congruence.run_suite

        def failing(p, selection=None):
            if p == 17:
                raise WlabError("stop at 17")
            return run_suite(p, selection)

        monkeypatch.setattr(congruence, "run_suite", failing)
        code, out, err = run_cli(capsys, "verify", "--p", "11..19", "--check", "eq1.1")
        assert code == 1 and err == "error: stop at 17\n"
        assert [json.loads(line)["p"] for line in out.splitlines()] == [11, 13]

    def test_list_checks(self, capsys):
        for argv in (["verify", "--p", "11", "--list-checks"], ["verify", "--list-checks"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            names = out.split()
            assert len(names) == 42 and "thm1.1" in names

    def test_p_required_without_list_checks(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--check", "eq1.1")
        assert code == 1 and out == ""
        assert err == "error: verify needs --p (or --list-checks)\n"


class TestSearchCommand:
    def test_empty_range(self, capsys):
        code, out, err = run_cli(capsys, "search", "wolstenholme", "--max", "100")
        assert code == 0 and out == ""

    def test_hit_window(self, capsys):
        code, out, _ = run_cli(capsys, "search", "wolstenholme", "--min", "16800", "--max", "16900")
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["p"] == 16843 and row["kind"] == "wolstenholme"

    def test_mod_p8_empty(self, capsys):
        code, out, _ = run_cli(capsys, "search", "mod-p8", "--max", "500")
        assert code == 0 and out == ""

    def test_resume_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "search", "wolstenholme", "--max", "100",
                               "--resume", "missing.json")
        assert code == 1 and "missing.json" in err

    def test_max_required(self, capsys):
        code, _, err = run_cli(capsys, "search", "wolstenholme")
        assert code == 1

    def test_checkpoint_flag(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        code, out, _ = run_cli(capsys, "search", "wolstenholme", "--max", "300",
                               "--checkpoint", ck)
        assert code == 0
        data = json.loads(open(ck).read())
        assert data["last_completed_prime"] == 300

    def test_single_prime_scan(self, capsys):
        code, out, _ = run_cli(capsys, "search", "wolstenholme", "--min", "16843", "--max", "16843")
        assert code == 0
        assert [json.loads(line)["p"] for line in out.splitlines()] == [16843]

    def test_resume_bounds_must_match_checkpoint(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        assert run_cli(capsys, "search", "wolstenholme", "--max", "300", "--checkpoint", ck)[0] == 0
        for bound in (["--min", "100"], ["--max", "400"]):
            code, out, err = run_cli(capsys, "search", "wolstenholme", "--resume", ck, *bound)
            assert code == 1 and out == ""
            assert err.startswith("error: checkpoint is for wolstenholme [5, 300]")
        code, _, err = run_cli(capsys, "search", "mod-p8", "--resume", ck)
        # the kind as typed, not the internal mod_p8
        assert code == 1 and err == "error: checkpoint is for wolstenholme [5, 300], requested mod-p8 [5, 300]\n"
        # a refused resume writes nothing: the checkpoint keeps its bytes, and csv gets no header
        before = open(ck, "rb").read()
        for argv in (["mod-p8"], ["wolstenholme", "--min", "100"], ["wolstenholme", "--max", "400"]):
            code, out, err = run_cli(capsys, "--format", "csv", "search", *argv, "--resume", ck)
            assert code == 1 and out == "" and err.startswith("error: checkpoint is for wolstenholme [5, 300]")
            assert open(ck, "rb").read() == before
        for bound in ([], ["--min", "5"], ["--max", "300"]):
            assert run_cli(capsys, "search", "wolstenholme", "--resume", ck, *bound)[0] == 0

    def test_resume_with_no_prime_left_records_hi(self, capsys, tmp_path):
        # 16993 is the last prime below 17000: the resume ends as an uninterrupted run does
        ck, fresh_ck = tmp_path / "ck.json", tmp_path / "fresh.json"
        ck.write_text(json.dumps({
            "schema_version": 1, "kind": "wolstenholme", "lo": 16000, "hi": 17000, "last_completed_prime": 16993,
            "hits": [{"p": 16843, "witness": {"r1_valuation": 3, "binom_residual_valuation": 4}}],
            "updated_at": "x",
        }))
        code, resumed, _ = run_cli(capsys, "search", "wolstenholme", "--resume", str(ck))
        assert code == 0
        code, fresh, _ = run_cli(capsys, "search", "wolstenholme", "--min", "16000", "--max", "17000",
                                 "--checkpoint", str(fresh_ck))
        assert code == 0 and resumed == fresh
        stored, written = (json.loads(path.read_text()) for path in (ck, fresh_ck))
        assert stored["last_completed_prime"] == 17000
        assert {**stored, "updated_at": ""} == {**written, "updated_at": ""}

    def test_resume_refuses_json_true_as_schema_version(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text('{"schema_version": true, "kind": "wolstenholme", "lo": 5, "hi": 300, '
                      '"last_completed_prime": 300, "hits": [], "updated_at": "x"}')
        code, out, err = run_cli(capsys, "search", "wolstenholme", "--resume", str(ck))
        assert (code, out) == (1, "") and err == "error: checkpoint field 'schema_version' has wrong type\n"

    def test_resume_loads_checkpoint_once(self, capsys, tmp_path, monkeypatch):
        # the bounds not given and the resume read one load of the file
        ck = str(tmp_path / "ck.json")
        assert run_cli(capsys, "search", "wolstenholme", "--min", "16000", "--max", "17000",
                       "--checkpoint", ck)[0] == 0
        loads = []
        load = search_mod.load_checkpoint
        monkeypatch.setattr(search_mod, "load_checkpoint", lambda path: loads.append(path) or load(path))
        code, out, _ = run_cli(capsys, "search", "wolstenholme", "--resume", ck)
        assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [16843]
        assert loads == [ck]

    def test_resume_prints_carried_hit_as_uninterrupted(self, capsys, tmp_path):
        # a stored hit whose keys are in another order is re-verified, and the
        # re-verified dict is what is printed and written back
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({
            "schema_version": 1, "kind": "wolstenholme", "lo": 14000, "hi": 18400, "last_completed_prime": 17000,
            "hits": [{"witness": {"binom_residual_valuation": 4, "r1_valuation": 3}, "p": 16843}],
            "updated_at": "x",
        }))
        code, resumed, _ = run_cli(capsys, "search", "wolstenholme", "--resume", str(ck))
        assert code == 0
        code, fresh, _ = run_cli(capsys, "search", "wolstenholme", "--min", "14000", "--max", "18400",
                                 "--checkpoint", str(tmp_path / "fresh.json"))
        assert code == 0 and resumed == fresh
        assert fresh == ('{"kind": "wolstenholme", "p": 16843, '
                         '"witness": {"r1_valuation": 3, "binom_residual_valuation": 4}}\n')
        stored, written = (json.loads(path.read_text())["hits"] for path in (ck, tmp_path / "fresh.json"))
        assert json.dumps(stored) == json.dumps(written)

    @pytest.mark.parametrize("argv", [
        (),
        ("--resume", "/nonexistent/ck.json"),
        ("--min", "100", "--max", "50"),
    ])
    def test_csv_refused_task_prints_no_header(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "csv", "search", "wolstenholme", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_run_search_refusals_print_no_header(self, capsys, tmp_path):
        # refused once the scan is built: an unwritable checkpoint at run_search's
        # first write, and a checkpoint of another kind
        ck = str(tmp_path / "ck.json")
        assert run_cli(capsys, "search", "wolstenholme", "--max", "300", "--checkpoint", ck)[0] == 0
        for argv in (("wolstenholme", "--max", "100", "--checkpoint", str(tmp_path / "missing" / "x.json")),
                     ("mod-p8", "--resume", ck)):
            code, out, err = run_cli(capsys, "--format", "csv", "search", *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        # the header still comes first once a run is accepted, hits or none
        assert run_cli(capsys, "--format", "csv", "search", "wolstenholme", "--max", "300")[1] == "kind,p,witness\n"
        code, out, _ = run_cli(capsys, "--format", "csv", "search", "wolstenholme", "--min", "24", "--max", "28")
        assert code == 0 and out == "kind,p,witness\n"

    def test_progress_names_the_kind_as_typed(self, capsys):
        code, out, err = run_cli(capsys, "search", "mod-p8", "--max", "500")
        assert code == 0 and out == "" and err == "mod-p8: scanned up to 500 (1/1 chunks)\n"

    def test_resume_with_other_checkpoint_rejected(self, capsys, tmp_path, monkeypatch):
        ck, other = str(tmp_path / "ck.json"), str(tmp_path / "other.json")
        assert run_cli(capsys, "search", "wolstenholme", "--max", "300", "--checkpoint", ck)[0] == 0
        before = open(ck).read()
        scanned = []
        monkeypatch.setattr(search_mod, "primes_in", lambda *a: scanned.append(a) or [])
        code, out, err = run_cli(capsys, "search", "wolstenholme", "--resume", ck, "--checkpoint", other)
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert scanned == [] and not os.path.exists(other) and open(ck).read() == before
        # naming the resumed file itself is no conflict
        assert run_cli(capsys, "search", "wolstenholme", "--resume", ck, "--checkpoint", ck)[0] == 0

    def test_checkpoint_in_missing_directory(self, capsys, tmp_path):
        ck = str(tmp_path / "missing" / "x.json")
        code, out, err = run_cli(capsys, "search", "wolstenholme", "--max", "100", "--checkpoint", ck)
        assert code == 1 and out == ""
        assert err == f"error: cannot write checkpoint {ck}: No such file or directory\n"

    def test_env_checkpoint_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WLAB_CHECKPOINT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "search", "wolstenholme", "--max", "200")
        assert code == 0
        assert (tmp_path / "wolstenholme-200.json").exists()


class TestBernoulliCommand:
    def test_b_p_minus_3_mod_13(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--p", "13", "--index", "p-3", "--prec", "1")
        assert code == 0 and out.strip() == "5"

    def test_odd_index_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--p", "11", "--index", "3", "--prec", "2")
        assert code == 0 and out.strip() == "0"

    def test_huge_index_expression(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--p", "11", "--index", "p^4-p^3-2", "--prec", "1")
        assert code == 0
        from wlab.bernoulli import bernoulli_mod

        assert out.strip() == str(bernoulli_mod(13308, 11, 1))

    def test_non_prime_p(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "--p", "12", "--index", "2", "--prec", "1")
        assert code == 1

    def test_p_above_primality_bound(self, capsys):
        code, out, err = run_cli(capsys, "bernoulli", "--p", str(2**89 - 1), "--index", "2", "--prec", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_divisible_index_reported(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "--p", "11", "--index", "30", "--prec", "2")
        assert code == 1 and "p-1" in err


class TestReportCommand:
    def test_rerender(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--p", "11..31", "--check", "eq1.1")
        path = tmp_path / "reports.jsonl"
        path.write_text(out)
        code, out2, err2 = run_cli(capsys, "report", str(path))
        assert code == 0
        assert out2.count("eq1.1") == len(out.splitlines())
        assert "0 failed" in err2


    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "report", str(tmp_path / "absent.jsonl"))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read") and len(err.splitlines()) == 1

    def test_malformed_jsonl(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"check": "eq1.1", "p": 11\n')
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}:1: not valid JSON") and len(err.splitlines()) == 1

    def test_row_without_p(self, capsys, tmp_path):
        path = tmp_path / "nop.jsonl"
        path.write_text('{"check": "eq1.1", "required_exp": 3, "status": "pass"}\n')
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}:1: not a report row (missing p)\n"

    @pytest.mark.parametrize("field, value", [("check", None), ("p", [11]), ("residual_valuation", {"v": 4})])
    def test_wrong_typed_field(self, capsys, tmp_path, field, value):
        row = {"check": "eq1.1", "p": 11, "required_exp": 3, "residual_valuation": 4, "status": "pass"}
        row[field] = value
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(row) + "\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}:1: field {field!r} has wrong type") and len(err.splitlines()) == 1


@contextmanager
def no_int_digit_limit():
    """Lift CPython's limit on int/str conversions (4,300 digits by default,
    from 3.10.7 on) inside the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


HUGE = "9" * 5001  # past int()'s digit limit


class TestHugeIntegers:
    """Integers past CPython's int/str digit limit: each input is refused with
    one error line, and a residue past it, which was asked for, is printed."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--p", HUGE),
        ("verify", "--p", f"11..{HUGE}"),
        ("bernoulli", "--p", "11", "--index", HUGE, "--prec", "2"),
        ("bernoulli", "--p", "11", "--index", f"p^{HUGE}", "--prec", "2"),
        ("bernoulli", "--p", "11", "--index", "2-p^5000", "--prec", "2"),  # a negative index of 5,207 digits
        # exponents of 12 digits: each would build a power of 11 of about 43 GB
        ("bernoulli", "--p", "11", "--index", "2", "--prec", "100000000000"),
        ("verify", "--p", "11", "--check", "thm1.1", "--exp", "100000000000"),
        ("bernoulli", "--p", "11", "--index", "p^100000000000", "--prec", "2"),
    ])
    def test_input_refused_with_one_error_line(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # e * bitlen(p) > 2^16 is refused before p^e is built: 16385 * 4 and 13108 * 5
    # are, 16384 * 4 and 13107 * 5 are not; a verify range is bounded at its top
    @pytest.mark.parametrize("argv, refused, accepted, message", [
        (("bernoulli", "--p", "11", "--index", "2", "--prec"), "16385", "16384", "--prec 16385 is too large: p^16385"),
        (("verify", "--p", "11", "--check", "thm1.1", "--exp"), "16384", "16383", "--exp 16384 is too large: p^16385"),
        (("verify", "--p", "3..17", "--check", "thm1.1", "--exp"), "13107", "13106", "--exp 13107 is too large: p^13108"),
        (("bernoulli", "--p", "11", "--prec", "2", "--index"), "p^16385+1", "p^16384+1",
         "an --index term is too large: p^16385"),
    ])
    def test_exponent_past_the_power_bound(self, capsys, argv, refused, accepted, message):
        code, out, err = run_cli(capsys, *argv, refused)
        # 16385 * 4 = 13108 * 5 = 65,540
        assert (code, out, err) == (1, "", f"error: {message} needs up to 65,540 bits, past 65,536\n")
        code, out, err = run_cli(capsys, *argv, accepted)
        assert code in (0, 2) and out and err == ""

    def test_verify_p_with_leading_zeros_past_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "0" * 5000 + "11", "--check", "eq1.1")
        assert code == 0 and json.loads(out)["p"] == 11

    def test_checkpoint_bound_past_the_limit_is_corrupt(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text('{"schema_version": 1, "kind": "wolstenholme", "lo": 5, "hi": ' + HUGE
                      + ', "last_completed_prime": 4, "hits": [], "updated_at": "x"}')
        code, out, err = run_cli(capsys, "search", "wolstenholme", "--resume", str(ck))
        assert code == 1 and out == ""
        assert err == f"error: cannot read checkpoint {ck}: an integer in it has more than 4,300 digits\n"

    def test_report_row_past_the_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"check": "eq1.1", "p": ' + HUGE + ', "required_exp": 3, "status": "pass"}\n')
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}:1: not valid JSON (an integer in it has more than 4,300 digits)\n"

    def test_thm11_residue_past_the_limit_is_printed(self, capsys):
        # mod 11^4130 each side has up to 4,301 digits; C(21, 10) itself is small
        code, out, err = run_cli(capsys, "verify", "--p", "11", "--check", "thm1.1", "--exp", "4129")
        assert code == 2 and err == ""  # the congruence holds to p^7, not p^4129
        row = json.loads(out)
        m = 11**4130
        h1 = sum(Fraction(1, k) for k in range(1, 11))
        h2 = sum(Fraction(1, i * j) for i in range(1, 11) for j in range(i + 1, 11))
        rhs = 1 - 2 * 11 * h1 + 4 * 11**2 * h2
        with no_int_digit_limit():
            assert row["rhs"] == str(rhs.numerator * pow(rhs.denominator, -1, m) % m)
        assert row["lhs"] == "352716" and len(row["rhs"]) == 4301
        assert (row["residual_valuation"], row["status"]) == (7, "fail")

    def test_bernoulli_residue_past_the_limit_is_printed(self, capsys):
        code, out, err = run_cli(capsys, "bernoulli", "--p", "11", "--index", "12", "--prec", "5000")
        m = 11**5000
        with no_int_digit_limit():
            assert code == 0 and out == f"{-691 * pow(2730, -1, m) % m}\n" and err == ""


def _decimal(min_digits: int):
    """Decimal strings of min_digits to 6,000 digits, either sign."""
    return st.builds(lambda neg, n, lead: ("-" if neg else "") + str(lead) + "0" * (n - 1),
                     st.booleans(), st.integers(min_digits, 6000), st.integers(1, 9))


# Numbers a command can afford: up to a few thousand, or at or above the
# primality bound (25 digits), which every command refuses before it tests or
# sieves a prime.  Between the two a single p costs O(p) and a range a sieve.
SMALL, BIG, PAST = st.integers(-50, 3000).map(str), _decimal(26), _decimal(4301)
NUMBER = SMALL | BIG
# exponents and precisions up to 12 digits, or past int()'s limit, where argparse
# refuses them; a p^e past 2^16 bits is refused before it is built
EXPONENT = st.integers(-3, 8).map(str) | st.integers(-3, 10**12).map(str) | PAST
P_SMALL = st.sampled_from(["3", "5", "11", "13", "101", "293"]) | st.integers(-5, 300).map(str)
RANGE = st.one_of(P_SMALL, BIG, PAST, st.tuples(P_SMALL | BIG | PAST, P_SMALL | BIG | PAST).map("..".join))
INDEX_TERM = st.one_of((NUMBER | PAST).map(lambda n: n.lstrip("-")), st.just("p"), st.builds("p^{}".format, st.integers(0, 6).map(str) | EXPONENT))
INDEX = st.lists(st.tuples(st.sampled_from(["+", "-"]), INDEX_TERM), min_size=1, max_size=4).map(
    lambda terms: "".join(sign + term for sign, term in terms))
COMMANDS = st.one_of(
    st.builds(lambda p, check: ["verify", f"--p={p}", f"--check={check}"],
              RANGE, st.sampled_from(["eq1.1", "eq1.2", "thm1.1", "kummer3.3", "nope"])),
    st.builds(lambda p, exp: ["verify", f"--p={p}", "--check=thm1.1", f"--exp={exp}"], P_SMALL | BIG | PAST, EXPONENT),
    st.builds(lambda kind, hi, lo, chunk: ["search", kind, f"--max={hi}", *lo, *chunk],
              st.sampled_from(["wolstenholme", "mod-p8"]), NUMBER | PAST,
              st.lists(NUMBER | PAST, max_size=1).map(lambda v: [f"--min={x}" for x in v]),
              st.lists(NUMBER | PAST, max_size=1).map(lambda v: [f"--chunk={x}" for x in v])),
    st.builds(lambda p, index, prec: ["bernoulli", f"--p={p}", f"--index={index}", f"--prec={prec}"],
              P_SMALL | BIG | PAST, INDEX, EXPONENT),
    # an odd prime and a positive precision, so the index expression decides
    st.builds(lambda p, index, prec: ["bernoulli", f"--p={p}", f"--index={index}", f"--prec={prec}"],
              st.sampled_from(["3", "11", "13", "101"]), INDEX, st.integers(1, 6) | st.integers(4000, 5000)),
)
REPORT_ROW = st.builds('{{"check": "eq1.1", "p": {}, "required_exp": {}, "residual_valuation": {}, "status": "pass"}}'.format,
                       NUMBER | PAST, NUMBER | PAST, NUMBER | PAST)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestNoTraceback:
    """Whatever integers a command is given, main returns 0, 1 or 2 and
    prints no traceback."""

    @settings(max_examples=300, deadline=None)
    @given(COMMANDS)
    def test_commands(self, argv):
        code, _, err = run_main(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(REPORT_ROW, min_size=1, max_size=3))
    def test_report(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_main(["report", str(path)])
        assert code in (0, 1, 2) and "Traceback" not in err, (rows, err)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_bad_flag(self, capsys):
        assert main(["verify", "--p", "11", "--nope"]) == 1

    def test_backend_flag_removed(self, capsys):
        for argv in (["--backend", "bignum", "verify", "--p", "11"],
                     ["verify", "--p", "11", "--backend", "auto"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert "usage:" in err and "Traceback" not in err

    def test_workers_below_one_rejected(self, capsys, tmp_path):
        rows = tmp_path / "rows.jsonl"
        rows.write_text('{"check": "eq1.1", "p": 11, "required_exp": 3, "status": "pass"}\n')
        for workers in ("0", "-3"):
            for argv in (["verify", "--p", "11", "--check", "eq1.1"],
                         ["search", "wolstenholme", "--max", "100"],
                         ["bernoulli", "--p", "13", "--index", "p-3", "--prec", "1"],
                         ["report", str(rows)]):
                code, out, err = run_cli(capsys, "--workers", workers, *argv)
                assert code == 1 and out == ""
                assert err == "error: workers must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ("search", "wolstenholme", "--max", str(10**24)),
        ("verify", "--p", f"11..{10**24}"),
    ])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, argv):
        # a real sieve to 10^12 may fill RAM under overcommit instead of failing;
        # search sieves through search.primes_in, verify through cli.primes_in
        def no_memory(lo, hi):
            raise MemoryError

        monkeypatch.setattr(search_mod, "primes_in", no_memory)
        monkeypatch.setattr(cli_mod, "primes_in", no_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize("argv", [
        ("search", "wolstenholme", "--max", str(PRIME_BOUND)),
        ("search", "mod-p8", "--min", str(PRIME_BOUND + 2), "--max", str(10**25)),
        ("verify", "--p", f"11..{PRIME_BOUND}"),
        ("verify", "--p", str(10**25)),
    ])
    def test_range_at_or_above_primality_bound_is_one_error_line(self, capsys, monkeypatch, argv):
        # refused before any sieve: below the bound the same ranges would sieve for ever
        sieved = []
        monkeypatch.setattr(search_mod, "primes_in", lambda *a: sieved.append(a) or [])
        monkeypatch.setattr(cli_mod, "primes_in", lambda *a: sieved.append(a) or [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and sieved == []
        assert err.startswith("error: ") and err.count("\n") == 1 and str(PRIME_BOUND) in err

    def test_p2_reports_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p", "2", "--check", "eq1.1")
        assert code == 1 and "odd prime" in err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    def test_verify(self, capsys):
        with redirect_stdout(ClosedPipe()):
            code = main(["verify", "--p", "11..50", "--check", "all"])
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_search_keeps_checkpoint(self, capsys, tmp_path):
        # the hit's chunk is merged and checkpointed before the hit is written
        ck = str(tmp_path / "ck.json")
        argv = ["search", "wolstenholme", "--min", "16000", "--max", "17000", "--chunk", "16"]
        with redirect_stdout(ClosedPipe()):
            code = main(argv + ["--checkpoint", ck])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        primes = primes_in(16000, 17000)
        i = primes.index(16843)
        data = json.loads(open(ck).read())
        assert data["last_completed_prime"] == primes[min(i // 16 * 16 + 15, len(primes) - 1)]
        assert [h["p"] for h in data["hits"]] == [16843]
        code, out, _ = run_cli(capsys, *argv, "--resume", ck)
        assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [16843]

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "5..200", "--check", "all"],
        ["--workers", "2", "verify", "--p", "5..400", "--check", "all"],  # closing cancels the pool's calls
        ["--format", "csv", "search", "wolstenholme", "--max", "100"],  # header only, still buffered
    ], ids=["verify", "verify-workers-2", "search-csv"])
    def test_real_process(self, argv):
        # stdout is a pipe whose reader has already closed; stdout is block
        # buffered, as by default, so unflushed bytes would fail at exit
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "wlab.cli", *argv], stdout=w,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr


def new_modules(*argv: str) -> dict[str, list[str]]:
    """The modules a fresh ``python -I`` process adds by ``import wlab.cli``
    and then by ``wlab.cli.main(argv)``."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "before = set(sys.modules)\n"
        "import wlab.cli\n"
        "imported = set(sys.modules)\n"
        f"wlab.cli.main({list(argv)!r})\n"
        "sys.stdout.flush()\n"
        "sys.stderr.write(json.dumps({'import': sorted(imported - before),"
        " 'main': sorted(set(sys.modules) - imported)}))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


class TestStartup:
    def test_import_loads_no_pool_or_dataclasses(self):
        # a one-process command never uses the pool, the records are NamedTuples,
        # and a checkpoint's temp file is named without tempfile
        imported = set(new_modules("verify", "--list-checks")["import"])
        assert imported & {"multiprocessing", "concurrent.futures", "dataclasses", "inspect", "tempfile"} == set()

    def test_import_wlab_loads_no_search(self):
        # none of the four top-level entry points lives in search
        script = f"import sys; sys.path.insert(0, {SRC!r}); import wlab; print('wlab.search' in sys.modules)"
        proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "False", proc.stderr

    def test_top_level_names(self):
        import types

        import wlab
        public = {n for n, v in vars(wlab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
        assert public == set(wlab.__all__) == {"bernoulli_mod", "binom_central_int", "half_range_moments", "run_suite"}
        assert wlab.__version__

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "11..60", "--check", "all"],
        ["search", "wolstenholme", "--max", "300", "--checkpoint", "CK"],
    ], ids=["verify", "search"])
    def test_one_process_main_imports_nothing(self, argv, tmp_path):
        # argparse's gettext imports locale on first use; cli loads it with itself
        argv = [str(tmp_path / "ck.json") if a == "CK" else a for a in argv]
        assert new_modules("--workers", "1", *argv)["main"] == []


class TestReadme:
    def test_library_block_runs(self):
        # the README's Library example is the documented surface; run it as written
        with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})


class TestConsoleScript:
    def test_entry_point(self):
        import shutil
        import subprocess

        exe = shutil.which("wlab")
        if exe is None:
            pytest.skip("console script not installed")
        r = subprocess.run([exe, "bernoulli", "--p", "13", "--index", "p-3", "--prec", "1"],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0 and r.stdout.strip() == "5"
