"""CLI behavior: parsing, exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wlab.search as search_mod
from wlab import congruence
from wlab.cli import main, parse_index_expr
from wlab.errors import WlabError
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
        assert code == 1 and err.startswith("error: checkpoint is for wolstenholme")
        for bound in ([], ["--min", "5"], ["--max", "300"]):
            assert run_cli(capsys, "search", "wolstenholme", "--resume", ck, *bound)[0] == 0

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

    def test_workers_below_one_rejected(self, capsys):
        for workers in ("0", "-3"):
            for argv in (["verify", "--p", "11", "--check", "eq1.1"],
                         ["search", "wolstenholme", "--max", "100"]):
                code, out, err = run_cli(capsys, "--workers", workers, *argv)
                assert code == 1 and out == ""
                assert err == "error: workers must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ("search", "wolstenholme", "--max", str(10**30)),
        ("verify", "--p", f"11..{10**30}"),
    ])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, argv):
        # a real sieve to 10^15 may fill RAM under overcommit instead of failing
        def no_memory(lo, hi):
            raise MemoryError

        monkeypatch.setattr(search_mod, "primes_in", no_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: out of memory\n"

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

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "11..60", "--check", "all"],
        ["search", "wolstenholme", "--max", "300", "--checkpoint", "CK"],
    ], ids=["verify", "search"])
    def test_one_process_main_imports_nothing(self, argv, tmp_path):
        # argparse's gettext imports locale on first use; cli loads it with itself
        argv = [str(tmp_path / "ck.json") if a == "CK" else a for a in argv]
        assert new_modules("--workers", "1", *argv)["main"] == []


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
