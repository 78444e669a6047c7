"""Named congruence checks, the registry, and suite behavior."""

import json
import math

import pytest

from wlab import bernoulli, congruence, sums
from wlab.cli import main
from wlab.congruence import (
    P11,
    REGISTRY,
    CheckContext,
    CheckDef,
    _context,
    _judge,
    binom_central_int,
    check_theorem_main,
    expand_selection,
    row_reads,
    run_suite,
)
from wlab.errors import InternalInconsistency, InvalidInput, UnknownCheckName
from wlab.search import mod_p8_indicator, primes_in


class TestBinomCentral:
    def test_p5_mod_125(self):
        assert binom_central_int(5, 5**3) == 1  # 126 = 125 + 1

    def test_p3_mod_9(self):
        assert binom_central_int(3, 3**2) == 1  # C(5,2) = 10

    def test_p7_exact(self):
        assert binom_central_int(7, 7**7) == 1716  # C(13,6)

    def test_oracle_equivalence_sample(self):
        for p in primes_in(3, 300):
            for e in (1, 4, 8):
                assert binom_central_int(p, p**e) == math.comb(2 * p - 1, p - 1) % p**e, (p, e)


class TestWolstenholme:
    def test_p5_holds(self):
        (r,) = run_suite(5, ["eq1.1"])
        assert r["holds"] and r["residual_valuation"] >= 3

    def test_p13_holds(self):
        assert run_suite(13, ["eq1.1"])[0]["holds"]

    def test_wolstenholme_prime_reaches_4(self):
        assert run_suite(16843, ["eq1.1"])[0]["residual_valuation"] >= 4


class TestGlaisher:
    @pytest.mark.parametrize("p", [7, 11, 13, 101])
    def test_both_forms_hold(self, p):
        harmonic, bernoulli = run_suite(p, ["eq1.2"])
        assert harmonic["holds"], p
        assert bernoulli["holds"], p

    def test_wolstenholme_prime_bernoulli_term_vanishes(self):
        harmonic, bernoulli = run_suite(16843, ["eq1.2"])
        m4 = 16843**4
        assert int(bernoulli["rhs"]) % m4 == 1  # B_{p-3} = 0 mod p wipes the correction
        assert bernoulli["holds"] and harmonic["holds"]


class TestTheoremMain:
    def test_p3_identity(self):
        r = check_theorem_main(3)
        assert r["status"] == "identity" and r["lhs"] == r["rhs"] == "10"

    def test_p5_identity(self):
        r = check_theorem_main(5)
        assert r["status"] == "identity" and r["lhs"] == r["rhs"] == "126"

    def test_p7_boundary(self):
        assert check_theorem_main(7, 6)["holds"]
        r = check_theorem_main(7, 7)
        assert not r["holds"] and r["residual_valuation"] == 6

    @pytest.mark.parametrize("p", [11, 13, 101, 997])
    def test_holds_mod_p7(self, p):
        r = check_theorem_main(p)
        assert r["holds"] and r["residual_valuation"] >= 7


class TestCorollaries:
    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_tauraso_pair(self, p):
        a, b = run_suite(p, ["cor1.4"])
        assert a["holds"] and b["holds"], p

    @pytest.mark.parametrize("p", [7, 11, 101])
    def test_mod_p5_pair(self, p):
        a, b = run_suite(p, ["cor1.5"])
        assert a["holds"] and b["holds"], p

    @pytest.mark.parametrize("p", [11, 13, 97])
    def test_bernoulli_forms(self, p):
        eq13, eq15 = run_suite(p, ["eq1.3", "eq1.5"])
        assert eq13["holds"] and eq13["residual_valuation"] >= 6, p
        assert eq15["holds"] and eq15["residual_valuation"] >= 7, p


class TestWprimeConditional:
    def test_16843(self):
        ctx = CheckContext(16843, 9, bernoulli_reads=(), harmonic_order=3)
        a, b = run_suite(16843, ["eq1.6"], ctx)
        assert a["holds"] and a["residual_valuation"] >= 7
        assert b["holds"] and b["residual_valuation"] >= 7
        # the same prime fails one exponent higher
        r8 = check_theorem_main(16843, 8)
        assert not r8["holds"] and r8["residual_valuation"] == 7

    def test_ordinary_prime_rejected(self):
        assert [r["status"] for r in run_suite(13, ["eq1.6"])] == ["n/a", "n/a"]


class TestChainImplications:
    @pytest.mark.parametrize("p", [11, 13, 37, 101, 499])
    def test_descending_chain(self, p):
        ctx = CheckContext(p, 9, bernoulli_reads={(-2, 2)}, harmonic_order=3)
        (thm,) = run_suite(p, ["thm1.1"], ctx)
        cor14 = run_suite(p, ["cor1.4"], ctx)
        cor15 = run_suite(p, ["cor1.5"], ctx)
        eq12, _ = run_suite(p, ["eq1.2"], ctx)
        (eq11,) = run_suite(p, ["eq1.1"], ctx)
        chain = [thm["holds"], all(r["holds"] for r in cor14), all(r["holds"] for r in cor15), eq12["holds"], eq11["holds"]]
        # implication: once a level holds, every weaker level must hold
        for stronger, weaker in zip(chain, chain[1:]):
            assert (not stronger) or weaker


class TestRunSuite:
    def test_all_applicable_hold_at_p11(self):
        reports = run_suite(11)
        failed = [r["check"] for r in reports if r["status"] == "fail"]
        assert failed == []
        assert {r["check"] for r in reports} == set(REGISTRY)

    def test_identity_path_p5(self):
        (r,) = run_suite(5, ["thm1.1"])
        assert r["status"] == "identity"

    def test_identity_mismatch_raises(self, monkeypatch):
        # at p = 3 both sides of thm1.1 are the integer 10; a binomial that
        # disagrees is an implementation bug, not a failed congruence
        monkeypatch.setattr(CheckContext, "binom", lambda self: 11)
        with pytest.raises(InternalInconsistency, match="identity case failed at p=3"):
            run_suite(3, ["thm1.1"])
        with pytest.raises(InternalInconsistency, match="identity case failed at p=3"):
            check_theorem_main(3)

    def test_not_applicable_p7_eq15(self):
        (r,) = run_suite(7, ["eq1.5"])
        assert r["status"] == "n/a"
        assert r["residual_valuation"] is None and r["holds"] is None

    def test_kummer_row_keeps_its_name(self):
        (r,) = run_suite(11, ["kummer3.3"])
        assert r["check"] == "kummer3.3"
        assert r["status"] == "pass"

    def test_unknown_name(self):
        with pytest.raises(UnknownCheckName):
            run_suite(11, ["thm9.9"])

    def test_group_alias_expansion(self):
        assert expand_selection(["cor1.4"]) == ["cor1.4-r2", "cor1.4-r3"]
        assert expand_selection(["eq1.2"]) == ["eq1.2-harmonic", "eq1.2-bernoulli"]
        assert expand_selection(None) == list(REGISTRY)

    def test_registry_order_is_stable(self):
        reports = run_suite(13, ["eq1.1", "thm1.1", "cor1.5"])
        assert [r["check"] for r in reports] == ["eq1.1", "thm1.1", "cor1.5-r1", "cor1.5-r2"]

    def test_eq16_na_for_ordinary_prime(self):
        reports = {r["check"]: r for r in run_suite(11, ["eq1.6"])}
        assert reports["eq1.6-r2"]["status"] == "n/a"

    @pytest.mark.parametrize("run", [
        lambda: run_suite(11, ["thm1.1"], _context(11, [REGISTRY["thm1.1"]], 6)),
        lambda: run_suite(11, ["eq1.5"], _context(11, [REGISTRY["eq1.5"]], 6)),  # a sides row, judged at p^8
    ])
    def test_context_below_working_exponent_refused(self, run):
        with pytest.raises(InvalidInput, match="context built at exponent"):
            run()

    def test_one_half_range_pass_per_prime(self, monkeypatch):
        # run_suite sizes its context's one pass from the selected rows: S_1..S_7
        # for all of them, S_1, S_2 for thm1.1 alone, as for check_theorem_main
        # and the mod-p^8 confirmation
        passes = []
        hrm = sums.half_range_moments
        monkeypatch.setattr(congruence, "half_range_moments",
                            lambda p, m, j: passes.append((p, j)) or hrm(p, m, j))
        for p in (101, 2011):
            run_suite(p)
            run_suite(p, ["thm1.1"])
            check_theorem_main(p)
            mod_p8_indicator(p)
        assert passes == [(p, j) for p in (101, 2011) for j in (7, 2, 2, 2)]

    def test_context_sized_by_what_it_judges(self, monkeypatch):
        # every context is built at p^(e+1), e the largest required exponent
        # it judges: the selected rows' largest for run_suite, e itself for
        # check_theorem_main, and 8 for the mod-p^8 confirmation; its Bernoulli
        # reads are every read its rows make, and its harmonic order the largest
        built = []
        init = CheckContext.__init__
        monkeypatch.setattr(CheckContext, "__init__", lambda self, *a, **kw: init(self, *a, **kw) or built.append(
            (self.w_max, self.bernoulli_reads, self.harmonic_order)))
        every = {(-2, 2), (-2, 4), (-2, 5), (-4, 2), (-4, 3)}
        for p in (13, 101):
            built.clear()
            run_suite(p)
            run_suite(p, ["eq1.2"])
            run_suite(p, ["kummer3.3"])
            check_theorem_main(p, 6)
            mod_p8_indicator(p)
            assert built == [(8, every, 7), (5, {(-2, 2)}, 1), (3, set(), 1), (7, set(), 2), (9, set(), 2)], p

    def test_derived_harmonic_order_is_the_largest_read(self, monkeypatch):
        # each row alone, at primes below the exact cap, one above it and the
        # Wolstenholme prime 16843 (where eq1.6 applies): the largest n of the
        # R_n and H_n it reads, its applicability test included, is the order
        # row_reads derives (0 for none)
        asked = []
        r, h = CheckContext.R, CheckContext.H
        monkeypatch.setattr(CheckContext, "R", lambda self, n: asked.append(n) or r(self, n))
        monkeypatch.setattr(CheckContext, "H", lambda self, k: asked.append(k) or h(self, k))
        for name, d in REGISTRY.items():
            asked.clear()
            for p in [*primes_in(5, 60), 2011, 16843]:
                run_suite(p, [name])
            assert max(asked, default=0) == row_reads(d)[0], name

    def test_read_beyond_harmonic_order_refused(self):
        ctx = CheckContext(101, 8, bernoulli_reads=(), harmonic_order=3)
        assert ctx.R(3) == sums.inverse_power_sums_ints(101, 101**8, 3)[3]
        for read in (ctx.R, ctx.H):
            with pytest.raises(InternalInconsistency, match="sized for [RH]_3"):
                read(4)
        # order 1 (and 0, the order of rows that read no R_n) holds R_1 = H_1 alone
        for order in (0, 1):
            ctx = CheckContext(101, 4, bernoulli_reads=(), harmonic_order=order)
            assert ctx.H(1) == ctx.R(1) == sums.inverse_power_sums_ints(101, 101**4, 1)[1]
            for read in (ctx.R, ctx.H):
                with pytest.raises(InternalInconsistency, match="sized for [RH]_1"):
                    read(2)

    def test_bernoulli_residues_computed_once_per_prime(self, monkeypatch):
        # every B the rows read is extracted from one PowerSums pass over k,
        # below the exact cap and above it (eq1.2-bernoulli's index 2008 at
        # 2011), and the slow per-index oracle is never called
        calls = {"PowerSums": [], "power_sum_int": []}
        for name, log in calls.items():
            fn = getattr(sums, name)
            for module in (sums, bernoulli):
                monkeypatch.setattr(module, name, lambda *a, log=log, fn=fn: log.append(a) or fn(*a))
        for p in (101, 2011):
            run_suite(p)
            assert len(calls["PowerSums"]) == 1, p
            assert calls["power_sum_int"] == [], p
            calls["PowerSums"].clear()

    def test_derived_bernoulli_reads_are_the_reads_made(self, monkeypatch):
        # each row alone, at primes below the exact cap and one above it: every
        # (index mod (p-1) - (p-1), r) it asks CheckContext.B for is a read
        # row_reads derives, and each derived read is made; a row that read
        # outside them would raise here
        asked = set()
        b = CheckContext.B
        monkeypatch.setattr(CheckContext, "B", lambda self, i, r: asked.add((i % (self.p - 1) - self.p + 1, r))
                            or b(self, i, r))
        for name, d in REGISTRY.items():
            asked.clear()
            for p in [*primes_in(5, 60), 2011]:
                run_suite(p, [name])
            assert asked == row_reads(d)[1], name

    def test_table_sized_from_selected_rows(self, monkeypatch):
        # the union of the selected rows' reads is the table of index p-3 at
        # the largest r they read
        built = []
        table = bernoulli.PowerSums
        monkeypatch.setattr(bernoulli, "PowerSums", lambda p, precision: built.append(precision) or table(p, precision))
        for selection, r in ((["eq1.2"], 2), (["eq1.3"], 4), (["eq1.2", "eq1.3"], 4), (None, 5)):
            built.clear()
            run_suite(101, selection)
            assert built == [bernoulli.power_sum_table(98, 101, r)], selection
        built.clear()
        run_suite(101, ["thm1.1", "chain"])
        assert built == []

    def test_bernoulli_read_beyond_declared_refused(self):
        ctx = CheckContext(101, 8, bernoulli_reads={(-2, 2)}, harmonic_order=0)
        assert ctx.B(98, 2) == bernoulli.bernoulli_mod(98, 101, 2)
        with pytest.raises(InternalInconsistency, match="not among the reads \\[\\(-2, 2\\)\\]"):
            ctx.B(98, 3)
        with pytest.raises(InternalInconsistency):
            ctx.B(96, 2)
        with pytest.raises(InternalInconsistency):
            CheckContext(7, 8, bernoulli_reads=(), harmonic_order=0).B(4, 1)

    # rows that read one Bernoulli residue alone, with bernoulli_mod's default
    # route as the other side: B_{p-5} mod p^2, and B_{p-7} mod p, the read of
    # the det-p8-bernoulli row that ROADMAP item 3 plans
    LONE_READS = [CheckDef(f"lone-b{c}", 1, P11, lambda ctx, p, m, c=c, r=r: (
        ctx.B(p - c, r), bernoulli.bernoulli_mod(p - c, p, r))) for c, r in ((5, 2), (7, 1))]

    @pytest.mark.parametrize("d", LONE_READS, ids=lambda d: d.name)
    def test_a_lone_read_sizes_its_own_table(self, d):
        # the context's table holds what this read's extraction takes; one built
        # for index p-3 at r = 2 or 1 would hold neither residue at that precision
        for p in primes_in(11, 200):
            report = _judge(d, p, _context(p, [d], d.required), d.required)
            assert report["lhs"] == report["rhs"], p

    @pytest.mark.parametrize("p", [11, 13, 101, 2011])
    def test_context_table_serves_every_row(self, p, monkeypatch):
        # every (index, r) a row asks CheckContext.B for is served by the
        # context's one table, the union of its reads' tables, and agrees with
        # a table of its own index
        asked = []
        b = CheckContext.B
        monkeypatch.setattr(CheckContext, "B", lambda self, i, r: asked.append((i, r)) or b(self, i, r))
        ctx = _context(p, list(REGISTRY.values()), 7)
        run_suite(p, None, ctx)
        assert {(i % (p - 1), r) for i, r in asked} == {(p - 3, 2), (p - 3, 4), (p - 3, 5), (p - 5, 2), (p - 5, 3)}
        table = ctx._sums
        for i, r in set(asked):
            own = bernoulli.PowerSums(p, bernoulli.power_sum_table(bernoulli.kummer_reduce(i, p, r), p, r))
            assert (bernoulli.bernoulli_mod(i, p, r, sums=table)
                    == bernoulli.bernoulli_mod(i, p, r, sums=own)), (i, r)


def record_passes(monkeypatch) -> list[tuple[int, int]]:
    """The (p, j_max) of every half-range pass a context makes from here on."""
    passes = []
    hrm = sums.half_range_moments
    monkeypatch.setattr(congruence, "half_range_moments", lambda p, m, j: passes.append((p, j)) or hrm(p, m, j))
    return passes


class TestOrderOneContext:
    """A context of harmonic order 1 takes the binomial and S_1 alone, by the
    blocked j = 1 route of half_range_moments; every other context reads
    them off the column pass at j >= 2."""

    def test_every_prime_to_1e4_against_the_sweep(self, sweep_contexts, monkeypatch):
        # the fixture's contexts are built at p^8 and harmonic order 3
        full = {p: CheckContext(p, 8, bernoulli_reads=(), harmonic_order=3) for p in (5, 7)} | sweep_contexts
        passes = record_passes(monkeypatch)
        for p, f in full.items():
            ctx, m = CheckContext(p, 4, bernoulli_reads=(), harmonic_order=1), p**4
            assert (ctx.binom(), ctx.R(1)) == (f.binom() % m, f.R(1) % m), p
        assert passes == [(p, 1) for p in full]

    def test_low_order_selection_runs_the_j1_route(self, monkeypatch):
        # rows that read at most R_1 size an order-1 context; the rows are unchanged
        low = ["eq1.1", "eq1.2", "eq1.3", "eq1.5", "cor1.5-r1", "lemma2.1-n1", "lemma3.5i", "lemma3.5ii",
               "kummer3.3"]
        full = _context(101, list(REGISTRY.values()), 7)
        passes = record_passes(monkeypatch)
        assert run_suite(101, low) == run_suite(101, low, full)
        assert passes == [(101, 1)]


class TestRemark15:
    # E = 2R_1 - p*R_1^2 + p*R_2 + (p^2/3)*R_3 = -(1/9)p^5*B_{p-3}^2 mod p^6

    def test_holds_exactly_at_p6_over_a_range(self):
        reports = [r for p in primes_in(11, 1500) for r in run_suite(p, ["rem1.5"])]
        assert len(reports) == 235 and all(r["status"] == "pass" for r in reports)
        # one level higher only at p = 23, where it is 7 in Z/p^8 too
        assert {r["p"]: r["residual_valuation"] for r in reports if r["residual_valuation"] != 6} == {23: 7}

    def test_at_wolstenholme_prime(self):
        # both sides vanish mod p^6 there; E itself has valuation exactly 6
        (r,) = run_suite(16843, ["rem1.5"])
        assert r["status"] == "pass" and r["residual_valuation"] == 6 and r["rhs"] == "0"

    def test_fails_with_b_off_by_one(self, capsys, monkeypatch):
        b = CheckContext.B
        monkeypatch.setattr(CheckContext, "B", lambda self, i, r: b(self, i, r) + (i == self.p - 3))
        (r,) = run_suite(11, ["rem1.5"])
        assert r["status"] == "fail" and r["residual_valuation"] == 5
        assert main(["verify", "--p", "11", "--check", "rem1.5"]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "fail"


class TestSharpness:
    # rows that hold one level above their stated exponent at every prime
    ONE_LEVEL_HIGHER = {
        # the same sides as cor1.5-r1, which is judged at p^5
        "eq1.2-harmonic",
        # 2R_1 = -sum_{i<=r} p^i*R_{i+1} mod p^(r+1): the tail starts at
        # p^(r+1)*R_{r+2}, and p | R_{r+2}, so each holds mod p^(r+2)
        *(f"lemma2.3-r{r}" for r in range(1, 7)),
    }

    def test_every_row_holds_and_reaches_its_exponent(self):
        valuations = {}
        for p in primes_in(11, 1000):
            for r in run_suite(p):
                if r["status"] != "n/a":
                    valuations.setdefault(r["check"], []).append(r["residual_valuation"])
        # every row but the eq1.6 pair, which applies only at Wolstenholme primes
        assert set(valuations) == set(REGISTRY) - {"eq1.6-r2", "eq1.6-r3"}
        assert all(v >= REGISTRY[name].required for name, vs in valuations.items() for v in vs)
        never_exact = {name for name, vs in valuations.items() if REGISTRY[name].required not in vs}
        assert never_exact == self.ONE_LEVEL_HIGHER


class TestDeepInvariantSweep:
    def test_sum_identities_up_to_2000(self):
        # divisibility floors, Newton-derived identities, and the proof-chain
        # congruences at their stated moduli, over the wide range
        groups = ["lemma2.1", "lemma2.2", "lemma2.3", "lemma2.4", "chain", "hsum"]
        bad = []
        for p in primes_in(11, 2000):
            for r in run_suite(p, groups):
                if r["status"] != "pass":
                    bad.append((p, r["check"], r["residual_valuation"]))
        assert bad == []


class TestReportSerialization:
    def test_json_fields(self):
        (r,) = run_suite(11, ["eq1.1"])
        # the keys in the order verify prints them
        assert list(r) == ["check", "p", "required_exp", "residual_valuation", "holds", "lhs", "rhs", "status"]
        assert r["check"] == "eq1.1" and r["p"] == 11
        assert isinstance(r["lhs"], str) and isinstance(r["rhs"], str)

    def test_working_exponent_above_required(self):
        # lhs and rhs are kept mod p^(required + 1), one exponent above the required one
        for p in (5, 11):
            (r,) = run_suite(p, ["eq1.1"])
            m = p ** (r["required_exp"] + 1)
            assert 0 <= int(r["lhs"]) < m and 0 <= int(r["rhs"]) < m
            assert int(r["lhs"]) == math.comb(2 * p - 1, p - 1) % m

    def test_residuals_never_exaggerate(self):
        # lhs and rhs are recorded at the working exponent, required + 1
        r = check_theorem_main(11)
        m = 11 ** (r["required_exp"] + 1)
        assert 0 <= int(r["lhs"]) < m and 0 <= int(r["rhs"]) < m
        assert math.comb(21, 10) % m == int(r["lhs"])

    def test_binom_kernel_reduces(self):
        assert binom_central_int(11, 11**8) % 11**4 == math.comb(21, 10) % 11**4
