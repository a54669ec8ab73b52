import io
from fractions import Fraction
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gparith import harness as H, weakmult
from gparith.errors import ExprSyntaxError, ZeroModulus
from gparith.exactnum import NumberField
from gparith.focheck import (
    AlphaContext,
    Structure,
    ell,
    eval_formula,
    pretty_formula,
)
from gparith.genpoly import Add, IntLit, Mul, Sub, Var, compile_term
from gparith.weakmult import (
    ExplicitQSet,
    IntPolynomial,
    SyntheticQSet,
    build_Q,
    check_Q1,
    check_Q2,
    check_solvability,
    close_pm,
    commutes,
    compile_solvability,
    eval_term_m,
    export_csv,
    family_domain_ok,
    family_F,
    family_of_term,
    import_csv,
    is_sign_closed,
    parse_poly,
    poly_to_term,
    term_to_poly,
)

# the worked product-of-sums term from the multiplication section
X1, X2, X3 = (Var(f"x{i}") for i in (1, 2, 3))
PAPER_TERM = Add(
    Add(Mul(Add(X1, X2), Add(X2, Add(X3, X3))),
         Mul(Mul(X1, X1), X3)),
    IntLit(2))


def _least_full_modulus(Q, F):
    """The least modulus of Q whose rows hold every (k, l) of F, asked one
    row at a time."""
    return next((m for m in sorted({row[0] for row in Q.members()})
                 if all(Q.contains(m, k * m, l * m, k * l * m) for k, l in F)), None)


def rand_poly(rng, arity=3, deg=3, cmax=5):
    entries = {}
    for _ in range(rng.randrange(1, 7)):
        e = [0] * arity
        for _ in range(rng.randrange(0, deg + 1)):
            e[rng.randrange(arity)] += 1
        c = rng.randrange(-cmax, cmax + 1)
        if c and sum(e) <= deg:
            e = tuple(e)
            entries[e] = entries.get(e, 0) + c
    return IntPolynomial._normalise(arity, entries)


class TestTermsAndPolys:
    def test_paper_term_expands(self):
        p = term_to_poly(PAPER_TERM, 3)
        want = parse_poly("x1*x2 + x2*x2 + 2*x1*x3 + 2*x2*x3 + x1*x1*x3 + 2")
        assert p == want

    def test_one_and_var(self):
        assert term_to_poly(IntLit(1), 1) == IntPolynomial.constant(1, 1)
        assert poly_to_term(parse_poly("x1")) == X1

    def test_constant_two(self):
        assert poly_to_term(IntPolynomial.constant(2, 0)) == IntLit(2)

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(500):
            p = rand_poly(rng)
            assert term_to_poly(poly_to_term(p), p.arity) == p

    def test_term_eval_matches_poly(self):
        rng = random.Random(8)
        for _ in range(100):
            p = rand_poly(rng)
            t = poly_to_term(p)
            args = [rng.randrange(-6, 7) for _ in range(p.arity)]
            valuation = {f"x{i}": a for i, a in enumerate(args, 1)}
            assert compile_term(t)(valuation, {}) == p.eval(args)

    def test_canonical_term_deterministic(self):
        p = parse_poly("x1*x2 - 6")
        assert poly_to_term(p) == poly_to_term(parse_poly("x1*x2 - 6"))


class TestFamily:
    def test_variable_and_unit_empty(self):
        assert family_F(parse_poly("x1")) == frozenset()
        assert family_F(parse_poly("1")) == frozenset()

    def test_paper_term_family(self):
        fam = family_of_term(PAPER_TERM, 3)
        as_strs = {(str(a), str(b)) for a, b in fam}
        assert as_strs == {
            ("1*x2 + 1*x1", "2*x3 + 1*x2"),
            ("1*x1", "1*x1"),
            ("1*x1^2", "1*x3"),
        }

    def test_family_closed_under_products_of_canonical_term(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rand_poly(rng)
            fam = family_F(p)
            # every pair multiplies to a subproduct of the term; sanity:
            # pair polynomials have the declared arity
            for (a, b) in fam:
                assert a.arity == p.arity and b.arity == p.arity


class TestPartialOps:
    def test_times_m_defined(self):
        Q = ExplicitQSet([(2, 4, 6, 12)])
        from gparith.weakmult import times_m

        assert times_m(Q, 2, 4, 6) == 12
        assert times_m(Q, 2, 3, 5) is None  # 2 does not divide 15
        assert times_m(Q, 2, 4, 8) is None  # quadruple absent
        with pytest.raises(ZeroModulus):
            times_m(Q, 0, 4, 6)

    def test_laws_where_defined(self):
        Q = SyntheticQSet(m_max=4, k_max=100)
        from gparith.weakmult import times_m

        rng = random.Random(1)
        for _ in range(300):
            m = rng.randrange(1, 5)
            a, b, c = (m * rng.randrange(-9, 10) for _ in range(3))
            ab = times_m(Q, m, a, b)
            ba = times_m(Q, m, b, a)
            assert ab == ba  # commutativity on the synthetic store
            if ab is not None:
                lhs = times_m(Q, m, ab, c)
                bc = times_m(Q, m, b, c)
                rhs = None if bc is None else times_m(Q, m, a, bc)
                if lhs is not None and rhs is not None:
                    assert lhs == rhs
                ac = times_m(Q, m, a, c)
                s = times_m(Q, m, a + b, c)
                if s is not None and ac is not None and bc is not None:
                    assert s == ac + bc

    def test_multiplication_free_total(self):
        Q = ExplicitQSet([])
        t = Add(Sub(X1, X2), IntLit(2))
        # integer leaves scale with the modulus: x1 - x2 + 2m at scaled arguments
        assert eval_term_m(t, 3, [6, 9], Q) == 6 - 9 + 6

    def test_lemma22_contract_randomised(self):
        rng = random.Random(17)
        Q = SyntheticQSet(m_max=3, k_max=10**9)
        checked = 0
        for _ in range(500):
            p = rand_poly(rng)
            t = poly_to_term(p)
            fam = family_F(p)
            for m in (1, 2, 3):
                args = [rng.randrange(-5, 6) for _ in range(p.arity)]
                if not family_domain_ok(fam, m, args, Q):
                    continue
                checked += 1
                assert eval_term_m(t, m, [m * a for a in args], Q) == m * p.eval(args)
        assert checked > 400

    def test_domain_failure_propagates_none(self):
        Q = SyntheticQSet(m_max=2, k_max=3)  # tiny domain
        p = parse_poly("x1*x1")
        t = poly_to_term(p)
        assert eval_term_m(t, 2, [2 * 5], Q) is None  # |k| = 5 > 3


class TestQSets:
    def test_build_q_structure(self, ctx):
        Q = build_Q(ctx, 300, 50)
        rep = check_Q1(Q)
        assert rep.total == len(Q) > 0
        assert rep.violations == []
        assert commutes(Q)

    def test_build_q_closed_form(self, ctx):
        # membership matches the progression characterisation: for k*l >= 2
        # the quadruple sits in Q iff pi(m, (kl+1)m) holds; the k = l = 1
        # quadruple needs only the smallest admissible progression
        from gparith.focheck import def_pi

        Q = build_Q(ctx, 60, 40)
        for m in range(1, 61):
            for k in range(1, 7):
                for l in range(1, 7):
                    if k * l == 1:
                        want = def_pi(m, 3 * m, ctx)
                    else:
                        hm = min((k * l + 1), 40)
                        want = (k * l + 1) <= 40 and def_pi(m, hm * m, ctx)
                    got = Q.contains(m, k * m, l * m, k * l * m)
                    assert got == want, (m, k, l)

    def test_progression_base_quadruples(self, ctx):
        from gparith.diosearch import find_progression_base

        w = find_progression_base(6, ctx.alpha, 1, 10**6)
        Q = build_Q(ctx, w.m, 60)
        assert Q.contains(w.m, w.m, 2 * w.m, 2 * w.m)
        assert Q.contains(w.m, 2 * w.m, 2 * w.m, 4 * w.m)

    def test_empty_bounds(self, ctx):
        assert len(build_Q(ctx, 0, 10)) == 0

    def test_close_pm(self):
        Q = ExplicitQSet([(2, 4, 6, 12)])
        C = close_pm(Q)
        assert set(C.members()) == {(2, 4, 6, 12), (2, -4, 6, -12),
                                    (2, 4, -6, -12), (2, -4, -6, 12)}
        assert close_pm(C) == C
        assert check_Q1(C).violations == []

    def test_q2(self, ctx):
        Q = build_Q(ctx, 300, 60)
        assert check_Q2(Q, [(1, 1)]) is not None
        m = check_Q2(Q, [(k, l) for k in (1, 2) for l in (1, 2)])
        assert m is not None
        assert all(Q.contains(m, k * m, l * m, k * l * m)
                   for k in (1, 2) for l in (1, 2))

    def test_q2_asks_the_store_once(self, ctx, monkeypatch):
        Q = build_Q(ctx, 1500, 1000)
        want = _least_full_modulus(Q, H._Q2_FAMILY)
        calls = []
        contains = ExplicitQSet.contains
        monkeypatch.setattr(ExplicitQSet, "contains",
                            lambda self, *args: (calls.append(args), contains(self, *args))[1])
        assert check_Q2(Q, H._Q2_FAMILY) == want == 23
        assert len(calls) == 1  # the scalar walk asks 57 single rows

    @pytest.mark.parametrize("full", [[], [1], [64], [65], [100, 250], [193], [300]])
    def test_q2_reads_past_the_first_runs_of_moduli(self, full):
        # moduli 1..300 asked in runs of 64, 128 and 256: (2, 3) is planted
        # only at the moduli in `full`
        rows = [(m, m, m, m) for m in range(1, 301)] + [(m, 2 * m, 3 * m, 6 * m) for m in full]
        assert check_Q2(ExplicitQSet(rows), [(1, 1), (2, 3)]) == min(full, default=None)

    @settings(max_examples=60, deadline=None)
    @given(moduli=st.lists(st.integers(-40, 400).filter(bool), min_size=1, max_size=200,
                           unique=True),
           full=st.sets(st.integers(0, 199), max_size=3), seed=st.integers(0, 99),
           wide=st.booleans())
    def test_q2_is_the_least_full_modulus(self, moduli, full, seed, wide):
        # a store holding all of F at the moduli indexed by `full` and a part
        # of F at the others, so the answer may lie past the first run of
        # moduli; a `wide` F leaves int64 and is read one row at a time
        F = [(1, 1), (-2, 3), (3, -1), (2, 2)] + ([(2**40, 2**30)] if wide else [])
        rng = random.Random(seed)
        rows = [(m, k * m, l * m, k * l * m) for i, m in enumerate(moduli)
                for k, l in (F if i in full else rng.sample(F, rng.randrange(len(F))))
                if abs(k * l * m) < 2**63]
        Q = ExplicitQSet(rows)
        assert check_Q2(Q, F) == _least_full_modulus(Q, F)

    def test_csv_roundtrip(self, ctx):
        Q = build_Q(ctx, 120, 30)
        buf = io.StringIO()
        export_csv(Q, buf)
        lines = buf.getvalue().splitlines()
        assert lines == sorted(lines, key=lambda s: [int(x) for x in s.split(",")])
        buf.seek(0)
        Q2 = import_csv(buf)
        assert set(Q2.members()) == set(Q.members())
        with pytest.raises(ValueError):
            import_csv(io.StringIO("1,2,3\n"))


def _build_Q_per_modulus(ctx, m_max, h_factor_max):
    """The rows and short runs of build_Q, one modulus at a time, with the
    scalar exact ell and Python integers: the reference for the lane pass."""
    rows, short_runs = [], []
    for m in range(1, m_max + 1):
        T = min(h_factor_max, ell(m, ctx.alpha) // m)
        if T < 3:
            continue
        gv = ctx.g.g_vec(np.arange(0, (T + 1) * m, m, dtype=np.int64)).tolist()
        d2 = [gv[t + 2] - 2 * gv[t + 1] + gv[t] for t in range(1, T - 1)]
        if d2[0] == 0:
            continue
        run = next((i for i, v in enumerate(d2) if v != d2[0]), len(d2))
        if run < T - 2:
            short_runs.append((m, T, run))
        rows += [(m, k * m, l * m, k * l * m)
                 for k in range(1, T) for l in range(1, (T - 1) // k + 1)
                 if gv[k * l + 1] - gv[1] - gv[k * l] + gv[0]
                 == gv[k + l] - gv[k] - gv[l] + gv[0]]
    return rows, short_runs


_Q_FIELDS = {
    "cbrt2": ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    "sqrt2": ([-2, 0, 1], (1, 2)),
    "golden": ([-1, -1, 1], (1, 2)),
}
_Q_BOUNDS = [(0, 5), (1, 5), (60, 40), (300, 50), (3000, 7), (1500, 1000)]


class TestBuildQOneLanePass:
    """build_Q over all moduli at once equals the per-modulus loop."""

    @staticmethod
    def _assert_matches_reference(ctx):
        for m_max, h_factor in _Q_BOUNDS:
            Q = build_Q(ctx, m_max, h_factor)
            rows, short_runs = _build_Q_per_modulus(ctx, m_max, h_factor)
            assert Q == ExplicitQSet(rows), (m_max, h_factor)
            assert Q.cols.dtype == np.int64
            assert Q.short_runs == short_runs, (m_max, h_factor)
        return short_runs

    @pytest.mark.parametrize("beta", [1, -1, 2])
    @pytest.mark.parametrize("name", sorted(_Q_FIELDS))
    def test_matches_the_per_modulus_loop(self, name, beta):
        ctx = AlphaContext(NumberField(*_Q_FIELDS[name]).theta, beta)
        assert self._assert_matches_reference(ctx) == []

    @pytest.mark.parametrize("name", sorted(_Q_FIELDS))
    def test_matches_it_on_a_g_with_short_runs(self, name, monkeypatch):
        # g zeroed on 11 | n, so a = 0 on those moduli, and then raised by 1
        # on n = 3 mod 7, so runs fall short (there too) and equalities fail
        ctx = AlphaContext(NumberField(*_Q_FIELDS[name]).theta, 1)
        real = ctx.g.g_vec
        monkeypatch.setattr(ctx.g, "g_vec",
                            lambda n: np.where(n % 11 == 0, 0, real(n)) + (n % 7 == 3))
        assert self._assert_matches_reference(ctx)


class TestQChecksCanFail:
    """Each Q check turns red on a set that breaks what it checks."""

    def test_missing_swap_does_not_commute(self):
        Q = ExplicitQSet([(2, 4, 6, 12)])
        assert check_Q1(Q).violations == [] and not commutes(Q)
        assert commutes(ExplicitQSet([(2, 4, 6, 12), (2, 6, 4, 12)]))

    def test_non_multiplicative_row_fails_q1(self, ctx, monkeypatch):
        real_build = H.build_Q

        def build_with_bad_row(ctx, m_max, h_factor):
            return ExplicitQSet(list(real_build(ctx, m_max, h_factor).members())
                                + [(5, 10, 15, 31)])

        monkeypatch.setattr(H, "build_Q", build_with_bad_row)
        q1, _, signs = H.verify_q_axioms(ctx, m_max=60, h_factor=20).records
        assert q1["verdict"] == "fail"
        assert q1["witness"]["violations"] == [(5, 10, 15, 31)]
        assert signs["verdict"] == "fail"  # the closure inherits the bad row

    @staticmethod
    def _without_both_flipped(Q):
        m, a, b, c = Q.cols
        return ExplicitQSet(np.concatenate(
            [np.stack([m, a, b, c]), np.stack([m, -a, b, -c]),
             np.stack([m, a, -b, -c])], axis=1))

    # returning Q itself passed `close_pm(Qpm) == Qpm` by construction
    @pytest.mark.parametrize("lossy", ["without_both_flipped", "identity"])
    def test_lossy_close_pm_fails_sign_closure(self, ctx, monkeypatch, lossy):
        monkeypatch.setattr(H, "close_pm", {"without_both_flipped": self._without_both_flipped,
                                            "identity": lambda Q: Q}[lossy])
        records = H.verify_q_axioms(ctx, m_max=60, h_factor=20).records
        assert [r["verdict"] for r in records] == ["pass", "pass", "fail"]
        assert records[2]["witness"]["idempotent"] is False

    def test_short_run_fails_q1(self, ctx, monkeypatch):
        real_d2 = weakmult.progression_d2
        cut = {}

        def shortened(ctx, ms, Ts):
            gv, off, a, run = real_d2(ctx, ms, Ts)
            if not cut:  # the first modulus with T >= 3
                cut["row"] = (int(ms[0]), int(Ts[0]), int(run[0]) - 1)
                run = run.copy()
                run[0] -= 1
            return gv, off, a, run

        monkeypatch.setattr(weakmult, "progression_d2", shortened)
        r = H.verify_q_axioms(ctx, m_max=60, h_factor=20)
        q1 = r.records[0]
        assert not r.ok and q1["verdict"] == "fail"
        assert q1["witness"]["violations"] == [cut["row"]]
        m, T, run = cut["row"]
        assert run == T - 3  # the unshortened run reached T - 2


class TestQInt64:
    """Imported quadruples never wrap silently in int64."""

    @pytest.mark.parametrize("line", ["1,2,3,9223372036854775808",
                                      "-9223372036854775809,1,1,1"])
    def test_import_rejects_values_outside_int64(self, line):
        text = f"1,1,1,1\n{line}\n2,2,2,2\n"
        with pytest.raises(ValueError, match=line):
            import_csv(io.StringIO(text))

    def test_import_keeps_int64_extremes(self):
        rows = [(1, -2**63, 0, 0), (1, 2**63 - 1, 1, 2**63 - 1)]
        Q = import_csv(io.StringIO("1,-9223372036854775808,0,0\n"
                                   "1,9223372036854775807,1,9223372036854775807\n"))
        assert list(Q.members()) == rows
        for row in rows:
            assert check_Q1(ExplicitQSet([row])).violations == []
        # the guard bounds k*l row by row, so the rows also check together
        assert check_Q1(Q).violations == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1, -1, 2, -3]),
                              *[st.one_of(st.integers(-2**63, 2**63 - 1),
                                          st.integers(-40, 40))] * 3),
                    min_size=1, max_size=6))
    def test_guard_and_violations_match_exact_integers(self, rows):
        def k_l_r(row):
            m, a, b, c = row
            return (a // m, b // m, c // m) if a % m == b % m == c % m == 0 else None

        Q = ExplicitQSet(rows)
        members = list(Q.members())
        if any(t is not None and abs(t[0] * t[1]) > 2**63 - 1 for t in map(k_l_r, members)):
            with pytest.raises(ValueError, match="int64"):
                check_Q1(Q)
            return
        want = [row for row in members
                if (t := k_l_r(row)) is None or t[0] * t[1] != t[2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_Q1(Q).violations == want

    def test_import_keeps_malformed_line_error(self):
        with pytest.raises(ValueError, match="malformed quadruple line"):
            import_csv(io.StringIO("1,2,3,4\n1,2,3\n"))

    def test_overflowing_product_raises(self):
        Q = ExplicitQSet([(1, 2**32, 2**32, 0)])
        with pytest.raises(ValueError, match="int64"):
            check_Q1(Q)

    def test_wrapped_quotient_is_not_multiplicative(self):
        # c // m = 2^63 wraps to -2^63 in int64, which no guarded k * l equals
        row = (-1, 2 - 2**63, 1, -2**63)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_Q1(ExplicitQSet([row])).violations == [row]

    def test_zero_modulus_is_a_violation(self):
        Q = ExplicitQSet([(0, 0, 0, 0), (0, 3, 4, 12), (2, 4, 6, 12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_Q1(Q)
        assert rep.total == 3
        assert rep.violations == [(0, 0, 0, 0), (0, 3, 4, 12)]

    def test_sign_flip_of_int64_min_raises(self):
        with pytest.raises(ValueError, match="int64"):
            close_pm(ExplicitQSet([(1, -2**63, 0, 0)]))
        # negated in int64, -2^63 is itself: the one row would read as closed
        for row in [(1, -2**63, 0, 0), (1, 0, 0, -2**63)]:
            with pytest.raises(ValueError, match="int64"):
                is_sign_closed(ExplicitQSet([row]))


class TestReduction:
    def test_linear(self):
        p = parse_poly("x1 - 2")
        Q = SyntheticQSet(2, 10)
        w = check_solvability(p, Q, range(1, 3), 8)
        assert w is not None and w.y[0] == 2 * w.m

    def test_product(self):
        p = parse_poly("x1*x2 - 6")
        Q = SyntheticQSet(4, 10**9)
        w = check_solvability(p, Q, range(1, 5), 8)
        assert w is not None
        assert (w.n[0] * w.n[1]) == 6

    def test_pythagoras(self):
        p = parse_poly("x1*x1 + x2*x2 - x3*x3")
        Q = SyntheticQSet(2, 10**9)
        w = check_solvability(p, Q, range(1, 3), 6)
        assert w is not None
        n1, n2, n3 = w.n
        assert n1 * n1 + n2 * n2 == n3 * n3

    def test_no_witness_is_not_unsolvable(self):
        p = parse_poly("x1*x1 - 2")
        Q = SyntheticQSet(3, 10**9)
        assert check_solvability(p, Q, range(1, 4), 12) is None

    def test_formula_text_shape(self):
        text = pretty_formula(compile_solvability(parse_poly("x1*x2 - 6"), m_cap=8))
        assert text.startswith("exists m in [1, 8]:")
        assert "Q(m, y1, y2, z1)" in text
        assert "-6*m + z1 = 0" in text

    def test_compiled_formula_evaluates(self):
        # generic bounded evaluation of the compiled sentence agrees with
        # the direct witness search on a small linear case
        compiled = compile_solvability(parse_poly("x1 - 2"), m_cap=3, y_cap=8)
        Q = SyntheticQSet(3, 10)
        st = Structure(relations={"Q": Q})
        assert eval_formula(compiled, {}, st)

    def test_parse_poly_errors(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("x1 + + 2")
        with pytest.raises(ExprSyntaxError):
            parse_poly("y1 - 2")
