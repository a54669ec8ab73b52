import io
import random

import pytest

from gparith.errors import ExprSyntaxError, ZeroModulus
from gparith.weakmult import (
    ExplicitQSet,
    IntPolynomial,
    Minus,
    ONE,
    Plus,
    SyntheticQSet,
    TermVar,
    Times,
    build_Q,
    check_Q1,
    check_Q2,
    check_solvability,
    close_pm,
    compile_solvability,
    eval_term_m,
    export_csv,
    family_domain_ok,
    family_F,
    family_of_term,
    import_csv,
    parse_poly,
    poly_to_term,
    term_eval,
    term_to_poly,
)

# the worked product-of-sums term from the multiplication section
PAPER_TERM = Plus(
    Plus(Times(Plus(TermVar(1), TermVar(2)),
               Plus(TermVar(2), Plus(TermVar(3), TermVar(3)))),
         Times(Times(TermVar(1), TermVar(1)), TermVar(3))),
    Plus(ONE, ONE))


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
        assert term_to_poly(ONE, 1) == IntPolynomial.constant(1, 1)
        assert poly_to_term(parse_poly("x1")) == TermVar(1)

    def test_constant_two(self):
        assert poly_to_term(IntPolynomial.constant(2, 0)) == Plus(ONE, ONE)

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
            assert term_eval(t, args) == p.eval(args)

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
        t = Plus(Minus(TermVar(1), TermVar(2)), Plus(ONE, ONE))
        # unit scales with the modulus: x1 - x2 + 2m at scaled arguments
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
        assert rep.commutes

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
        from gparith.diosearch import SearchBudget, find_progression_base

        w = find_progression_base(6, ctx.alpha, 1, SearchBudget())
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

    def test_synthetic_enumeration_guard(self):
        big = SyntheticQSet(m_max=100, k_max=10**6)
        with pytest.raises(ValueError):
            list(big.members())


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
        compiled = compile_solvability(parse_poly("x1*x2 - 6"), m_cap=8)
        text = compiled.text()
        assert text.startswith("exists m in [1, 8]:")
        assert "Q(m, y1, y2, z1)" in text
        assert "-6*m + z1 = 0" in text

    def test_compiled_formula_evaluates(self):
        # generic bounded evaluation of the compiled sentence agrees with
        # the direct witness search on a small linear case
        from gparith.focheck import BoundProfile, Structure, eval_formula

        compiled = compile_solvability(parse_poly("x1 - 2"), m_cap=3, y_cap=8)
        Q = SyntheticQSet(3, 10)
        st = Structure(relations={"Q": lambda m, a, b, c: Q.contains(m, a, b, c)})
        assert eval_formula(compiled.formula, {}, st, BoundProfile(max_range=10**5))

    def test_parse_poly_errors(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("x1 + + 2")
        with pytest.raises(ExprSyntaxError):
            parse_poly("y1 - 2")
