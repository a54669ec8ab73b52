import ast
import random
from fractions import Fraction
from itertools import combinations
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gparith import _fastlane
from gparith._fastlane import BLOCK, BohrFast, QuadSeqFast
from gparith.diosearch import C_SCHEDULE, continued_fraction, sample_admissible_triples
from gparith.exactnum import NumberField, frac_signed, nint
from gparith.errors import ArityTooSmall, ExprSyntaxError, UnboundVariable
from gparith.genpoly import (
    GAMMA_ALL_PAIRS,
    GAMMA_OFF_DIAGONAL,
    INT64_MAX,
    Apply,
    IndicatorLess,
    IntSeq,
    Mul,
    NoLane,
    SequenceHandle,
    Var,
    compile_lane,
    compile_term,
    delta_sym,
    delta_sym_iter,
    expr_sort,
    lemma31_classify,
    parse,
    pretty,
)

mp.mp.dps = 50
CBRT2 = mp.cbrt(2)

G_TEXT = "nint(beta*n*nint(alpha*n))"
BOHR_TEXT = "ind(norm(alpha*n*n) < rho)"


def _eval(text: str, constants: dict, n: int):
    """The value of `eval` text at n, through the AST."""
    return compile_term(parse(text))({**constants, "n": n}, {})


def _value(text: str, env: dict, sequences: dict):
    return compile_term(parse(text))(env, sequences)


def _plastic():
    """The plastic number, the real root of x^3 - x - 1."""
    return NumberField([-1, -1, 0, 1], (Fraction(13, 10), Fraction(4, 3))).theta


def _seq(text: str):
    """The integer sequence n -> value of `text` at n, through the AST."""
    return partial(_eval, text, {})


class TestParser:
    def test_theorem_a_shape(self):
        e = parse("nint(beta*n*nint(alpha*n))")
        assert e == Apply("nint", Mul(Mul(Var("beta"), Var("n")),
                                      Apply("nint", Mul(Var("alpha"), Var("n")))))

    def test_var(self):
        assert parse("n") == Var("n")

    def test_indicator_shape(self):
        e = parse("ind(norm(alpha*n*n) < rho)")
        assert e == IndicatorLess(
            Apply("norm", Mul(Mul(Var("alpha"), Var("n")), Var("n"))), Var("rho"))

    @pytest.mark.parametrize("text", [
        "nint(beta*n*nint(alpha*n))",
        "ind(norm(alpha*n*n) < rho)",
        "n", "1+2*n", "-(n+2)*3-floor(alpha*n)",
        "frac(alpha*n)+norm(beta*n)", "3*(n-1)*(n-2)",
    ])
    def test_round_trip(self, text):
        e = parse(text)
        assert parse(pretty(e)) == e

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("nint(alpha*n")
        assert ei.value.position == len("nint(alpha*n")
        with pytest.raises(ExprSyntaxError):
            parse("n +")
        with pytest.raises(ExprSyntaxError):
            parse("ind(alpha*n < rho)")  # ind requires norm(...)
        with pytest.raises(ExprSyntaxError):
            parse("2n")

    def test_unknown_constant_at_eval_not_parse(self):
        e = parse("nint(gamma*n)")
        with pytest.raises(UnboundVariable, match="gamma"):
            compile_term(e)({"n": 1}, {})

    def test_sorts(self):
        assert expr_sort(parse("nint(alpha*n)*n + 1")) == "int"
        assert expr_sort(parse("alpha*n")) == "real"
        assert expr_sort(parse("frac(alpha*n)")) == "real"
        assert expr_sort(parse("ind(norm(alpha*n) < rho)")) == "int"


class TestEval:
    def test_theorem_a_values(self, alpha):
        g = QuadSeqFast(alpha, 1)
        assert g(0) == 0
        assert g(5) == 30
        # oracle: nint(6*cbrt2) = 8, so g(6) = nint(6*8) = 48
        assert int(mp.floor(6 * CBRT2 + mp.mpf(1) / 2)) == 8
        assert g(6) == 48

    def test_beta_alpha_squared(self, alpha):
        g2 = QuadSeqFast(alpha, alpha * alpha)
        assert g2(1) == 2  # alpha^2 ~ 1.5874 rounds to 2

    def test_bohr_indicator(self, sqrt2):
        g = BohrFast(sqrt2, Fraction(1, 5))
        assert g(0) == 1
        assert g(1) == 0  # ||sqrt2|| ~ 0.414 >= 1/5
        assert all(g(n) in (0, 1) for n in range(20))
        assert all(g(-n) == g(n) for n in range(1, 15))

    def test_cross_field_products_rejected(self, alpha, sqrt2):
        # constants from independent fields cannot combine: the evaluator
        # propagates the field-mismatch error from the exact core
        from gparith.errors import FieldMismatch

        expr = parse("nint(alpha*beta*n)")
        with pytest.raises(FieldMismatch):
            compile_term(expr)({"alpha": alpha, "beta": sqrt2, "n": 3}, {})

    def test_memo_transparency(self, alpha):
        g = QuadSeqFast(alpha, 1)
        rng = random.Random(2)
        for _ in range(10**4):
            n = rng.randrange(0, 10**4)
            assert g(n) == g.g_scalar(n)

    def test_nearest_product_remark(self, alpha):
        # |g(n) - beta n nint(alpha n)| <= 1/2, exactly
        g = QuadSeqFast(alpha, alpha * alpha)
        beta = alpha * alpha
        for n in range(1, 40):
            inner = beta * n * (alpha * n).nint()
            diff = g(n) - inner
            d = -diff if diff.sign() < 0 else diff
            assert (d - Fraction(1, 2)).sign() <= 0


def _betas(alpha):
    """int, Fraction and algebraic beta (elements of alpha's field)."""
    small = st.integers(-4, 4)
    return st.one_of(
        small,
        st.fractions(Fraction(-4), Fraction(4), max_denominator=7),
        st.tuples(small, small, st.integers(1, 3)).map(
            lambda t: alpha * t[0] + alpha * alpha * Fraction(t[1], t[2]) + 1))


class TestOneEvaluator:
    """Memo, exact scalar and integer lane agree with the AST reference."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_quadratic_sequence_matches_ast(self, alpha, data):
        beta = data.draw(_betas(alpha))
        ns = data.draw(st.lists(st.integers(-300, 300), min_size=1, max_size=8))
        g = QuadSeqFast(alpha, beta)
        ref = [_eval(G_TEXT, {"alpha": alpha, "beta": beta}, n) for n in ns]
        assert [g(n) for n in ns] == ref
        assert [g(n) for n in ns] == [g.g_scalar(n) for n in ns] == ref  # memo hits
        assert [int(v) for v in g.g_vec(np.array(ns, dtype=np.int64))] == ref

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bohr_indicator_matches_ast(self, sqrt2, data):
        rho = data.draw(st.one_of(
            st.fractions(Fraction(1, 50), Fraction(1, 2), max_denominator=50),
            st.just(sqrt2 - 1)))
        ns = data.draw(st.lists(st.integers(-300, 300), min_size=1, max_size=8))
        g = BohrFast(sqrt2, rho)
        ref = [_eval(BOHR_TEXT, {"alpha": sqrt2, "rho": rho}, n) for n in ns]
        assert [g(n) for n in ns] == ref
        assert [g(n) for n in ns] == [g.g_scalar(n) for n in ns] == ref  # memo hits
        assert [int(v) for v in g.g_vec(np.array(ns, dtype=np.int64))] == ref


class TestLane:
    """The vector form of integer terms holds only exact int64 values."""

    XS = np.arange(-3, 4, dtype=np.int64)

    def test_values_and_what_a_term_reads(self, alpha, sqrt2):
        g, gb = QuadSeqFast(alpha, 1), BohrFast(sqrt2, Fraction(1, 5))
        run = compile_lane(parse("g(x*x + y) - 2*gb(x) + g(y)*y"), ("x",))
        got = run({"x": self.XS}, {"y": 2}, {"g": g, "gb": gb})
        assert got.dtype == np.int64
        assert got.tolist() == [g(x * x + 2) - 2 * gb(x) + g(2) * 2 for x in range(-3, 4)]
        assert compile_lane(parse("y - 1"), ("x",))({"x": self.XS}, {"y": 2}, {}) == 1
        # the lane declines what it cannot read: an unbound y, an unbound
        # gb, a gb without g_vec; the exact walk reads these names
        for env, seqs in [({}, {"g": g, "gb": gb}), ({"y": 2}, {"g": g}),
                          ({"y": 2}, {"g": g, "gb": gb.__call__})]:
            with pytest.raises(NoLane):
                run({"x": self.XS}, env, seqs)
        # a sequence applied off the scanned variable is read exactly, without g_vec
        got = compile_lane(parse("x + gb(y)"), ("x",))({"x": self.XS}, {"y": 2},
                                                         {"gb": gb.__call__})
        assert got.tolist() == (self.XS + gb(2)).tolist()

    @pytest.mark.parametrize("text", ["frac(x)", "norm(x*y)", "ind(norm(x) < 1)",
                                      "x + frac(y)"])
    def test_frac_norm_and_indicator_have_no_lane(self, text):
        assert compile_lane(parse(text), ("x",)) is None

    @pytest.mark.parametrize("text", ["floor(x)", "nint(y) + x", "nint(-(x*y) + 1)",
                                      "floor(g(x))*y", "nint(y*x)*floor(3*x)"])
    def test_rounding_of_an_integer_is_that_integer(self, alpha, text):
        env, seqs = {"y": Fraction(3)}, {"g": QuadSeqFast(alpha, 1)}
        got = compile_lane(parse(text), ("x",))({"x": self.XS}, env, seqs)
        assert got.tolist() == [_value(text, {**env, "x": x}, seqs) for x in self.XS.tolist()]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rounding_of_a_constant_multiple_is_exact(self, alpha, data):
        # the runner is the exact closure entry by entry, and declines only
        # where x^d or an answer leaves int64
        c = data.draw(st.sampled_from([alpha, _plastic(), Fraction(1, 3), Fraction(1, 2),
                                       Fraction(-7, 5), Fraction(-6)]))
        d = data.draw(st.integers(1, 3))
        text = data.draw(st.sampled_from(["nint", "floor"])) + "(" + \
            data.draw(st.sampled_from(["", "-"])) + "c*" + "*".join(["x"] * d) + ")"
        # past 2^50/|c| nint_frac_vec leaves the float recovery range
        far = int((2**50 / abs(float(c))) ** (1 / d))
        entry = st.one_of(st.integers(-2**12, 2**12),
                          st.builds(lambda s, k: s * k, st.sampled_from([-1, 1]),
                                    st.integers(far - 2**8, far + 2**8)),
                          st.integers(-INT64_MAX, INT64_MAX))
        xs = data.draw(st.lists(entry, min_size=1, max_size=24))
        want = [_value(text, {"c": c, "x": x}, {}) for x in xs]
        run = compile_lane(parse(text), ("x",))
        try:
            got = run({"x": np.array(xs, dtype=np.int64)}, {"c": c}, {})
        except NoLane:
            assert max(map(abs, xs)) ** d > INT64_MAX or max(map(abs, want)) >= INT64_MAX
        else:
            assert got.tolist() == want

    def test_half_integer_edges_are_decided_exactly(self, alpha):
        # a convergent p/q of 2c with p odd puts c*q within about 1/q of a
        # half-integer, inside the lane margin of +-1/2 from q near 2^30, so
        # these entries are decided by the exact fallback of nint_frac_vec
        for c in (alpha, _plastic()):
            qs = [q for p, q in continued_fraction(2 * c, 60).convergents()
                  if p % 2 and 2**20 < q < 2**49]
            assert len(qs) >= 10
            ks = [t * q for q in qs for t in (1, -1, 3)]
            for text in ("nint(c*x)", "floor(c*x)", "nint(x*c) - floor(c*x)"):
                got = compile_lane(parse(text), ("x",))(
                    {"x": np.array(ks, dtype=np.int64)}, {"c": c}, {})
                assert got.tolist() == [_value(text, {"c": c, "x": k}, {}) for k in ks], text

    def test_one_lane_constant_per_value(self, alpha, monkeypatch):
        made = []
        monkeypatch.setattr(_fastlane.FastConst, "__init__",
                            lambda self, v, init=_fastlane.FastConst.__init__:
                            (made.append(v), init(self, v))[1])
        run = compile_lane(parse("nint(c*x) + floor(x*c) + nint(b*x)"), ("x",))
        for _ in range(3):
            run({"x": self.XS}, {"c": alpha, "b": Fraction(1, 2)}, {})
        assert sorted(map(str, made)) == sorted(map(str, [alpha, alpha, Fraction(1, 2)]))

    @pytest.mark.parametrize("text, y", [
        ("x*y", 2**62),            # 3*2^62 leaves int64
        ("y - x", 2**63 - 2),      # so does 2^63 - 2 + 3
        ("-y + x", -2**63 + 1),
        ("y", 2**63),              # a scalar that int64 cannot hold
        ("x + y", Fraction(1, 2)),  # nor a value that is not an integer
        ("g(x + y)", 2**52),       # g leaves int64
    ])
    def test_declines_what_int64_cannot_hold(self, alpha, text, y):
        run = compile_lane(parse(text), ("x",))
        with pytest.raises(NoLane):
            run({"x": self.XS}, {"y": y}, {"g": QuadSeqFast(alpha, 1)})


class _SignedCubes(SequenceHandle):
    """g(n) = (-1)^n * 7919 * n^3: negative and past int32 from n = 82.
    `widths` records the length of each range read."""

    def __init__(self):
        super().__init__()
        self.widths = []

    def g_scalar(self, n):
        return (-1) ** n * 7919 * n ** 3

    def g_range(self, lo, hi):
        self.widths.append(hi + 1 - lo)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        return np.where(n % 2, -7919, 7919) * n ** 3


def test_table_grows_exactly():
    g = _SignedCubes()
    for upto in (0, 1, 5, 40, 300, 3000, 7000, 3 * BLOCK + 5):  # several doublings
        T = g.table(upto)
        assert len(T) > upto
        assert T.tolist() == [g.g_scalar(n) for n in range(len(T))]
    assert T.min() < -2**40 and T.max() > 2**40
    # the table reads g one BLOCK at a time, so a lane's temporaries stay small
    assert max(g.widths) == BLOCK and sum(g.widths) == len(T)


def delta_sym_iter_subsets(f: IntSeq, args: list[int]) -> int:
    """Independent inclusion-exclusion form of the iterated derivative."""
    if len(args) < 2:
        raise ArityTooSmall("need n0 plus at least one derivative direction")
    n0, rest = args[0], args[1:]
    r = len(rest)
    total = 0
    for k in range(r + 1):
        for idx in combinations(range(r), k):
            s = sum(rest[i] for i in idx)
            total += (-1) ** (r - k) * (f(n0 + s) - f(s))
    return total


class TestDiscreteCalculus:
    def test_sym_kills_linear(self):
        f = _seq("7*n-4")
        for m in range(0, 6):
            for n in range(0, 6):
                assert delta_sym(f, m, n) == 0

    def test_sym_quadratic_cross_term(self):
        # for a2 n^2 + a1 n + a0 the symmetric derivative is 2 a2 n m
        f = _seq("3*n*n-5*n+2")
        for m in range(0, 8):
            for n in range(0, 8):
                assert delta_sym(f, m, n) == 2 * 3 * n * m

    def test_iter_vanishes_on_quadratic(self):
        f = _seq("4*n*n+n-9")
        assert delta_sym_iter(f, [5, 3, 2]) == 0
        assert delta_sym_iter(f, [1, 1, 1]) == 0

    def test_iter_zero_direction(self, alpha):
        g = QuadSeqFast(alpha, 1)
        assert delta_sym_iter(g, [17, 0, 23]) == 0
        assert delta_sym_iter(g, [17, 23, 0]) == 0

    def test_sym_symmetric_in_arguments(self, alpha):
        g = QuadSeqFast(alpha, 1)
        rng = random.Random(6)
        for _ in range(50):
            m, n = rng.randrange(0, 500), rng.randrange(0, 500)
            assert delta_sym(g, m, n) == delta_sym(g, n, m)

    def test_iter_matches_subset_oracle(self, alpha):
        g = QuadSeqFast(alpha, 1)
        rng = random.Random(9)
        for _ in range(40):
            args = [rng.randrange(1, 300) for _ in range(rng.randrange(2, 5))]
            assert delta_sym_iter(g, args) == delta_sym_iter_subsets(g, args)

    def test_iter_permutation_invariant(self, alpha):
        g = QuadSeqFast(alpha, 1)
        rng = random.Random(10)
        for _ in range(20):
            args = [rng.randrange(1, 200) for _ in range(3)]
            base = delta_sym_iter(g, args)
            for _ in range(3):
                rng.shuffle(args)
                assert delta_sym_iter(g, args) == base

    def test_classical_degree_properties(self):
        # degree-d polynomial: r = d nonzero directions leave no n0
        # dependence; r = d + 1 vanishes identically
        f = _seq("2*n*n*n-n")
        v1 = delta_sym_iter(f, [4, 1, 2, 3])
        v2 = delta_sym_iter(f, [9, 1, 2, 3])
        assert v1 == v2
        assert delta_sym_iter(f, [5, 1, 2, 3, 4]) == 0

    def test_arity_guard(self, alpha):
        g = QuadSeqFast(alpha, 1)
        with pytest.raises(ArityTooSmall):
            delta_sym_iter(g, [5])


def _classify_reference(n0, n1, n2, g, gamma_mode=GAMMA_ALL_PAIRS):
    """The scalar classifier in exact field arithmetic: lhs_zero, cond1,
    cond2_by_mode, carries_e and carries_f of one triple."""
    alpha, beta = g.alpha, g.beta
    ns = (n0, n1, n2)
    subsets = [frozenset(c) for k in range(4) for c in combinations(range(3), k)]
    pairs = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0}))
    full = frozenset({0, 1, 2})
    s = [(alpha * ni).frac_signed() for ni in ns]
    a = [(alpha * ni).nint() for ni in ns]
    carries = {I: nint(sum((s[i] for i in I), Fraction(0))) for I in subsets}
    frac = {(i, j): frac_signed(beta * ns[i] * a[j]) for i in range(3) for j in range(3)}
    cond2_by_mode = {}
    for mode in (GAMMA_ALL_PAIRS, GAMMA_OFF_DIAGONAL):
        gam = {I: nint(sum((frac[(i, j)] for i in I for j in I
                            if mode == GAMMA_ALL_PAIRS or i != j), Fraction(0)))
               for I in pairs + (full,)}
        cond2_by_mode[mode] = gam[full] == sum(gam[p] for p in pairs)
    carries_f = {}
    for I in pairs:
        i, j = sorted(I)
        carries_f[I] = (delta_sym(g, ns[j], ns[i]) - nint(beta * ns[i] * a[j])
                        - nint(beta * ns[j] * a[i]) - nint(beta * (ns[i] + ns[j])) * carries[I])
    return {"lhs_zero": delta_sym_iter(g, list(ns)) == 0,
            "cond1": all(e == 0 for e in carries.values()),
            "cond2_by_mode": cond2_by_mode,
            "carries_e": {I: carries[I] for I in pairs + (full,)},
            "carries_f": carries_f}


def _report_fields(rep, i=None):
    """The fields of a classifier report, of entry i of an array report."""
    at = (lambda v: v) if i is None else (lambda v: v[i].item() if hasattr(v[i], "item") else v[i])
    return {"lhs_zero": at(rep.lhs_zero), "cond1": at(rep.cond1),
            "cond2_by_mode": {m: at(v) for m, v in rep.cond2_by_mode.items()},
            "carries_e": {I: at(v) for I, v in rep.carries_e.items()},
            "carries_f": {I: at(v) for I, v in rep.carries_f.items()}}


@pytest.fixture(scope="module")
def classifier_betas(alpha):
    cbrt4 = NumberField([-4, 0, 0, 1], (Fraction(3, 2), Fraction(8, 5))).theta
    return {"1": 1, "2": 2, "-3": -3, "1/3": Fraction(1, 3), "1/2": Fraction(1, 2),
            "alpha^2": alpha * alpha, "cbrt4": cbrt4}


class TestLemma31Classify:
    def test_identity_triple_documented_case(self, alpha):
        # ratio precondition violated: report produced, equivalence not asserted
        rep = lemma31_classify(1, 1, 1, QuadSeqFast(alpha, 1))
        assert rep.lhs_zero is False and rep.cond1 is False

    def test_equivalence_on_admissible_triples(self, alpha):
        g = QuadSeqFast(alpha, 1)
        rng = random.Random(4)
        for _ in range(60):
            n0 = 2 + rng.randrange(20)
            n1 = 2 * n0 + rng.randrange(4 * n0)
            n2 = 2 * n1 + rng.randrange(4 * n1)
            rep = lemma31_classify(n0, n1, n2, g)
            assert rep.equivalent

    def test_violating_pair_scan(self, alpha):
        # a pair with frac sum beyond 1/2 forces nonzero derivative
        s2 = (alpha * 2).frac_signed()
        s6 = (alpha * 6).frac_signed()
        assert (abs(s2 + s6) - Fraction(1, 2)).sign() > 0
        g = QuadSeqFast(alpha, 1)
        for n2 in range(100, 160):
            rep = lemma31_classify(2, 6, n2, g)
            assert not rep.cond1 and not rep.lhs_zero

    def test_gamma_modes_disagree_for_algebraic_beta(self, alpha):
        # frozen by search: beta = alpha^2, all-pairs matches the exact
        # derivative while off-diagonal does not
        beta = alpha * alpha
        g = QuadSeqFast(alpha, beta)
        rep_all = lemma31_classify(23, 530, 9722, g, GAMMA_ALL_PAIRS)
        rep_off = lemma31_classify(23, 530, 9722, g, GAMMA_OFF_DIAGONAL)
        assert rep_all.lhs_zero is True
        assert rep_all.cond1 and rep_all.cond2
        assert not rep_off.cond2
        assert rep_all.equivalent and not rep_off.equivalent
        # either report carries cond2 of both modes
        both = {GAMMA_ALL_PAIRS: rep_all.cond2, GAMMA_OFF_DIAGONAL: rep_off.cond2}
        assert rep_all.cond2_by_mode == rep_off.cond2_by_mode == both

    def test_carry_diagnostics_recompute(self, alpha):
        rep = lemma31_classify(5, 50, 600, QuadSeqFast(alpha, 1))
        for I, e in rep.carries_e.items():
            acc = Fraction(0)
            for i in I:
                v = (alpha * rep.triple[i]).frac_signed()
                acc = v + acc
            assert acc.nint() == e
        for f in rep.carries_f.values():
            assert -4 <= f <= 4

    @pytest.mark.parametrize("C", C_SCHEDULE)
    def test_array_call_matches_exact_reference(self, alpha, classifier_betas, C):
        # every stage of the calibration, 512 and 1024 past the beta lane's
        # exact-recovery range
        triples = sample_admissible_triples(C, 12, seed=C)
        n0, n1, n2 = np.array(triples, dtype=np.int64).T
        for beta in classifier_betas.values():
            g = QuadSeqFast(alpha, beta)
            rep = lemma31_classify(n0, n1, n2, g)
            for i, t in enumerate(triples):
                assert _report_fields(rep, i) == _classify_reference(*t, g), (beta, t)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scalar_and_array_calls_match_reference(self, alpha, classifier_betas, data):
        g = QuadSeqFast(alpha, data.draw(st.sampled_from(sorted(classifier_betas.items())))[1])
        triples = data.draw(st.lists(st.tuples(*[st.integers(1, 10**6)] * 3),
                                     min_size=1, max_size=5))
        rep = lemma31_classify(*np.array(triples, dtype=np.int64).T, g)
        for i, t in enumerate(triples):
            want = _classify_reference(*t, g)
            assert _report_fields(rep, i) == want
            assert _report_fields(lemma31_classify(*t, g)) == want


# ---------------------------------------------------------------------------
# One expression language: only genpoly defines, evaluates or prints terms
# ---------------------------------------------------------------------------

_NODES = {"IntLit", "Var", "Add", "Sub", "Mul", "Neg", "Apply", "IndicatorLess"}
# names a second node set would plausibly use, bare or with a T prefix
_NODE_NAMES = _NODES | {"Int", "Seq", "Const", "Floor", "Nint", "FracSigned",
                        "CircleNorm"}
# term walkers outside genpoly, each doing what the one evaluator cannot:
# the polynomial of a term and its product family, the scaled partial
# evaluation under x_m and the flattening of products into Q atoms (a weyl
# target's c*n^d shape is read through `genpoly.split_product`)
_WALKERS = {("weakmult", "term_to_poly"), ("weakmult", "family_of_term"),
            ("weakmult", "eval_term_m"), ("weakmult", "walk")}


def _is_node_name(name: str) -> bool:
    return name in _NODE_NAMES or (name[:1] == "T" and name[1:] in _NODE_NAMES)


def _node_classes(tree) -> set:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_node_name(node.name)}


def _term_walkers(node, fn="<module>"):
    """Names of the functions under `node` that test a value against a
    term node class with isinstance."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn = node.name
    found = set()
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(isinstance(c, ast.Name) and _is_node_name(c.id) for c in classes):
            found.add(fn)
    for child in ast.iter_child_nodes(node):
        found |= _term_walkers(child, fn)
    return found


def test_only_genpoly_defines_evaluates_and_prints_terms():
    src = Path(__file__).resolve().parents[1] / "src" / "gparith"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert _node_classes(trees["genpoly"]) == _NODES
    assert {(mod, cls) for mod, tree in trees.items() if mod != "genpoly"
            for cls in _node_classes(tree)} == set()
    assert {(mod, fn) for mod, tree in trees.items() if mod != "genpoly"
            for fn in _term_walkers(tree)} == _WALKERS
