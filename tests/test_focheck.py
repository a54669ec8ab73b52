import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gparith.errors import (
    ExprSyntaxError,
    PreconditionViolated,
    RangeOverflow,
    UnboundVariable,
)
from gparith._fastlane import BohrFast, QuadSeqFast
from gparith.exactnum import field_create
from gparith.focheck import (
    AlphaContext,
    BoundProfile,
    DEFAULT_BOUNDS,
    FAnd,
    FCmp,
    FExists,
    FForall,
    FImplies,
    FNot,
    FOr,
    Structure,
    def_mu,
    def_pi,
    def_psi,
    delta_bounded,
    ell,
    eval_formula,
    lemma36_characterisation,
    mu_formula,
    parse_formula,
    pretty_formula,
    progression,
    verify_lemma37,
    _has_partner,
    _partner_ranges,
)
from gparith.genpoly import (
    ROUNDING,
    Add,
    Apply,
    IntLit,
    Mul,
    Neg,
    SequenceHandle,
    Sub,
    Var,
    delta_sym,
)


class TestEvaluator:
    def test_exists(self):
        phi = parse_formula("exists x in [1,10]: x + x = 10")
        assert eval_formula(phi, {}, Structure())

    def test_forall_false(self):
        phi = parse_formula("forall x in [1,3]: x < 1")
        assert not eval_formula(phi, {}, Structure())

    def test_empty_ranges(self):
        assert not eval_formula(parse_formula("exists x in [5,4]: x = x"),
                                {}, Structure())
        assert eval_formula(parse_formula("forall x in [5,4]: x < x"),
                            {}, Structure())

    def test_sequences_and_relations(self, ctx):
        phi = parse_formula("exists x in [1,20]: g(x) = 30 and Q(x)")
        st = Structure(sequences={"g": ctx.g},
                       relations={"Q": lambda x: x % 5 == 0})
        assert eval_formula(phi, {}, st)  # x = 5: g(5) = 30

    def test_unbound_variable(self):
        phi = parse_formula("y < 3")
        with pytest.raises(UnboundVariable):
            eval_formula(phi, {}, Structure())

    def test_range_overflow(self):
        phi = parse_formula("exists x in [1, 99999999]: x = 1")
        with pytest.raises(RangeOverflow):
            eval_formula(phi, {}, Structure(), BoundProfile(max_range=1000))

    # names read only where a walk of the tree reads them: the lane of an
    # innermost quantifier must not raise for a name the walk never reaches
    @pytest.mark.parametrize("text, value", [
        ("exists x in [1, 0]: y = 0", False),
        ("forall x in [3, -3]: y = 0", True),
        ("exists x in [1, 3]: x = 1 or y = 0", True),
        ("forall x in [1, 3]: x > 3 => g(y) = 0", True),
    ])
    def test_unread_unbound_names(self, ctx, text, value):
        assert eval_formula(parse_formula(text), {}, Structure({"g": ctx.g})) is value

    @pytest.mark.parametrize("text, name", [
        ("exists x in [1, 3]: x = 5 or y = 0", "y"),
        ("forall x in [1, 3]: x < 2 and h(x) = 0", "sequence h"),
        ("exists x in [1, y]: x = 1", "y"),
    ])
    def test_unbound_name_where_the_walk_reads_it(self, ctx, text, name):
        with pytest.raises(UnboundVariable) as exc:
            eval_formula(parse_formula(text), {}, Structure({"g": ctx.g}))
        assert str(exc.value) == name

    @pytest.mark.parametrize("lane", [True, False])
    def test_range_overflow_before_any_body(self, lane):
        calls = []

        class Recorder:
            def __call__(self, n):
                calls.append(n)
                return n

        if lane:
            Recorder.g_vec = lambda self, ns: calls.extend(ns.tolist()) or ns
        phi = parse_formula("exists y in [1, 2]: exists x in [y, 2000*y]: r(x) = -1")
        with pytest.raises(RangeOverflow):
            eval_formula(phi, {}, Structure({"r": Recorder()}),
                         BoundProfile(max_range=3000))
        assert calls == list(range(1, 2001))  # y = 1 only

    def test_implication_and_not(self):
        phi = parse_formula("forall x in [1,9]: (x > 5) => x + 1 > 6")
        assert eval_formula(phi, {}, Structure())
        assert eval_formula(parse_formula("not 2 < 1"), {}, Structure())

    def test_parse_round_trip(self):
        texts = [
            "exists x in [1,10]: x + x = 10",
            "forall m in [1,3]: exists h in [m, 2*m]: g(h) != 0 or h <= m",
            "exists m in [1,8]: Q(m, 2*m, 3*m, 6*m) and m != 2",
            "not (1 < 2 and 3 < 2)",
        ]
        for text in texts:
            phi = parse_formula(text)
            assert parse_formula(pretty_formula(phi)) == phi

    def test_parse_error(self):
        with pytest.raises(ExprSyntaxError):
            parse_formula("exists x in [1 5]: x = 1")

    def test_monotone_caps(self, ctx):
        # enlarging an existential range never flips true to false;
        # enlarging a universal range never flips false to true
        st = Structure(sequences={"g": ctx.g})
        for cap in (200, 400, 1600):
            phi = FExists("n2", IntLit(100), IntLit(cap),
                          mu_formula(2, cap).body)
            val = {"n0": 5, "n1": 50}
            small = eval_formula(mu_formula(2, cap), val, st)
            big = eval_formula(mu_formula(2, 4 * cap), val, st)
            assert (not small) or big


class TestMuPsi:
    def test_mu_witness_pair(self, ctx):
        b = BoundProfile(n2_cap=5000)
        assert def_mu(5, 50, 2, b, ctx.g)

    def test_mu_violating_pair(self, ctx):
        b = BoundProfile(n2_cap=3000)
        assert not def_mu(2, 6, 2, b, ctx.g)

    def test_mu_empty_range(self, ctx):
        b = BoundProfile(n2_cap=10)  # cap below C*n1
        assert not def_mu(5, 50, 2, b, ctx.g)

    def test_psi_vacuous(self, ctx):
        assert def_psi(7, 0, 2, DEFAULT_BOUNDS, ctx.g)

    def test_psi_matches_hand_loop(self, ctx):
        # independent loop oracle over a bounded witness search
        b = BoundProfile(n2_cap=4000)
        g = ctx.g

        def mu_loop(n0, n1):
            return any(
                g(n0 + n1 + n2) - g(n1 + n2) - g(n0 + n2) - g(n0 + n1)
                + g(n0) + g(n1) + g(n2) - g(0) == 0
                for n2 in range(2 * n1, 4001))

        for m in (3, 4, 29):
            want = all(mu_loop(n, m) for n in range(1, 6))
            assert def_psi(m, 5, 2, b, g) == want

    def test_psi_window_equivalence_small(self, ctx):
        # eq-(3.8)-style window: membership matches the bounded search
        # (false instances refute within a short witness range here, so a
        # modest cap keeps the generic evaluator honest and quick)
        b = BoundProfile(n2_cap=2000)
        for N in (1, 3, 5):
            for m in range(1, 30):
                assert def_psi(m, N, 2, b, ctx.g) == ctx.in_window(m, N)


@pytest.mark.parametrize("name", ["cbrt2", "sqrt2"])
def test_in_window_matches_two_field_signs(name, cbrt2_field, sqrt2_field):
    # the scalar lane against the exact test it replaced: frac(alpha m)
    # compared with both window ends by field signs, on every m <= 3000 and
    # on m past int64, near 2^70 (the enclosure decides) and near 2^140
    # (its width passes 1, so every m falls back to the field)
    field = {"cbrt2": cbrt2_field, "sqrt2": sqrt2_field}[name]
    ctx = AlphaContext(field.theta, 1)
    far = [s * ((1 << e) + j) for e in (70, 140) for j in range(-20, 20) for s in (1, -1)]
    ms = list(range(-5, 3001)) + far
    hits = 0
    for N in [*range(1, 31), 60, 120]:
        lo, hi = ctx.window(N)
        for m in ms:
            s = ctx.frac_exact(m)
            want = (s - lo).sign() > 0 and (hi - s).sign() > 0
            assert ctx.in_window(m, N) == want, (m, N)
            hits += want
    assert hits > 0


class TestEllProgressionPi:
    def test_ell_unit_band(self, ctx):
        # norm in (1/4, 1/2] gives ell(k) = k; k = 2 has norm ~ 0.48
        assert ell(2, ctx.alpha) == 2

    def test_ell_example(self, ctx):
        assert ell(4, ctx.alpha) == 48

    def test_ell_multiple_of_k(self, ctx):
        for k in range(1, 40):
            assert ell(k, ctx.alpha) % k == 0

    def test_ell_unique_via_bounded_delta(self, ctx):
        # ell(k) is the unique n with delta(k, n) and not delta(k, n+k)
        for k in (2, 4, 7):
            L = ell(k, ctx.alpha)
            assert delta_bounded(k, L, ctx).value is True
            assert delta_bounded(k, L + k, ctx).value is False

    def test_progression(self, ctx):
        assert progression(4, 4, ctx.alpha).elements == [4]
        assert progression(4, 48, ctx.alpha).elements == list(range(4, 49, 4))
        with pytest.raises(PreconditionViolated):
            progression(4, 3, ctx.alpha)
        with pytest.raises(PreconditionViolated):
            progression(4, 52, ctx.alpha)  # beyond ell(4)

    def test_progression_matches_bounded_delta(self, ctx):
        # FO cross-check: P_{m,h} = {n in [m,h] : delta(m,n)} on a desk case
        m, h = 4, 48
        P = set(progression(m, h, ctx.alpha).elements)
        for n in range(m, h + 1):
            v = delta_bounded(m, n, ctx)
            assert v.value is not None
            assert (n in P) == v.value

    def test_pi_examples(self, ctx):
        assert def_pi(4, 48, ctx)
        assert not def_pi(4, 8, ctx)   # below the range clause
        assert not def_pi(4, 52, ctx)  # beyond ell

    def test_pi_from_progression_base(self, ctx):
        from gparith.diosearch import find_progression_base

        for r in (3, 5):
            w = find_progression_base(r, ctx.alpha, 1, 10**6)
            assert def_pi(w.m, r * w.m, ctx)


class TestLemma37:
    def test_true_instance(self, ctx):
        rep = verify_lemma37(4, 48, ctx)
        assert rep.closed_form and rep.side_constant_d2 and rep.holds
        # along P_{4,48}, g(4t) = 4 nint(4 alpha) t^2: second difference 8 nint(4 alpha)
        assert rep.a_value == 8 * (ctx.alpha * 4).nint()

    def test_precondition(self, ctx):
        with pytest.raises(PreconditionViolated):
            verify_lemma37(4, 8, ctx)

    def test_scaling_identity_on_witness(self, ctx):
        # on a progression-base instance g(tm) = t^2 g(m)
        from gparith.diosearch import find_progression_base

        w = find_progression_base(5, ctx.alpha, 1, 10**6)
        rep = verify_lemma37(w.m, 5 * w.m, ctx)
        g_m = ctx.g(w.m)
        assert rep.holds
        assert [ctx.g(t * w.m) for t in range(1, 6)] == [t * t * g_m for t in range(1, 6)]

    @pytest.mark.parametrize("mutant", [
        lambda g, n: n * n,
        lambda g, n: g + (n % 3 == 0),
    ], ids=["n-squared", "plus-one-where-3-divides"])
    def test_mutated_sequence_fails_the_cli_check(self, mutant, monkeypatch, capsys):
        from gparith._fastlane import QuadSeqFast
        from gparith.cli import main

        g_vec, g_scalar = QuadSeqFast.g_vec, QuadSeqFast.g_scalar
        monkeypatch.setattr(QuadSeqFast, "g_vec",
                            lambda self, n: mutant(g_vec(self, n), n))
        monkeypatch.setattr(QuadSeqFast, "g_scalar",
                            lambda self, n: int(mutant(g_scalar(self, n), n)))
        assert main(["verify", "3.7", "--m-max", "30", "--h-factor", "12"]) == 1
        assert '"verdict": "fail"' in capsys.readouterr().out


class TestDelta:
    @pytest.mark.parametrize("n,npr", [(4, 8), (5, 5), (3, 9), (2, 3), (7, 6),
                                       (12, 36), (10, 250)])
    def test_matches_characterisation(self, ctx, n, npr):
        v = delta_bounded(n, npr, ctx)
        assert v.value is not None
        assert v.value == lemma36_characterisation(n, npr, ctx)

    def test_divisible_needs_norm_bound(self, ctx):
        # 3 | 9 but 3 * ||3 alpha|| > 1/2, so the ratio of nearest
        # integers is off and the relation must refute
        assert not lemma36_characterisation(3, 9, ctx)
        assert delta_bounded(3, 9, ctx).value is False

    def test_literal_prefix_equals_monotone_collapse(self, ctx):
        # the nested prefix evaluated literally equals the single-pass
        # evaluation at the outermost caps (quantifier monotonicity)
        g = ctx.g
        caps = dict(H_cap=2, Mp_cap=4, M_cap=4, m_cap=120, mp_cap=400)

        def collapsed(n, npr):
            H, Mp, M = caps["H_cap"], caps["Mp_cap"], caps["M_cap"]
            for m in range(1, caps["m_cap"] + 1):
                if not ctx.in_window(m, M):
                    continue
                if not any(ctx.in_window(mp, Mp)
                           and abs(delta_sym(g, mp, n) - delta_sym(g, m, npr)) <= H
                           for mp in range(1, caps["mp_cap"] + 1)):
                    return False
            return True

        for (n, npr) in [(4, 8), (2, 3), (5, 5), (3, 9)]:
            lit = delta_literal(n, npr, ctx, **caps)
            assert lit == collapsed(n, npr)

    def test_converse_bound(self, ctx):
        # direct instance of the divisible-case bound |...| <= 2
        g = ctx.g
        n, t = 4, 3  # 3 * ||4 alpha|| < 1/2
        m = 4        # ||4 alpha|| ~ 0.0397 < all margins for t = 3
        assert abs(delta_sym(g, t * m, n) - delta_sym(g, m, t * n)) <= 2


def delta_literal(n: int, n_prime: int, ctx: AlphaContext, H_cap: int,
                  Mp_cap: int, M_cap: int, m_cap: int, mp_cap: int) -> bool:
    """Literal nested-prefix evaluation at (tiny) caps, for spot checks."""
    g = ctx.g

    def psi(m: int, N: int) -> bool:
        return ctx.in_window(m, N) if N >= 1 else True

    for H in range(1, H_cap + 1):
        ok_all_Mp = True
        for Mp in range(1, Mp_cap + 1):
            found_M = False
            for M in range(1, M_cap + 1):
                ok_all_m = True
                for m in range(1, m_cap + 1):
                    if not psi(m, M):
                        continue
                    if not any(psi(mp, Mp)
                               and abs(delta_sym(g, mp, n) - delta_sym(g, m, n_prime)) <= H
                               for mp in range(1, mp_cap + 1)):
                        ok_all_m = False
                        break
                if ok_all_m:
                    found_M = True
                    break
            if not found_M:
                ok_all_Mp = False
                break
        if ok_all_Mp:
            return True
    return False


class TestPartnerInterval:
    """The m' candidate ranges behind REFUTED verdicts of the delta relation."""

    @staticmethod
    def _alphas(cbrt2_field, sqrt2_field):
        c, r = cbrt2_field.theta, sqrt2_field.theta
        # kappa_e = alpha n + nint(alpha n) + e is negative for alpha < 0,
        # and near or below 0 for small |alpha| at small n
        return {"cbrt2": c, "-cbrt2": -c, "sqrt2-1": r - 1, "1-sqrt2": 1 - r}

    @pytest.mark.parametrize("name,beta", [("cbrt2", 1), ("cbrt2", 2), ("cbrt2", -1),
                                           ("-cbrt2", 1), ("sqrt2-1", 3),
                                           ("1-sqrt2", 1)])
    def test_ranges_hold_every_partner(self, cbrt2_field, sqrt2_field, name, beta):
        ctx = AlphaContext(self._alphas(cbrt2_field, sqrt2_field)[name], beta)
        g = ctx.g
        rng = random.Random(f"{name}/{beta}")
        top = 2500
        partners = 0
        for _ in range(6):
            n, npr, m = rng.randrange(1, 12), rng.randrange(1, 25), rng.randrange(1, 60)
            Mp, H = rng.choice([1, 2, 4, 8]), rng.choice([3, 40, 400])
            d2 = delta_sym(g, m, npr)
            ranges = _partner_ranges(n, d2, ctx, Mp, H)
            found = [mp for mp in range(1, top + 1) if ctx.in_window(mp, Mp)
                     and abs(delta_sym(g, mp, n) - d2) <= H]
            partners += len(found)
            for mp in found:
                assert any(mp in r for r in ranges), (n, npr, m, Mp, H, mp, ranges)
            if found or all(r.stop <= top + 1 for r in ranges):
                assert _has_partner(n, npr, m, ctx, Mp, H) == bool(found)
        assert partners > 0

    @pytest.mark.parametrize("beta", [1, 2, -1])
    @pytest.mark.parametrize("name", ["cbrt2", "-cbrt2", "sqrt2-1", "1-sqrt2"])
    def test_cached_enclosures_are_keyed_by_n_and_level(self, cbrt2_field, sqrt2_field,
                                                        name, beta):
        # one context across interleaved (n, M', d2, H) calls gives the
        # ranges of a fresh context at every call
        alpha = self._alphas(cbrt2_field, sqrt2_field)[name]
        shared = AlphaContext(alpha, beta)
        rng = random.Random(f"cache/{name}/{beta}")
        for _ in range(40):
            n, Mp = rng.choice([1, 2, 5, 11]), rng.choice([1, 4, 8])
            d2, H = rng.randrange(-3000, 3000), rng.choice([0, 3, 40, 400])
            assert (_partner_ranges(n, d2, shared, Mp, H)
                    == _partner_ranges(n, d2, AlphaContext(alpha, beta), Mp, H)), (n, Mp, d2, H)
        assert len(shared._partner_cache) <= 12

    def test_zero_beta(self, alpha):
        ctx = AlphaContext(alpha, 0)
        assert _has_partner(3, 5, 7, ctx, 4, 0)


# ---------------------------------------------------------------------------
# The compiled evaluator against a walk of the tree
# ---------------------------------------------------------------------------

_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
_CMPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
         "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def ref_term(t, env, seqs):
    if isinstance(t, IntLit):
        return t.value
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(t.name)
        return env[t.name]
    if isinstance(t, Apply):
        fn = ROUNDING.get(t.fn) or seqs.get(t.fn)
        if fn is None:
            raise UnboundVariable(f"sequence {t.fn}")
        return fn(ref_term(t.arg, env, seqs))
    if isinstance(t, Neg):
        return -ref_term(t.arg, env, seqs)
    return _OPS[type(t)](ref_term(t.lhs, env, seqs), ref_term(t.rhs, env, seqs))


def ref_formula(phi, env, seqs):
    if isinstance(phi, FCmp):
        return _CMPS[phi.op](ref_term(phi.lhs, env, seqs), ref_term(phi.rhs, env, seqs))
    if isinstance(phi, FNot):
        return not ref_formula(phi.body, env, seqs)
    if isinstance(phi, FAnd):
        return ref_formula(phi.lhs, env, seqs) and ref_formula(phi.rhs, env, seqs)
    if isinstance(phi, FOr):
        return ref_formula(phi.lhs, env, seqs) or ref_formula(phi.rhs, env, seqs)
    if isinstance(phi, FImplies):
        return not ref_formula(phi.lhs, env, seqs) or ref_formula(phi.rhs, env, seqs)
    lo, hi = ref_term(phi.lo, env, seqs), ref_term(phi.hi, env, seqs)
    want = isinstance(phi, FExists)
    return any(ref_formula(phi.body, {**env, phi.var: v}, seqs) == want
               for v in range(lo, hi + 1)) == want


NAMES = ("x", "y")
small_lit = st.integers(-4, 4).map(IntLit)
name = st.sampled_from(NAMES).map(Var)
# affine and nonlinear arguments of g, gb and a rounding function (which
# keeps its comparison off the lane)
argument = st.one_of(name, st.builds(lambda c, v, d: Add(Mul(c, v), d), small_lit, name, small_lit),
                     st.builds(lambda v, w, d: Sub(Mul(v, w), d), name, name, small_lit))
applied = st.builds(Apply, st.sampled_from(["g", "g", "gb", "nint"]), argument)
# literals up to 2^62 make int64 guards fail: such blocks are decided exactly
big_lit = st.one_of(st.integers(-2**62, 2**62), st.sampled_from([2**62, -2**62])).map(IntLit)
term_leaf = st.one_of(small_lit, small_lit, small_lit, name, name, name, applied, applied, applied,
                      big_lit)
terms = st.recursive(term_leaf, lambda sub: st.one_of(
    st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
    st.builds(Neg, sub)), max_leaves=3)
comparisons = st.builds(FCmp, st.sampled_from(sorted(_CMPS)), terms, terms)


def connectives(sub):
    return st.one_of(st.builds(FNot, sub), st.builds(FAnd, sub, sub),
                     st.builds(FOr, sub, sub), st.builds(FImplies, sub, sub))


def quantified(body):
    # ranges of up to 17 values, some empty; names are reused
    lows = st.one_of(st.integers(-8, 2).map(IntLit), st.builds(Sub, name, small_lit))
    highs = st.one_of(st.integers(-2, 8).map(IntLit), st.builds(Add, name, small_lit))
    return st.builds(lambda q, v, lo, hi, b: q(v, lo, hi, b),
                     st.sampled_from([FExists, FForall]), st.sampled_from(NAMES),
                     lows, highs, body)


matrices = st.recursive(comparisons, connectives, max_leaves=3)
formulas = st.one_of(
    quantified(st.one_of(matrices, quantified(matrices))),
    st.recursive(comparisons, lambda sub: st.one_of(connectives(sub), quantified(sub)),
                 max_leaves=4))
# every name bound in about half of the draws
valuations = st.one_of(st.fixed_dictionaries({n: st.integers(-5, 5) for n in NAMES}),
                       st.dictionaries(st.sampled_from(NAMES), st.integers(-5, 5)))


def _outcome(run):
    try:
        return run()
    except UnboundVariable as exc:
        return f"unbound {exc}"


@settings(max_examples=300, deadline=None)
@given(phi=formulas, valuation=valuations, plain_g=st.booleans())
@example(phi=parse_formula("exists x in [1, 3]: "
                           "x*4000000000*4000000000*4000000000 = 128000000000000000000000000000"),
         valuation={}, plain_g=False)
@example(phi=parse_formula("forall x in [-2, 2]: 4611686018427387904 + 4611686018427387904 - x"
                           " > g(x*x) or gb(3*x + 1) = 1"),
         valuation={}, plain_g=False)
def test_compiled_evaluator_matches_a_walk(alpha, sqrt2, phi, valuation, plain_g):
    g = QuadSeqFast(alpha, 1)
    seqs = {"g": (lambda n: g(n)) if plain_g else g,
            "gb": BohrFast(sqrt2, Fraction(1, 5))}
    want = _outcome(lambda: ref_formula(phi, valuation, seqs))
    got = _outcome(lambda: eval_formula(phi, dict(valuation), Structure(seqs)))
    assert got == want and type(got) is type(want)


# the psi request of the benchmark's exact-verdicts workload
BENCH_PSI = ("forall n in [1, 30]: exists n2 in [2*m, 10000]: "
             "g(n+m+n2) - g(n+n2) - g(m+n2) + g(n2) - g(n+m) + g(n) + g(m) - g(0) = 0")


def test_psi_scan_reads_g_through_its_lane(alpha, monkeypatch):
    expected = AlphaContext(alpha, 1).in_window(5, 30)
    misses = []
    fresh = SequenceHandle._fresh

    def counted(self, n):
        misses.append(n)
        return fresh(self, n)

    monkeypatch.setattr(SequenceHandle, "_fresh", counted)
    value = eval_formula(parse_formula(BENCH_PSI), {"m": 5},
                         Structure({"g": QuadSeqFast(alpha, 1)}))
    assert value is expected
    # a walk of the tree misses once per n2 (10,001 times): the lane reads
    # only the terms free of n2 exactly
    assert 0 < len(misses) <= 30
