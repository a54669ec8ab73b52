"""Lemma verification harnesses.

Each verify_* function runs one property-based check at configurable scale
and returns a HarnessResult whose records serialise to JSON lines:
{"lemma": ..., "instance": ..., "verdict": ..., "witness": ..., "caps": ...}.
Verdicts are pass/fail for exact checks and verified-in-range /
refuted-in-range / cap-exhausted for bounded formula evaluations; only
fail counts as a violation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

import numpy as np

from . import bohr as bohr_mod
from ._fastlane import FastConst, enclosure
from .diosearch import (
    DEFAULT_SEED,
    calibrate_C,
    continued_fraction,
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
    lemma32_columns,
    lemma32_scan,
    weyl_witnesses,
)
from .errors import CalibrationFailed, NotFoundWithinBudget
from .exactnum import AlgebraicReal
from .focheck import (
    CAP_EXHAUSTED,
    AlphaContext,
    BoundProfile,
    DEFAULT_BOUNDS,
    def_pi,
    delta_bounded,
    ell,
    lemma36_characterisation,
    pretty_formula,
    progression_d2,
)
from .genpoly import (
    GAMMA_ALL_PAIRS,
    GAMMA_OFF_DIAGONAL,
    SequenceHandle,
    delta_sym,
    delta_sym_iter,
)
from .weakmult import (
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
    family_domain_ok,
    family_F,
    import_csv,
    is_sign_closed,
    parse_poly,
    poly_to_term,
    term_to_poly,
)

# Fixed scales of the harnesses.  Lemma 3.3: mu(n, m) is a Lemma 3.2 scan
# of n2 in [C*m, C*m + _EXTEND_CAP].
_EXTEND_CAP = 200_000
_LEMMA42_NS = (6, 10, 14)
# Lemma 4.3: norm(alpha m^2) < _GOOD_EPS for the converse m; the control
# scans m <= _BAD_SCAN with norm(alpha m^2) >= _BAD_NORM_FLOOR.
_GOOD_EPS = Fraction(1, 300)
_BAD_NORM_FLOOR = 0.3
_BAD_SCAN = 40
_LEMMA44_PAIRS = ((3, 3), (5, 5), (2, 6), (3, 7))


@dataclass
class HarnessResult:
    """Records of one harness run; `vacuous` (kept out of the JSON report)
    marks a check that passed on an empty premise set."""

    lemma: str
    records: list = dc_field(default_factory=list)
    violations: int = 0
    cap_exhausted: int = 0
    summary: dict = dc_field(default_factory=dict)
    vacuous: bool = False

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def add(self, instance, verdict: str, witness=None, caps=None) -> None:
        rec = {"lemma": self.lemma, "instance": instance, "verdict": verdict}
        if witness is not None:
            rec["witness"] = witness
        if caps is not None:
            rec["caps"] = caps
        self.records.append(rec)
        if verdict == "fail":
            self.violations += 1
        elif verdict == CAP_EXHAUSTED:
            self.cap_exhausted += 1


def emit_jsonl(result: HarnessResult, fp, runtime_ms: float | None = None) -> None:
    """One JSON line per record plus a summary line; runtime only on request
    so default reports are byte-identical across runs."""
    for rec in result.records:
        fp.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
    summary = {"lemma": result.lemma, "summary": result.summary,
               "violations": result.violations,
               "cap_exhausted": result.cap_exhausted}
    if runtime_ms is not None:
        summary["runtime_ms"] = int(runtime_ms)
    fp.write(json.dumps(summary, sort_keys=True, default=str) + "\n")


def _alg_str(x) -> str:
    if isinstance(x, AlgebraicReal):
        return f"{[str(c) for c in x.coeffs]}~{float(x):.6g}"
    return str(x)


# ---------------------------------------------------------------------------
# Numeric core soundness (acceptance criterion 1)
# ---------------------------------------------------------------------------


_ORACLE_BITS = 64
_ORACLE_CAP = 4096


class CoreOracle:
    """floor, nint and sign in Q(theta), decided apart from the exact core.

    theta is bisected on the signs of the integer minimal polynomial from the
    interval the field was constructed with (Collins & Akritas 1976), and
    sum c_i theta^i is evaluated by interval Horner over integer numerators
    (Moore 1966).  It reads no field attribute but `minpoly_int` and
    `interval`, and no enclosure or decision of the core.
    """

    def __init__(self, field) -> None:
        self.minpoly = field.minpoly_int
        (a, b), (c, d) = (Fraction(v).as_integer_ratio() for v in field.interval)
        # theta in [L/D, H/D], bisected to width at most 2^-bits
        self.theta, self.bits = (a * d, c * b, b * d), 0
        # the minimal polynomial at L, whose sign bisection keeps; 0 if theta = L
        self._at_lo = self._value(a * d, b * d)

    def _value(self, a: int, b: int) -> int:
        """b^deg times the minimal polynomial at a/b."""
        deg = len(self.minpoly) - 1
        return sum(k * a**i * b**(deg - i) for i, k in enumerate(self.minpoly))

    def decide(self, coeffs) -> tuple[int, int, int] | None:
        """(floor, nint, sign) of sum coeffs[i] * theta^i.  Bits double from
        _ORACLE_BITS, or from the bits theta has reached, while the two ends
        decide differently; None when they still do at _ORACLE_CAP."""
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        bits = max(self.bits, _ORACLE_BITS)
        while bits <= _ORACLE_CAP:
            L, H, D = self.theta
            while (H - L) << bits > D:
                mid, D = L + H, 2 * D
                v = self._value(mid, D)
                if v == 0:
                    L = H = mid  # a root: theta is this point
                elif v * self._at_lo > 0:
                    L, H = mid, 2 * H
                else:
                    L, H = 2 * L, mid
            self.theta, self.bits = (L, H, D), bits
            # (lo, hi) over den * D^j after j steps
            lo = hi = nums[-1]
            for j, k in enumerate(reversed(nums[:-1]), 1):
                t = (lo * L, lo * H, hi * L, hi * H)
                lo, hi = min(t) + k * D**j, max(t) + k * D**j
            scale = den * D ** (len(nums) - 1)
            ends = [(v // scale, (2 * v + scale) // (2 * scale), (v > 0) - (v < 0))
                    for v in (lo, hi)]
            if ends[0] == ends[1]:
                return ends[0]
            bits *= 2
        return None


def verify_numeric_core(field, count: int = 1000,
                        seed: int = DEFAULT_SEED) -> HarnessResult:
    """Random field elements: floor, nint and sign from the exact core must
    equal CoreOracle's, and frac_signed must lie in [-1/2, 1/2).  The first
    ceil(count/2) have uniform coefficients; the rest have c0 set so that
    the element lies in [r, r + 1) * 2^-e, |r| < 2^20, 40 <= e < 240."""
    res = HarnessResult("numeric-core")
    rng = random.Random(seed)
    oracle = CoreOracle(field)
    half = Fraction(1, 2)
    for i in range(count):
        coeffs = [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
                  for _ in range(field.degree)]
        if 2 * i >= count:
            e, r = rng.randrange(40, 240), rng.randrange(1 - (1 << 20), 1 << 20)
            y = oracle.decide([0, *(c * (1 << e) for c in coeffs[1:])])
            if y is not None:
                coeffs[0] = Fraction(r - y[0], 1 << e)
        want = oracle.decide(coeffs)
        x = field.element(coeffs)
        got = (x.floor(), x.nint(), x.sign())
        f = x.frac_signed()
        frac_ok = (f + half).sign() >= 0 and (half - f).sign() > 0
        if want != got or not frac_ok:
            res.add({"i": i, "coeffs": [str(c) for c in coeffs]},
                    CAP_EXHAUSTED if want is None and frac_ok else "fail",
                    witness={"core": got, "oracle": want})
    res.summary = {"count": count, "failures": res.violations}
    res.add({"count": count},
            "fail" if res.violations else CAP_EXHAUSTED if res.cap_exhausted else "pass",
            caps={"oracle_bits": _ORACLE_BITS, "oracle_cap": _ORACLE_CAP})
    return res


# ---------------------------------------------------------------------------
# Lemma 2.2 (dilation identity) and the term/polynomial round trip
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random, arity: int, deg: int, coeff: int) -> IntPolynomial:
    entries: dict = {}
    for _ in range(rng.randrange(1, 8)):
        e = [0] * arity
        for _ in range(rng.randrange(0, deg + 1)):
            e[rng.randrange(arity)] += 1
        if sum(e) > deg:
            continue
        c = rng.randrange(-coeff, coeff + 1)
        if c:
            e_t = tuple(e)
            entries[e_t] = entries.get(e_t, 0) + c
    return IntPolynomial._normalise(arity, entries)


def verify_lemma22(count: int = 500, seed: int = DEFAULT_SEED, arity_max: int = 3,
                   deg_max: int = 3, coeff_max: int = 5, n_max: int = 5,
                   m_values: tuple = (1, 2, 3)) -> HarnessResult:
    """Round trip term<->polynomial plus the scaled-evaluation identity
    t_m(m n) = m p(n) under the family domain condition, on random polys."""
    res = HarnessResult("2.2")
    rng = random.Random(seed)
    Q = SyntheticQSet(m_max=max(m_values), k_max=10**9)
    rt_bad = contract_bad = checked = 0
    for i in range(count):
        arity = rng.randrange(1, arity_max + 1)
        p = _random_poly(rng, arity, deg_max, coeff_max)
        t = poly_to_term(p)
        if term_to_poly(t, arity) != p:
            rt_bad += 1
            res.add({"i": i, "poly": str(p)}, "fail", witness="roundtrip")
            continue
        fam = family_F(p)
        for m in m_values:
            args = [rng.randrange(-n_max, n_max + 1) for _ in range(arity)]
            if not family_domain_ok(fam, m, args, Q):
                continue
            checked += 1
            got = eval_term_m(t, m, [m * a for a in args], Q)
            want = m * p.eval(args)
            if got != want:
                contract_bad += 1
                res.add({"i": i, "poly": str(p), "m": m, "args": args},
                        "fail", witness={"got": got, "want": want})
    res.summary = {"count": count, "contract_checked": checked,
                   "roundtrip_failures": rt_bad, "contract_failures": contract_bad}
    res.add({"count": count}, "pass" if res.violations == 0 else "fail")
    return res


# ---------------------------------------------------------------------------
# Lemma 3.1 calibration (acceptance criterion 2)
# ---------------------------------------------------------------------------


def verify_lemma31(alpha: AlgebraicReal, beta, samples: int = 10_000,
                   seed: int = DEFAULT_SEED) -> HarnessResult:
    """Calibrate the admissibility constant and run the negative control."""
    res = HarnessResult("3.1")
    try:
        cal = calibrate_C(alpha, beta, samples, seed=seed)
    except CalibrationFailed as exc:
        res.add({"samples": samples}, "fail", witness=str(exc))
        return res
    res.summary = {
        "C": cal.C, "gamma_mode": cal.gamma_mode,
        "modes_indistinguishable": cal.modes_indistinguishable,
        "failures": {f"C={c},{m}": v for (c, m), v in sorted(cal.failures.items())},
        "samples": samples,
    }
    res.add({"samples": samples}, "pass",
            witness={"C": cal.C, "gamma_mode": cal.gamma_mode})

    # negative control: either the opposite mode distinguishes itself with
    # failures, or the run is reported indistinguishable; a quarter constant
    # must likewise fail when the schedule recorded it
    other = (GAMMA_OFF_DIAGONAL if cal.gamma_mode == GAMMA_ALL_PAIRS
             else GAMMA_ALL_PAIRS)
    other_fail = cal.failures.get((cal.C, other), 0)
    quarter_fail = cal.failures.get((cal.C // 4, cal.gamma_mode))
    control_ok = (other_fail >= 1 or cal.modes_indistinguishable
                  or (quarter_fail is not None and quarter_fail >= 1))
    res.add({"control": "opposite-mode-or-quarter-C"},
            "pass" if control_ok else "fail",
            witness={"opposite_mode_failures": other_fail,
                     "indistinguishable": cal.modes_indistinguishable,
                     "quarter_C_failures": quarter_fail})
    return res


# ---------------------------------------------------------------------------
# Lemma 3.2 witnesses (acceptance criterion 3)
# ---------------------------------------------------------------------------


def verify_lemma32(ctx: AlphaContext, C: int = 2, n_pairs: int = 100,
                   wit_cap: int = 10**6, neg_cap: int = 10**5,
                   seed: int = DEFAULT_SEED) -> HarnessResult:
    """Witnesses exist (and re-verify) for admissible pairs; violating pairs
    have certified-empty scan ranges."""
    res = HarnessResult("3.2")
    rng = random.Random(seed)
    g = ctx.g

    pos = neg = 0
    sampled = set()
    while pos < n_pairs or neg < n_pairs:
        n0 = rng.randrange(C, 60)
        n1 = C * n0 + rng.randrange(0, 40 * n0)
        if (n0, n1) in sampled or n1 < C * n0:
            continue
        sampled.add((n0, n1))
        s = ctx.frac_exact(n0) + ctx.frac_exact(n1)
        cond = (abs(s) - Fraction(1, 2)).sign() < 0
        if cond and pos < n_pairs:
            pos += 1
            w = lemma32_scan(n0, n1, C * n1, wit_cap, g)
            if w is None:
                res.add({"n0": n0, "n1": n1}, "fail", witness="no-witness")
            else:
                ok = delta_sym_iter(g, [n0, n1, w]) == 0
                res.add({"n0": n0, "n1": n1}, "pass" if ok else "fail",
                        witness={"n2": w})
        elif not cond and neg < n_pairs:
            neg += 1
            w = lemma32_scan(n0, n1, C * n1, neg_cap, g)
            res.add({"n0": n0, "n1": n1, "violating": True},
                    "pass" if w is None else "fail",
                    witness=None if w is None else {"unexpected_n2": w})
    res.summary = {"positive_pairs": pos, "negative_pairs": neg, "C": C,
                   "wit_cap": wit_cap, "neg_cap": neg_cap}
    return res


# ---------------------------------------------------------------------------
# Lemma 3.3 window equivalence (acceptance criterion 4)
# ---------------------------------------------------------------------------


def _psi_table(g: SequenceHandle, C: int, N_max: int, m_max: int) -> np.ndarray:
    """psi[n-1, m] = AND over n' <= n of mu(n', m), where mu(n, m) holds when
    some n2 in [C*m, C*m + _EXTEND_CAP] has the second symmetric derivative
    of g vanishing at (n, m, n2): `lemma32_columns`.  Column 0 is False."""
    return lemma32_columns(N_max, m_max, C, _EXTEND_CAP, g)


def verify_lemma33(ctx: AlphaContext, C: int = 2, N_max: int = 30,
                   m_max: int = 10_000) -> HarnessResult:
    """Bounded psi membership equals the exact fractional-part window for
    every m <= m_max and N <= N_max; window endpoints move monotonically."""
    res = HarnessResult("3.3")
    ctx.g.residues(C * m_max + _EXTEND_CAP + N_max + m_max)  # one growth for the whole extent
    psi_tab = _psi_table(ctx.g, C, N_max, m_max)

    ms = np.arange(1, m_max + 1, dtype=np.int64)
    mismatches = 0
    for N in range(1, N_max + 1):
        member = ctx.g.const.within(ms, *ctx.window(N))  # index m - 1
        for m in np.nonzero(psi_tab[N - 1, 1:] != member)[0] + 1:
            mismatches += 1
            res.add({"N": N, "m": int(m)}, "fail",
                    witness={"psi": bool(psi_tab[N - 1, m]),
                             "window": bool(member[m - 1])})
    res.add({"N_max": N_max, "m_max": m_max}, "pass" if mismatches == 0 else "fail",
            caps={"C": C, "extend_cap": _EXTEND_CAP})

    mono_bad = 0
    for N in range(1, N_max):
        lo1, hi1 = ctx.window(N)
        lo2, hi2 = ctx.window(N + 1)
        if (lo2 - lo1).sign() < 0 or (hi1 - hi2).sign() < 0:
            mono_bad += 1
            res.add({"N": N, "check": "monotone-window"}, "fail")
    res.add({"check": "monotone-window"}, "pass" if mono_bad == 0 else "fail")
    res.summary = {"N_max": N_max, "m_max": m_max, "mismatches": mismatches,
                   "monotonicity_failures": mono_bad}
    return res


# ---------------------------------------------------------------------------
# Lemma 3.4 equidistribution (acceptance criterion 5)
# ---------------------------------------------------------------------------


def verify_lemma34(alpha: AlgebraicReal, abcd=(1, 2, 3, 1), N: int = 200_000,
                   M: int = 1_000_000, grid: int = 20, tol: float = 0.02,
                   seed: int = DEFAULT_SEED) -> HarnessResult:
    res = HarnessResult("3.4")
    a, b, c, d = abcd
    rep = equidist_check(alpha, a, b, c, d, N=N, M=M, grid=grid, seed=seed)
    sums_ok = (int(rep.orbit_hist.sum()) == N and int(rep.push_hist.sum()) == M)
    ok = rep.discrepancy <= tol and rep.origin_fraction > 0 and sums_ok
    res.add({"abcd": list(abcd), "N": N, "M": M, "grid": grid},
            "pass" if ok else "fail",
            witness={"discrepancy": rep.discrepancy,
                     "origin_fraction": rep.origin_fraction,
                     "theta": rep.theta_float},
            caps={"tolerance": tol, "seed": seed})
    res.summary = {"discrepancy": rep.discrepancy,
                   "origin_fraction": rep.origin_fraction, "tolerance": tol}
    return res


# ---------------------------------------------------------------------------
# Lemmas 3.5/3.6 divisibility characterisation (acceptance criterion 6)
# ---------------------------------------------------------------------------


def verify_lemma36(ctx: AlphaContext, n_max: int = 50, nprime_max: int = 600,
                   bounds: BoundProfile = DEFAULT_BOUNDS) -> HarnessResult:
    res = HarnessResult("3.5/3.6")
    mismatches = capx = 0
    for n in range(1, n_max + 1):
        for npr in range(1, nprime_max + 1):
            v = delta_bounded(n, npr, ctx, bounds)
            char = lemma36_characterisation(n, npr, ctx)
            if v.value is None:
                capx += 1
                res.add({"n": n, "n_prime": npr}, CAP_EXHAUSTED,
                        witness=v.detail)
            elif v.value != char:
                mismatches += 1
                res.add({"n": n, "n_prime": npr}, "fail",
                        witness={"bounded": v.value, "characterisation": char,
                                 "detail": v.detail})
    res.add({"n_max": n_max, "nprime_max": nprime_max},
            "pass" if mismatches == 0 else "fail",
            caps={"H_cap": bounds.H_cap, "M_cap": bounds.M_cap})
    res.summary = {"pairs": n_max * nprime_max, "mismatches": mismatches,
                   "cap_exhausted": capx}
    return res


def verify_converse34(ctx: AlphaContext, count: int = 1000,
                      seed: int = DEFAULT_SEED) -> HarnessResult:
    """Divisible instances built from the quantitative margins satisfy
    |D g(n, m') - D g(n', m)| <= 2 exactly."""
    res = HarnessResult("3.4-converse")
    rng = random.Random(seed)
    g = ctx.g
    qs = [q for _, q in continued_fraction(ctx.alpha, 30).convergents() if q > 1]
    half = Fraction(1, 2)

    def norm_below(r: Fraction):
        """The test k -> norm(alpha k) < r <= 1/2, on the scalar lane of alpha."""
        ends = (enclosure(-r), enclosure(r))
        return lambda k: g.const.within_scalar(k, -r, r, ends)

    bad = built = 0
    attempts = 0
    while built < count and attempts < 50 * count:
        attempts += 1
        n = rng.randrange(1, 300)
        t = rng.randrange(2, 13)
        if not norm_below(Fraction(1, 2 * t))(n):
            continue
        nrm = abs(ctx.frac_exact(n))
        # rational eps below all three margins
        eps = min(half / t, *(b.enclosure(24)[0]
                              for b in (half - t * nrm, (half - nrm) * Fraction(1, t)))) / 2
        if eps <= 0:
            continue
        m = next(filter(norm_below(eps), qs), None)
        if m is None:
            continue
        built += 1
        diff = abs(delta_sym(g, t * m, n) - delta_sym(g, m, t * n))
        if diff > 2:
            bad += 1
            res.add({"n": n, "t": t, "m": m}, "fail", witness={"diff": diff})
    res.add({"instances": built}, "pass" if bad == 0 else "fail")
    res.summary = {"instances": built, "failures": bad}
    return res


def verify_lemmas35_36(ctx: AlphaContext, n_max: int = 50, nprime_max: int = 600,
                       bounds: BoundProfile = DEFAULT_BOUNDS, count: int = 1000,
                       seed: int = DEFAULT_SEED) -> HarnessResult:
    """verify_lemma36 followed by the records of verify_converse34, whose
    summary goes under "converse"."""
    res = verify_lemma36(ctx, n_max, nprime_max, bounds)
    conv = verify_converse34(ctx, count, seed)
    res.records.extend(conv.records)
    res.violations += conv.violations
    res.summary["converse"] = conv.summary
    return res


# ---------------------------------------------------------------------------
# Lemma 3.7 (acceptance criterion 7)
# ---------------------------------------------------------------------------


def verify_lemma37_range(ctx: AlphaContext, m_max: int = 100,
                         h_factor: int = 30) -> HarnessResult:
    """`focheck.verify_lemma37` on every instance 3m <= h <= min(h_factor*m,
    ell(m)) = T_hi*m, m <= m_max, from one read of each P_{m,T_hi}: the
    instances with one T = h // m check the prefix P_{m,T}."""
    res = HarnessResult("3.7")
    bad = count = 0
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    Ts = ctx.g.const.half_inverse_norm(ms, h_factor)
    ms, Ts = ms[Ts >= 3], Ts[Ts >= 3]
    gv, off, a, run = progression_d2(ctx, ms, Ts)
    # the closed form g(tm) = beta t^2 m nint(alpha m), with nint decided in
    # exactnum; first[i] is the least t >= 1 where it fails, or T_hi + 1
    lead = np.array([ctx.beta * m * (ctx.alpha * m).nint() for m in ms.tolist()], dtype=object)
    t = np.arange(off[-1]) - off[:-1].repeat(Ts + 1)
    wrong = (gv != lead.repeat(Ts + 1) * t * t) & (t > 0)
    first = np.minimum.reduceat(np.where(wrong, t, (Ts + 1).repeat(Ts + 1)), off[:-1])
    for m, T_hi, a_m, run_m, first_m in zip(*(x.tolist() for x in (ms, Ts, a, run, first))):
        count += (T_hi - 3) * m + 1
        # P_{m,T} keeps the closed form for T < first_m, and its second
        # differences, a prefix of those of P_{m,T_hi}, are constant and
        # nonzero for T <= run_m + 2; so every T from the first failure fails
        for T in range(max(3, min(first_m, run_m + 3 if a_m else 3)), T_hi + 1):
            hs = range(T * m, min(T * m + m, T_hi * m + 1))
            bad += len(hs)
            for h in hs:
                res.add({"m": m, "h": h}, "fail",
                        witness={"closed_form": T < first_m,
                                 "d2_side": a_m != 0 and T <= run_m + 2})
    res.add({"m_max": m_max, "h_factor": h_factor}, "pass" if bad == 0 else "fail")
    res.vacuous = count == 0
    res.summary = {"instances": count, "failures": bad}
    return res


# ---------------------------------------------------------------------------
# Lemma 3.8 progression bases (acceptance criterion 8)
# ---------------------------------------------------------------------------


def verify_lemma38(ctx: AlphaContext, rs=tuple(range(2, 9)),
                   budget_cap: int = 10**7) -> HarnessResult:
    """Progression bases exist for each r, and their progressions are
    admissible with exact quadratic scaling.

    r = 2 produces a length-2 progression, below the range clause of the
    admissibility formula (which starts at 3m); its content degenerates to
    the range-feasibility bound, checked directly.
    """
    res = HarnessResult("3.8")
    g = ctx.g
    for r in rs:
        try:
            w = find_progression_base(r, ctx.alpha, ctx.beta, budget_cap)
        except NotFoundWithinBudget as exc:
            res.add({"r": r}, "fail", witness=str(exc))
            continue
        m = w.m
        if r >= 3:
            pi_ok = def_pi(m, r * m, ctx)
            pi_note = pi_ok
        else:
            pi_ok = ell(m, ctx.alpha) >= r * m
            pi_note = "vacuous-range"
        quad_ok = all(g(t * m) == t * t * g(m) for t in range(1, r + 1))
        res.add({"r": r}, "pass" if (pi_ok and quad_ok) else "fail",
                witness={"m": m,
                         "alpha_norm": _alg_str(w.achieved["alpha_norm"]),
                         "pi": pi_note, "quadratic_scaling": quad_ok},
                caps={"budget": budget_cap})
    res.summary = {"rs": list(rs)}
    return res


# ---------------------------------------------------------------------------
# Q axioms (acceptance criterion 9)
# ---------------------------------------------------------------------------


def verify_q1_csv(source: str) -> HarnessResult:
    """Q1 on the quadruple CSV file `source`."""
    rep = check_Q1(import_csv(source))
    res = HarnessResult("Q1")
    res.add({"source": source, "quadruples": rep.total},
            "pass" if not rep.violations else "fail",
            witness={"violations": rep.violations[:5]})
    res.summary = {"quadruples": rep.total}
    res.vacuous = rep.total == 0
    return res


def verify_q_axioms(ctx: AlphaContext, m_max: int = 10_000, h_factor: int = 1000,
                    F=tuple((k, l) for k in range(1, 5) for l in range(1, 5))
                    ) -> HarnessResult:
    """Q1, Q2 and sign closure on the quadruples built from ctx."""
    res = HarnessResult("Q1/Q2")
    Q = build_Q(ctx, m_max, h_factor)
    rep = check_Q1(Q)
    violations = Q.short_runs + rep.violations
    res.add({"check": "Q1", "quadruples": rep.total},
            "pass" if not violations else "fail",
            witness={"violations": violations[:5], "commutes": commutes(Q)})
    m2 = check_Q2(Q, F)
    res.add({"check": "Q2", "F": sorted(F)}, "pass" if m2 is not None else "fail",
            witness={"m": m2})
    Qpm = close_pm(Q)
    rep_pm = check_Q1(Qpm)
    idem = is_sign_closed(Qpm)
    res.add({"check": "sign-closure"},
            "pass" if (not rep_pm.violations and idem) else "fail",
            witness={"closure_size": len(Qpm), "idempotent": idem})
    res.summary = {"quadruples": rep.total, "Q2_m": m2,
                   "closure_size": len(Qpm)}
    return res


# ---------------------------------------------------------------------------
# Proposition 2.1 reduction (acceptance criterion 11)
# ---------------------------------------------------------------------------


def verify_prop21(m_cap: int = 4, n_cap: int = 10) -> HarnessResult:
    res = HarnessResult("2.1")
    Q = SyntheticQSet(m_max=m_cap, k_max=10**9)
    cases = [
        ("x1*x2 - 6", True),
        ("x1*x1 + x2*x2 - x3*x3", True),
        ("x1*x1 - 2", False),
    ]
    for text, solvable in cases:
        p = parse_poly(text)
        compiled = compile_solvability(p)
        w = check_solvability(p, Q, range(1, m_cap + 1), n_cap)
        if solvable:
            verdict = "pass" if w is not None else "fail"
            witness = None if w is None else {"m": w.m, "n": list(w.n),
                                              "y": list(w.y)}
            nz = check_solvability(p, Q, range(1, m_cap + 1), n_cap,
                                   exclude_zero=True)
            if witness is not None and nz is not None:
                witness["nonzero_n"] = list(nz.n)
        else:
            verdict = "pass" if w is None else "fail"
            witness = "not-found-within-bounds" if w is None else \
                {"unexpected": {"m": w.m, "n": list(w.n)}}
        res.add({"polynomial": text, "sentence": pretty_formula(compiled)[:120]},
                verdict, witness=witness, caps={"m_cap": m_cap, "n_cap": n_cap})
    res.summary = {"cases": len(cases)}
    return res


# ---------------------------------------------------------------------------
# Quadratic-indicator world (acceptance criterion 12 and friends)
# ---------------------------------------------------------------------------


def _max_norm(lane: FastConst, ks: np.ndarray):
    """Exact max of norm(c*k) over k in ks, for the constant c of `lane`."""
    least, greatest = lane.extremes(ks)
    return max(-least, greatest)


def verify_lemma41(world: bohr_mod.BohrWorld, N: int = 50, m_max: int = 100_000,
                   trend_Ns=(25, 50, 100, 200)) -> HarnessResult:
    """Converse direction at the paper's explicit thresholds, plus the
    forward monotone-trend report on exact maxima."""
    res = HarnessResult("4.1")
    alpha = world.params.alpha
    delta = world.delta_threshold(N)
    thr1 = delta * Fraction(1, 10 * N)
    thr2 = delta * Fraction(1, 10)

    premise = list(weyl_witnesses([("2*alpha*n", (-thr1, thr1)), ("alpha*n*n", (-thr2, thr2))],
                                  1, m_max + 1, {"alpha": alpha}))
    bad = 0
    for m in premise:
        if not world.mu(m, N):
            bad += 1
            res.add({"m": m, "N": N}, "fail")
    res.add({"N": N, "m_max": m_max, "premise_count": len(premise)},
            "pass" if bad == 0 else "fail",
            witness={"delta": _alg_str(delta), "premise_ms": premise[:10]})
    res.vacuous = not premise

    # forward trend: exact maxima over the almost-period sets shrink with N
    c2a = FastConst(2 * alpha)
    prev1 = prev2 = None
    trend_ok = True
    trend = []
    for Nt in trend_Ns:
        S = world.mu_true_upto(m_max, Nt)
        if len(S) == 0:
            trend.append({"N": Nt, "count": 0})
            continue
        S = S.astype(np.int64)
        exact1 = _max_norm(c2a, S)
        exact2 = _max_norm(world.fast.const, S ** 2)
        trend.append({"N": Nt, "count": int(len(S)),
                      "max_norm_2am": float(exact1),
                      "max_norm_asq": float(exact2)})
        if prev1 is not None and ((exact1 - prev1).sign() > 0
                                  or (exact2 - prev2).sign() > 0):
            trend_ok = False
        prev1, prev2 = exact1, exact2
    res.add({"check": "forward-trend", "Ns": list(trend_Ns)},
            "pass" if trend_ok else "fail", witness=trend)
    res.summary = {"premise_count": len(premise), "violations": bad,
                   "trend": trend}
    return res


def verify_lemma42(world: bohr_mod.BohrWorld, m_max: int = 2000) -> HarnessResult:
    """Forward: the lambda-true set's worst norm(2 alpha m) shrinks as N
    grows (empirical thresholds, labelled). Converse: small norm(2 alpha m)
    forces lambda within the caps."""
    res = HarnessResult("4.2")
    alpha = world.params.alpha
    c2a = FastConst(2 * alpha)
    prev = None
    trend_ok = True
    trend = []
    for N in _LEMMA42_NS:
        lam = world.lambda_vec(N, m_max)
        idx = np.nonzero(lam[1:])[0] + 1
        if len(idx) == 0:
            trend.append({"N": N, "count": 0})
            continue
        worst = _max_norm(c2a, idx.astype(np.int64))
        trend.append({"N": N, "count": int(len(idx)),
                      "max_norm_2am": float(worst), "label": "empirical"})
        if prev is not None and (worst - prev).sign() > 0:
            trend_ok = False
        prev = worst
    res.add({"check": "forward-trend", "Ns": list(_LEMMA42_NS)},
            "pass" if trend_ok else "fail", witness=trend)

    w = find_small_norm(2 * alpha, Fraction(1, 5000), 10**6)
    lam_ok = world.lambda_(w.m, _LEMMA42_NS[0])
    res.add({"check": "converse", "m": w.m, "N": _LEMMA42_NS[0]},
            "pass" if lam_ok else "fail",
            witness={"norm_2am": _alg_str(w.achieved["norm"])})
    res.summary = {"trend": trend, "converse_m": w.m}
    return res


def verify_lemma43(world: bohr_mod.BohrWorld) -> HarnessResult:
    """Small norm(alpha m^2) forces the shifted-hit property within caps;
    at least one large-norm m refutes it (thresholds empirical, labelled)."""
    res = HarnessResult("4.3")
    alpha = world.params.alpha
    N = world.bounds.N_cap
    m_good = find_weyl_witness([("alpha*n*n", (-_GOOD_EPS, _GOOD_EPS))],
                               10**6, {"alpha": alpha})
    kv = world.kappa(m_good, N)
    res.add({"m": m_good, "N": N, "direction": "converse"},
            "pass" if kv.value is True else
            (CAP_EXHAUSTED if kv.value is None else "fail"),
            witness={"tag": kv.tag,
                     "norm_asq": float((alpha * m_good * m_good).circle_norm()),
                     "label": "empirical"})
    refuted = []
    for m in range(1, _BAD_SCAN + 1):
        if float((alpha * m * m).circle_norm()) < _BAD_NORM_FLOOR:
            continue
        v = world.kappa(m, N)
        if v.value is False:
            refuted.append(m)
    res.add({"direction": "forward-control", "N": N, "scan": _BAD_SCAN},
            "pass" if refuted else "fail",
            witness={"refuted_ms": refuted[:8], "label": "empirical"})
    res.summary = {"good_m": m_good, "refuted_count": len(refuted)}
    return res


def verify_lemma44(world: bohr_mod.BohrWorld) -> HarnessResult:
    """Reflexive instances must verify (N_cap <= L_cap makes the consequent
    weaker than the antecedent); the exact closeness invariant
    norm(alpha (m^2 - mt^2)) is reported alongside every verdict."""
    res = HarnessResult("4.4")
    alpha = world.params.alpha
    N = world.bounds.N_cap
    for (m, mt) in _LEMMA44_PAIRS:
        v = world.nu(m, mt, N)
        closeness = (alpha * (m * m - mt * mt)).circle_norm()
        if m == mt:
            # reflexive case must verify: the asserted shift is the same and
            # the consequent level N_cap is no stricter than L_cap
            verdict = "pass" if v.value is True else (
                CAP_EXHAUSTED if v.value is None else "fail")
            label = "exact"
        else:
            verdict = v.tag  # informational; verdicts are cap-relative here
            label = "empirical"
        res.add({"m": m, "m_tilde": mt, "N": N}, verdict,
                witness={"tag": v.tag,
                         "norm_alpha_diff_squares": float(closeness),
                         "label": label})
    res.summary = {"pairs": [list(p) for p in _LEMMA44_PAIRS]}
    return res


def verify_lemma45(world: bohr_mod.BohrWorld, max_m: int = 12,
                   budget: int = 20_000_000) -> HarnessResult:
    """Sequence-based divisibility verdicts agree with m | m_tilde, with
    non-divisible tails pinned within 0.05 of 1/b."""
    res = HarnessResult("4.5")
    bad = 0
    pairs = [(m, mt) for m in range(1, max_m + 1) for mt in range(1, max_m + 1)]
    for m, mt in pairs:
        try:
            rep = bohr_mod.divisibility_sequence_check(world, m, mt,
                                                       max_candidate=budget)
        except NotFoundWithinBudget as exc:
            bad += 1
            res.add({"m": m, "m_tilde": mt}, "fail", witness=str(exc))
            continue
        tail_ok = True
        if rep.b > 1:
            tail_ok = all(abs(t - rep.target) < 0.05 for t in rep.tail_norms)
        ok = rep.agrees and tail_ok
        if not ok:
            bad += 1
        res.add({"m": m, "m_tilde": mt},
                "pass" if ok else "fail",
                witness={"b": rep.b, "says_divides": rep.says_divides,
                         "tail": [round(t, 5) for t in rep.tail_norms],
                         "last_n": rep.sequence[-1]})
    res.summary = {"pairs": max_m * max_m, "failures": bad}
    return res
