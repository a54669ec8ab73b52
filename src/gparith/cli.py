"""Command-line entry point.

JSON-line reports go to stdout (or --out); a short human summary goes to
stderr.  Exit codes: 0 all checks passed, 1 violations found, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import harness as H
from .bohr import BohrParams, BohrWorld, divisibility_sequence_check
from .config import ConfigError, as_algebraic, beta_for_lane, load_config
from .diosearch import (
    SearchBudget,
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
)
from .errors import GparithError
from .exactnum import AlgebraicReal
from .focheck import AlphaContext
from .genpoly import eval_expr, expr_sort, parse
from .weakmult import (
    build_Q,
    check_Q1,
    check_solvability,
    compile_solvability,
    export_csv,
    import_csv,
    parse_poly,
    SyntheticQSet,
)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        a, b = text.split("..", 1)
        return int(a), int(b)
    v = int(text)
    return v, v


def _value_str(v) -> str:
    if isinstance(v, AlgebraicReal):
        coeffs = ",".join(str(c) for c in v.coeffs)
        return f"[{coeffs}] ~ {float(v):.12g}"
    return str(v)


def _open_out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def cmd_eval(args, cfg) -> int:
    expr = parse(args.expr)
    lo, hi = _parse_range(args.n)
    out = _open_out(args)
    try:
        for n in range(lo, hi + 1):
            v = eval_expr(expr, cfg.constants, n)
            out.write(f"{n}\t{_value_str(v)}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"evaluated {args.expr!r} on [{lo}, {hi}] "
          f"(sort: {expr_sort(expr)})", file=sys.stderr)
    return 0


def cmd_search(args, cfg) -> int:
    budget = SearchBudget(max_candidate=args.max, strategy=args.strategy)
    alpha = as_algebraic(cfg.constant(args.const), args.const)
    out = _open_out(args)
    try:
        if args.what == "small-norm":
            w = find_small_norm(alpha, Fraction(args.eps), budget)
            rec = {"search": "small-norm", "m": w.m,
                   "achieved": {k: _value_str(v) for k, v in w.achieved.items()}}
        elif args.what == "progression-base":
            beta = cfg.constant("beta")
            w = find_progression_base(args.r, alpha, beta, budget)
            rec = {"search": "progression-base", "r": args.r, "m": w.m,
                   "achieved": {k: _value_str(v) for k, v in w.achieved.items()}}
        else:  # weyl
            targets = []
            for spec_ in args.target:
                expr_text, lo, hi = spec_.split(";")
                targets.append((expr_text, (Fraction(lo), Fraction(hi))))
            n = find_weyl_witness(targets, budget, cfg.constants)
            rec = {"search": "weyl", "n": n, "targets": args.target}
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print("witness found", file=sys.stderr)
    return 0


def cmd_quadruples(args, cfg) -> int:
    if args.action == "import":
        Q = import_csv(args.csv)
        rep = check_Q1(Q)
        rec = {"quadruples": rep.total, "q1_violations": rep.violations[:10]}
        print(json.dumps(rec, sort_keys=True))
        print(f"imported {rep.total} quadruples, "
              f"{len(rep.violations)} structural violations", file=sys.stderr)
        return 0 if not rep.violations else 1
    alpha = as_algebraic(cfg.constant("alpha"), "alpha")
    beta = beta_for_lane(cfg.constant("beta"))
    ctx = AlphaContext(alpha, beta)
    Q = build_Q(ctx, args.m_max, args.h_factor)
    if args.csv:
        export_csv(Q, args.csv)
    print(json.dumps({"quadruples": len(Q), "m_max": args.m_max,
                      "h_factor": args.h_factor,
                      "csv": args.csv}, sort_keys=True))
    print(f"built {len(Q)} quadruples", file=sys.stderr)
    return 0


def cmd_compile(args, cfg) -> int:
    p = parse_poly(args.poly)
    compiled = compile_solvability(p, m_cap=args.m_cap, y_cap=args.n_cap * args.m_cap)
    out = _open_out(args)
    try:
        out.write(compiled.text() + "\n")
        if args.check:
            Q = SyntheticQSet(m_max=args.m_cap, k_max=10**9)
            w = check_solvability(p, Q, range(1, args.m_cap + 1), args.n_cap)
            if w is None:
                out.write("no witness within bounds\n")
                print("not found within bounds (never: unsolvable)",
                      file=sys.stderr)
            else:
                out.write(json.dumps({"m": w.m, "n": list(w.n), "y": list(w.y)},
                                     sort_keys=True) + "\n")
                print("witness found", file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_formula(args, cfg) -> int:
    from .focheck import Structure, eval_formula, parse_formula, pretty_formula
    from .genpoly import bohr_indicator_sequence, quadratic_sequence

    phi = parse_formula(args.formula)
    sequences = {}
    alpha = cfg.constants.get("alpha")
    beta = cfg.constants.get("beta")
    if isinstance(alpha, AlgebraicReal) and beta is not None:
        sequences["g"] = quadratic_sequence(alpha, beta)
    bohr_alpha = cfg.constants.get("bohr_alpha")
    rho = cfg.constants.get("rho")
    if isinstance(bohr_alpha, AlgebraicReal) and rho is not None:
        sequences["gb"] = bohr_indicator_sequence(bohr_alpha, rho)
    relations = {}
    if args.q_csv:
        Q = import_csv(args.q_csv)
        relations["Q"] = lambda m, a, b, c: Q.contains(m, a, b, c)
    valuation = {}
    for binding in args.bind:
        name, value = binding.split("=", 1)
        valuation[name.strip()] = int(value)
    value = eval_formula(phi, valuation, Structure(sequences, relations),
                         cfg.bound_profile())
    out = _open_out(args)
    try:
        out.write(json.dumps({"formula": pretty_formula(phi),
                              "valuation": valuation,
                              "value": value}, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print("true" if value else "false", file=sys.stderr)
    return 0


def cmd_equidist(args, cfg) -> int:
    alpha = as_algebraic(cfg.constant("alpha"), "alpha")
    a, b, c, d = (int(x) for x in args.abcd.split(","))
    rep = equidist_check(alpha, a, b, c, d, N=args.orbit, M=args.samples,
                         grid=args.grid, seed=cfg.seed)
    rec = {"discrepancy": rep.discrepancy,
           "origin_fraction": rep.origin_fraction,
           "orbit": rep.orbit_count, "samples": rep.push_count,
           "grid": args.grid, "theta": rep.theta_float}
    out = _open_out(args)
    try:
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    ok = rep.discrepancy <= args.tolerance and rep.origin_fraction > 0
    print(f"discrepancy {rep.discrepancy:.4f} (tolerance {args.tolerance}), "
          f"origin fraction {rep.origin_fraction:.4f}", file=sys.stderr)
    return 0 if ok else 1


def cmd_bohr(args, cfg) -> int:
    alpha = as_algebraic(cfg.constant("bohr_alpha"), "bohr_alpha")
    rho = cfg.constant("rho")
    world = BohrWorld(BohrParams(alpha, rho), cfg.bohr_bounds())
    out = _open_out(args)
    try:
        if args.action == "eval":
            lo, hi = _parse_range(args.n)
            for n in range(lo, hi + 1):
                out.write(f"{n}\t{world.g(n)}\n")
            return 0
        rep = divisibility_sequence_check(world, args.m, args.mt,
                                          max_candidate=args.budget)
        rec = {"m": rep.m, "m_tilde": rep.m_tilde, "b": rep.b,
               "sequence": rep.sequence, "tail": rep.tail_norms,
               "says_divides": rep.says_divides, "agrees": rep.agrees}
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"verdict: {'divides' if rep.says_divides else 'does not divide'} "
          f"(agrees with arithmetic: {rep.agrees})", file=sys.stderr)
    return 0 if rep.agrees else 1


_VERIFY_IDS = ("core", "2.1", "2.2", "3.1", "3.2", "3.3", "3.4", "3.5", "3.6",
               "3.5/3.6", "3.7", "3.8", "Q1", "Q2", "4.1", "4.2", "4.3",
               "4.4", "4.5")


def cmd_verify(args, cfg) -> int:
    alpha = as_algebraic(cfg.constant("alpha"), "alpha")
    beta_val = cfg.constant("beta")
    lemma = args.lemma
    t0 = time.monotonic()

    if lemma == "core":
        result = H.verify_numeric_core(alpha.field, count=args.samples or 1000,
                                       seed=cfg.seed)
    elif lemma == "2.2":
        result = H.verify_lemma22(count=args.samples or 500, seed=cfg.seed)
    elif lemma == "2.1":
        result = H.verify_prop21(n_cap=args.n_max or 10)
    elif lemma == "3.1":
        result = H.verify_lemma31(alpha, beta_val, samples=args.samples or 10_000,
                                  seed=cfg.seed)
    elif lemma == "3.2":
        ctx = AlphaContext(alpha, beta_for_lane(beta_val))
        result = H.verify_lemma32(ctx, C=cfg.C, n_pairs=args.pairs or 100,
                                  seed=cfg.seed)
    elif lemma == "3.3":
        ctx = AlphaContext(alpha, beta_for_lane(beta_val))
        result = H.verify_lemma33(ctx, C=cfg.C, N_max=args.n_max or 30,
                                  m_max=args.m_max or 10_000)
    elif lemma == "3.4":
        result = H.verify_lemma34(alpha, N=args.orbit, M=args.samples or 10**6,
                                  grid=args.grid, tol=args.tolerance,
                                  seed=cfg.seed)
    elif lemma in ("3.5", "3.6", "3.5/3.6"):
        ctx = AlphaContext(alpha, beta_for_lane(beta_val))
        result = H.verify_lemma36(ctx, n_max=args.n_max or 50,
                                  nprime_max=args.nprime_max or 600,
                                  bounds=cfg.bound_profile())
        conv = H.verify_converse34(ctx, count=args.pairs or 1000, seed=cfg.seed)
        result.records.extend(conv.records)
        result.violations += conv.violations
        result.summary["converse"] = conv.summary
    elif lemma == "3.7":
        ctx = AlphaContext(alpha, beta_for_lane(beta_val))
        result = H.verify_lemma37_range(ctx, m_max=args.m_max or 100,
                                        h_factor=args.h_factor or 30)
    elif lemma == "3.8":
        ctx = AlphaContext(alpha, beta_for_lane(beta_val))
        result = H.verify_lemma38(ctx, budget_cap=args.budget)
    elif lemma in ("Q1", "Q2"):
        if args.from_csv:
            Q = import_csv(args.from_csv)
            rep = check_Q1(Q)
            result = H.HarnessResult(lemma)
            result.add({"source": args.from_csv, "quadruples": rep.total},
                       "pass" if not rep.violations else "fail",
                       witness={"violations": rep.violations[:5]})
            result.summary = {"quadruples": rep.total}
        else:
            ctx = AlphaContext(alpha, beta_for_lane(beta_val))
            result = H.verify_q_axioms(ctx, m_max=args.m_max or 10_000,
                                       h_factor=args.h_factor or 1000)
    else:  # 4.x
        bohr_alpha = as_algebraic(cfg.constant("bohr_alpha"), "bohr_alpha")
        world = BohrWorld(BohrParams(bohr_alpha, cfg.constant("rho")),
                          cfg.bohr_bounds())
        if lemma == "4.1":
            result = H.verify_lemma41(world, N=args.n_max or 50,
                                      m_max=args.m_max or 100_000)
        elif lemma == "4.2":
            result = H.verify_lemma42(world, m_max=args.m_max or 2000)
        elif lemma == "4.3":
            result = H.verify_lemma43(world)
        elif lemma == "4.4":
            result = H.verify_lemma44(world)
        else:
            result = H.verify_lemma45(world, max_m=args.m_max or 12,
                                      budget=args.budget)
    runtime_ms = (time.monotonic() - t0) * 1000.0

    out = _open_out(args)
    try:
        H.emit_jsonl(result, out,
                     runtime_ms=runtime_ms if args.verbose else None)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"lemma {result.lemma}: violations={result.violations} "
          f"cap-exhausted={result.cap_exhausted} "
          f"vacuous={'yes' if result.vacuous else 'no'} "
          f"({runtime_ms / 1000:.1f}s)", file=sys.stderr)
    return 0 if result.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of
    main: a fresh parser per call leaves reference cycles behind."""
    ap = argparse.ArgumentParser(
        prog="gparith",
        description="Exact evaluation, witness search and lemma verification "
                    "for quadratic generalised-polynomial sequences.")
    ap.add_argument("--config", default=None, help="session config file")
    ap.add_argument("--seed", type=int, default=None, help="override seed")
    ap.add_argument("--out", default=None, help="write report to file")
    ap.add_argument("--verbose", action="store_true",
                    help="include runtime_ms in reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over a range")
    p.add_argument("expr")
    p.add_argument("--n", required=True, help="range A..B or single n")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="witness searches")
    p.add_argument("what", choices=("small-norm", "progression-base", "weyl"))
    p.add_argument("--eps", default="1/10")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--const", default="alpha")
    p.add_argument("--max", type=int, default=10**6)
    p.add_argument("--strategy", default="hybrid",
                   choices=("convergent-multiples", "exhaustive", "hybrid"))
    p.add_argument("--target", action="append", default=[],
                   help='weyl target "expr;lo;hi" (repeatable)')
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("quadruples", help="build (and export) or import quadruple sets")
    p.add_argument("action", choices=("build", "import"))
    p.add_argument("--m-max", type=int, default=1000)
    p.add_argument("--h-factor", type=int, default=100)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_quadruples)

    p = sub.add_parser("compile", help="compile polynomial solvability")
    p.add_argument("poly")
    p.add_argument("--check", action="store_true")
    p.add_argument("--m-cap", type=int, default=4)
    p.add_argument("--n-cap", type=int, default=10)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("formula", help="evaluate a bounded first-order formula")
    p.add_argument("formula",
                   help='e.g. "exists x in [1,10]: g(x) = 30" '
                        "(sequences: g, gb; relation Q via --q-csv)")
    p.add_argument("--bind", action="append", default=[],
                   help="free-variable binding name=value (repeatable)")
    p.add_argument("--q-csv", default=None,
                   help="interpret the Q relation from a quadruple CSV")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("equidist", help="orbit vs push-forward histograms")
    p.add_argument("--abcd", default="1,2,3,1")
    p.add_argument("--orbit", type=int, default=200_000)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("bohr", help="quadratic-indicator world")
    p.add_argument("action", choices=("eval", "seqcheck"))
    p.add_argument("--n", default="0..20")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mt", type=int, default=6)
    p.add_argument("--budget", type=int, default=20_000_000)
    p.set_defaults(func=cmd_bohr)

    p = sub.add_parser("verify", help="run a lemma harness")
    p.add_argument("lemma", choices=_VERIFY_IDS)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--nprime-max", type=int, default=None)
    p.add_argument("--h-factor", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--orbit", type=int, default=200_000)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--from", dest="from_csv", default=None,
                   help="verify Q1 against a CSV quadruple file")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.ints["seed"] = args.seed
        if args.out is None and cfg.out:
            args.out = cfg.out
        return args.func(args, cfg)
    except (GparithError, ConfigError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
