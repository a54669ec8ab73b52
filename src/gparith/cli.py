"""Command-line entry point.

JSON-line reports go to stdout (or --out); a short human summary goes to
stderr.  Exit codes: 0 all checks passed, 1 violations found or a
certified search absence (a refuted-in-range record), 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import harness as H
from ._fastlane import BohrFast, QuadSeqFast, blocks
from .bohr import BohrParams, BohrWorld, divisibility_sequence_check
from .config import ConfigError, as_algebraic, beta_for_lane, load_config
from .diosearch import (
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
)
from .errors import GparithError, NotFoundWithinBudget
from .exactnum import AlgebraicReal
from .focheck import REFUTED, AlphaContext, pretty_formula
from .genpoly import compile_term, expr_sort, parse
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


def _binding(text: str) -> tuple[str, int]:
    """A --bind value name=integer."""
    name, _, value = text.partition("=")
    try:
        if name.strip():
            return name.strip(), int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects name=integer, got {text!r}")


def _positive_int(text: str) -> int:
    """A search bound: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects an integer >= 1, got {text!r}")
    return value


def _value_str(v) -> str:
    if isinstance(v, AlgebraicReal):
        coeffs = ",".join(str(c) for c in v.coeffs)
        return f"[{coeffs}] ~ {float(v):.12g}"
    return str(v)


@contextmanager
def _report_out(args):
    """The report stream: the --out file, closed on exit, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8") as fh:
        yield fh


def _alpha(cfg) -> AlgebraicReal:
    return as_algebraic(cfg.constant("alpha"), "alpha")


# The session-config values a harness may take, by harness keyword.
_CONFIG_VALUES = {
    "field": lambda cfg: _alpha(cfg).field,
    "alpha": _alpha,
    "beta": lambda cfg: cfg.constant("beta"),
    "ctx": lambda cfg: AlphaContext(_alpha(cfg), beta_for_lane(cfg.constant("beta"))),
    "world": lambda cfg: BohrWorld(
        BohrParams(as_algebraic(cfg.constant("bohr_alpha"), "bohr_alpha"),
                   cfg.constant("rho")), cfg.bohr_bounds()),
    "seed": lambda cfg: cfg.seed,
    "C": lambda cfg: cfg.C,
    "bounds": lambda cfg: cfg.bound_profile(),
}


def cmd_eval(args, cfg) -> int:
    expr = parse(args.expr)
    value = compile_term(expr)
    lo, hi = _parse_range(args.n)
    env = dict(cfg.constants)
    with _report_out(args) as out:
        for n in range(lo, hi + 1):
            env["n"] = n
            v = value(env, {})
            out.write(f"{n}\t{_value_str(v)}\n")
    print(f"evaluated {args.expr!r} on [{lo}, {hi}] "
          f"(sort: {expr_sort(expr)})", file=sys.stderr)
    return 0


def cmd_search(args, cfg) -> int:
    alpha = as_algebraic(cfg.constant(args.const), args.const)
    with _report_out(args) as out:
        try:
            if args.what == "small-norm":
                w = find_small_norm(alpha, Fraction(args.eps), args.max)
                rec = {"search": "small-norm", "m": w.m,
                       "achieved": {k: _value_str(v) for k, v in w.achieved.items()}}
            elif args.what == "progression-base":
                beta = cfg.constant("beta")
                w = find_progression_base(args.r, alpha, beta, args.max)
                rec = {"search": "progression-base", "r": args.r, "m": w.m,
                       "achieved": {k: _value_str(v) for k, v in w.achieved.items()}}
            else:  # weyl
                targets = []
                for spec_ in args.target:
                    expr_text, lo, hi = spec_.split(";")
                    targets.append((expr_text, (Fraction(lo), Fraction(hi))))
                n = find_weyl_witness(targets, args.max, cfg.constants)
                rec = {"search": "weyl", "n": n, "targets": args.target}
        except NotFoundWithinBudget:
            # the scans are certified: no witness up to --max refutes the range
            query = {"small-norm": {"eps": str(Fraction(args.eps))},
                     "progression-base": {"r": args.r}, "weyl": {"targets": args.target}}
            out.write(json.dumps({"search": args.what, "max": args.max, "verdict": REFUTED,
                                  **query[args.what]}, sort_keys=True) + "\n")
            print(f"no witness up to {args.max} ({REFUTED})", file=sys.stderr)
            return 1
        out.write(json.dumps(rec, sort_keys=True) + "\n")
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
    Q = build_Q(_CONFIG_VALUES["ctx"](cfg), args.m_max, args.h_factor)
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
    with _report_out(args) as out:
        out.write(pretty_formula(compiled) + "\n")
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
    return 0


def cmd_formula(args, cfg) -> int:
    from .focheck import Structure, eval_formula, parse_formula

    phi = parse_formula(args.formula)
    sequences = {}
    alpha = cfg.constants.get("alpha")
    beta = cfg.constants.get("beta")
    if isinstance(alpha, AlgebraicReal) and beta is not None:
        sequences["g"] = QuadSeqFast(alpha, beta)
    bohr_alpha = cfg.constants.get("bohr_alpha")
    rho = cfg.constants.get("rho")
    if isinstance(bohr_alpha, AlgebraicReal) and rho is not None:
        sequences["gb"] = BohrFast(bohr_alpha, rho)
    relations = {}
    if args.q_csv:
        Q = import_csv(args.q_csv)
        relations["Q"] = lambda m, a, b, c: Q.contains(m, a, b, c)
    valuation = dict(args.bind)
    value = eval_formula(phi, valuation, Structure(sequences, relations),
                         cfg.bound_profile())
    with _report_out(args) as out:
        out.write(json.dumps({"formula": pretty_formula(phi),
                              "valuation": valuation,
                              "value": value}, sort_keys=True) + "\n")
    print("true" if value else "false", file=sys.stderr)
    return 0


def cmd_equidist(args, cfg) -> int:
    a, b, c, d = (int(x) for x in args.abcd.split(","))
    rep = equidist_check(_alpha(cfg), a, b, c, d, N=args.orbit, M=args.samples,
                         grid=args.grid, seed=cfg.seed)
    rec = {"discrepancy": rep.discrepancy,
           "origin_fraction": rep.origin_fraction,
           "orbit": rep.orbit_count, "samples": rep.push_count,
           "grid": args.grid, "theta": rep.theta_float}
    with _report_out(args) as out:
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    ok = rep.discrepancy <= args.tolerance and rep.origin_fraction > 0
    print(f"discrepancy {rep.discrepancy:.4f} (tolerance {args.tolerance}), "
          f"origin fraction {rep.origin_fraction:.4f}", file=sys.stderr)
    return 0 if ok else 1


def cmd_bohr(args, cfg) -> int:
    world = _CONFIG_VALUES["world"](cfg)
    with _report_out(args) as out:
        if args.action == "eval":
            lo, hi = _parse_range(args.n)
            for ns in blocks(lo, hi + 1):
                out.writelines(f"{n}\t{v}\n" for n, v in
                               zip(ns.tolist(), world.fast.g_vec(ns).tolist()))
            return 0
        rep = divisibility_sequence_check(world, args.m, args.mt,
                                          max_candidate=args.budget)
        rec = {"m": rep.m, "m_tilde": rep.m_tilde, "b": rep.b,
               "sequence": rep.sequence, "tail": rep.tail_norms,
               "says_divides": rep.says_divides, "agrees": rep.agrees}
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"verdict: {'divides' if rep.says_divides else 'does not divide'} "
          f"(agrees with arithmetic: {rep.agrees})", file=sys.stderr)
    return 0 if rep.agrees else 1


# verify id -> (the `harness` function, by name, so that a wrapper installed
# on the module is honoured; the _CONFIG_VALUES it takes; each flag it reads,
# mapped to its harness keyword).  An unset flag is not passed, so the
# harness signature holds the only default.  The entry "<id> <flag>" is the
# arm of <id> that a given <flag> selects.
VERIFY = {
    "core": ("verify_numeric_core", ("field", "seed"), {"--samples": "count"}),
    "2.1": ("verify_prop21", (), {"--n-max": "n_cap"}),
    "2.2": ("verify_lemma22", ("seed",), {"--samples": "count"}),
    "3.1": ("verify_lemma31", ("alpha", "beta", "seed"), {"--samples": "samples"}),
    "3.2": ("verify_lemma32", ("ctx", "C", "seed"), {"--pairs": "n_pairs"}),
    "3.3": ("verify_lemma33", ("ctx", "C"), {"--n-max": "N_max", "--m-max": "m_max"}),
    "3.4": ("verify_lemma34", ("alpha", "seed"),
            {"--orbit": "N", "--samples": "M", "--grid": "grid", "--tolerance": "tol"}),
    "3.5/3.6": ("verify_lemmas35_36", ("ctx", "bounds", "seed"),
                {"--n-max": "n_max", "--nprime-max": "nprime_max", "--pairs": "count"}),
    "3.7": ("verify_lemma37_range", ("ctx",),
            {"--m-max": "m_max", "--h-factor": "h_factor"}),
    "3.8": ("verify_lemma38", ("ctx",), {"--budget": "budget_cap"}),
    "Q1": ("verify_q_axioms", ("ctx",), {"--m-max": "m_max", "--h-factor": "h_factor"}),
    "Q1 --from": ("verify_q1_csv", (), {"--from": "source"}),
    "4.1": ("verify_lemma41", ("world",), {"--n-max": "N", "--m-max": "m_max"}),
    "4.2": ("verify_lemma42", ("world",), {"--m-max": "m_max"}),
    "4.3": ("verify_lemma43", ("world",), {}),
    "4.4": ("verify_lemma44", ("world",), {}),
    "4.5": ("verify_lemma45", ("world",), {"--m-max": "max_m", "--budget": "budget"}),
}
# Every verify flag in order of first use; all but these take an integer >= 1.
_VERIFY_FLAGS = list(dict.fromkeys(f for _, _, flags in VERIFY.values() for f in flags))
_FLAG_TYPES = {"--tolerance": float, "--from": str}


def cmd_verify(args, cfg) -> int:
    given = {f: v for f in _VERIFY_FLAGS
             if (v := getattr(args, f[2:].replace("-", "_"))) is not None}
    arm = next((k for f in given if (k := f"{args.lemma} {f}") in VERIFY), args.lemma)
    name, config, flags = VERIFY[arm]
    for flag in given:
        if flag not in flags:
            raise ValueError(f"verify {arm} does not read {flag} "
                             f"(it reads: {', '.join(flags) or 'no flag'})")
    kwargs = {flags[f]: v for f, v in given.items()}
    t0 = time.monotonic()
    kwargs.update((key, _CONFIG_VALUES[key](cfg)) for key in config)
    result = getattr(H, name)(**kwargs)
    runtime_ms = (time.monotonic() - t0) * 1000.0

    with _report_out(args) as out:
        H.emit_jsonl(result, out,
                     runtime_ms=runtime_ms if args.verbose else None)
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
    p.add_argument("--max", type=_positive_int, default=10**6)
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
    p.add_argument("--bind", action="append", default=[], type=_binding,
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
    p.add_argument("lemma", choices=tuple(dict.fromkeys(k.split()[0] for k in VERIFY)))
    for flag in _VERIFY_FLAGS:
        ids = [i for i, (_, _, flags) in VERIFY.items() if flag in flags]
        p.add_argument(flag, type=_FLAG_TYPES.get(flag, _positive_int), default=None,
                       help=f"read by {', '.join(ids)}")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):  # argparse reads -3..3 in `--n -3..3` as an option
        if argv[i] == "--n" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i:i + 2] = [f"--n={argv[i + 1]}"]
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.ints["seed"] = args.seed
        if args.out is None and cfg.out:
            args.out = cfg.out
        if args.out and not Path(args.out).parent.is_dir():
            # fail before the work; the report itself is opened after it
            raise FileNotFoundError(f"no directory for --out {args.out}")
        return args.func(args, cfg)
    except (GparithError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
