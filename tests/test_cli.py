import contextlib
import gc
import inspect
import io
import json
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from gparith import bohr, focheck, harness as H
from gparith._fastlane import BohrFast, QuadSeqFast
from gparith.cli import _CONFIG_VALUES, VERIFY, _value_str, main
from gparith.config import DEFAULT_CONFIG_TEXT, ConfigError, load_config, parse_config
from gparith.errors import UnboundVariable
from gparith.exactnum import AlgebraicReal, NumberField
from gparith.genpoly import BLOCK, compile_term, parse
from gparith.weakmult import ExplicitQSet


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _mutant(fn, *edits):
    """`fn` recompiled from its source with each (old, new) edit made once."""
    src = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    scope = {}
    exec(compile(src, inspect.getsourcefile(fn), "exec"), fn.__globals__, scope)
    return scope[fn.__name__]


# mutations of the exact core: name -> (owner, attribute, mutant of the original)
_SHIFT = Fraction(1, 1 << 20)
CORE_MUTATIONS = {
    "theta shifted by 2^-20": (NumberField, "theta_enclosure", lambda enc: (
        lambda self, prec: tuple(e + _SHIFT for e in enc(self, prec)))),
    "_scaled sign branches swapped": (AlgebraicReal, "_scaled", lambda fn: _mutant(
        fn, ("if k > 0:", "if k < 0:"), ("elif k < 0:", "elif k > 0:"))),
    "_scaled returns hi = lo": (AlgebraicReal, "_scaled", lambda fn: _mutant(
        fn, ("return lo, hi, scale", "return lo, lo, scale"))),
}


class TestConfig:
    def test_default_config(self):
        cfg = parse_config(DEFAULT_CONFIG_TEXT)
        assert float(cfg.constant("alpha")) == pytest.approx(2 ** (1 / 3))
        assert cfg.constant("beta") == 1
        assert cfg.constant("rho") == pytest.approx(0.2)
        assert cfg.seed == 12648430
        assert cfg.C == 2

    def test_bad_lines(self):
        with pytest.raises(ConfigError):
            parse_config("alpha rational")
        with pytest.raises(ConfigError):
            parse_config('alpha = algebraic { minpoly = [x], interval = ["1","2"] }')
        with pytest.raises(ConfigError):
            parse_config("seed = abc")

    def test_threads_is_not_a_key(self, tmp_path, capsys):
        # nor is `h_cap`; nor `n2_cap`, an argument of def_mu and def_psi,
        # which no command calls; nor any cap of `focheck` or `bohr`, which
        # are module constants
        caps = ("M_cap", "H_cap", "m_cap", "max_range", "bohr_N_cap", "bohr_M_cap",
                "bohr_L_cap", "bohr_h_cap", "bohr_n_cap", "bohr_outer_cap",
                "bohr_seq_len")
        for line in ("threads = 2", "h_cap = 64", "n2_cap = 1000",
                     *(f"{cap} = 3" for cap in caps)):
            with pytest.raises(ConfigError):
                parse_config(line)
            cfg = tmp_path / "session.cfg"
            cfg.write_text(DEFAULT_CONFIG_TEXT + line + "\n")
            code, _, err = run_cli(["--config", str(cfg), "eval", "n", "--n", "1..1"],
                                   capsys)
            assert code == 2 and "ConfigError" in err

    @pytest.mark.parametrize("name, lemma", [("alpha", "3.1"), ("bohr_alpha", "4.4")])
    def test_a_rational_constant_is_refused_in_either_spelling(self, name, lemma,
                                                               tmp_path, capsys):
        # a degree-1 `algebraic` is a rational too
        default = next(line for line in DEFAULT_CONFIG_TEXT.splitlines()
                       if line.startswith(f"{name} ="))
        errs = []
        for spelling in ('rational "3/2"',
                         'algebraic { minpoly = [-3, 2], interval = ["1", "2"] }'):
            cfg = tmp_path / "session.cfg"
            cfg.write_text(DEFAULT_CONFIG_TEXT.replace(default, f"{name} = {spelling}"))
            code, out, err = run_cli(["--config", str(cfg), "verify", lemma], capsys)
            assert code == 2 and out == ""
            errs.append(err)
        assert errs == [f"error: ConfigError: {name} must be algebraic (got rational 3/2)\n"] * 2

    def test_a_quintic_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text('alpha = algebraic { minpoly = [-1, -1, 0, 0, 0, 1], '
                       'interval = ["1", "2"] }\nbeta = rational "1"\n')
        report = tmp_path / "report.json"
        code, out, err = run_cli(["--config", str(cfg), "--out", str(report),
                                  "verify", "3.1"], capsys)
        assert code == 2 and out == "" and not report.exists()
        assert "error: ValueError: minimal polynomial has degree 5" in err


# the n past which nint(alpha*n) leaves the float recovery range of its lane
_FAR = int(2**50 / 2 ** (1 / 3))


def _walk(expr: str, lo: int, hi: int):
    """The output of `eval` as the exact closure walks it, value by value,
    and the error line that ends it, or None."""
    value, env, lines = compile_term(parse(expr)), dict(load_config(None).constants), []
    try:
        for n in range(lo, hi + 1):
            env["n"] = n
            lines.append(f"{n}\t{_value_str(value(env, {}))}\n")
    except UnboundVariable as exc:
        return "".join(lines), f"error: UnboundVariable: {exc}\n"
    return "".join(lines), None


class TestEval:
    def test_table(self, capsys):
        code, out, err = run_cli(
            ["eval", "nint(beta*n*nint(alpha*n))", "--n", "0..5"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert [int(r[1]) for r in rows] == [0, 1, 6, 12, 20, 30]

    def test_single_n(self, capsys):
        code, out, _ = run_cli(["eval", "n", "--n", "3..3"], capsys)
        assert code == 0 and out.strip() == "3\t3"

    def test_unknown_constant_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "nint(zeta*n)", "--n", "1..1"], capsys)
        assert code == 2 and "UnboundVariable: zeta" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "nint(n", "--n", "1..1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("expr, lo, hi", [
        ("nint(beta*n*nint(alpha*n))", -BLOCK - 900, BLOCK + 900),  # lane, three blocks
        ("floor(rho*n*n) - nint(-alpha*n) + 2*n", -300, 300),
        ("frac(alpha*n) + n", -20, 40),                              # no lane
        ("nint(zeta*n)", 1, 3),                                      # unbound names
        ("n + g(n)", 1, 3),
        ("nint(alpha*n) - floor(alpha*n)", _FAR - 700, _FAR + 700),  # past 2^50/alpha
        ("nint(alpha*n) + n", 2**63 - 500, 2**63 + 200),             # past int64
        ("nint(beta*n*nint(alpha*n))", 3037000000, 3037000600),      # g past int64
    ])
    def test_output_is_the_exact_walk(self, expr, lo, hi, capsys):
        code, out, err = run_cli(["eval", expr, f"--n={lo}..{hi}"], capsys)
        want_out, want_err = _walk(expr, lo, hi)
        assert out == want_out
        if want_err is None:
            assert code == 0
        else:
            assert code == 2 and err == want_err

    @pytest.mark.parametrize("argv", [["eval", "n*n"], ["bohr", "eval"]])
    def test_negative_range_start_after_a_space(self, argv, capsys):
        # argparse alone reads the -3..3 of `--n -3..3` as an option
        joined = run_cli(argv + ["--n=-3..3"], capsys)
        assert joined[0] == 0 and joined[1].startswith("-3\t")
        assert run_cli(argv + ["--n", "-3..3"], capsys) == joined


class TestCompile:
    def test_product_with_check(self, capsys):
        code, out, _ = run_cli(["compile", "x1*x2 - 6", "--check"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("exists m in")
        w = json.loads(lines[1])
        assert w["n"][0] * w["n"][1] == 6

    def test_linear(self, capsys):
        code, out, _ = run_cli(["compile", "x1 - 2", "--check"], capsys)
        assert code == 0
        assert json.loads(out.strip().splitlines()[1])["n"] == [2]

    def test_irrational_square(self, capsys):
        code, out, _ = run_cli(["compile", "x1*x1 - 2", "--check"], capsys)
        assert code == 0
        assert "no witness within bounds" in out


class TestVerify:
    def test_small_lemma37(self, capsys):
        code, out, err = run_cli(
            ["verify", "3.7", "--m-max", "20", "--h-factor", "8"], capsys)
        assert code == 0
        last = json.loads(out.strip().splitlines()[-1])
        assert last["violations"] == 0

    def test_q1_from_corrupted_csv(self, tmp_path, capsys):
        good = tmp_path / "q.csv"
        code, out, _ = run_cli(
            ["quadruples", "build", "--m-max", "100", "--h-factor", "20",
             "--csv", str(good)], capsys)
        assert code == 0
        lines = good.read_text().splitlines()
        lines[0] = "2,4,6,13"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["verify", "Q1", "--from", str(bad)], capsys)
        assert code == 1
        first = json.loads(out.strip().splitlines()[0])
        assert [2, 4, 6, 13] in first["witness"]["violations"]

    def test_q1_from_empty_csv_is_vacuous(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run_cli(["verify", "Q1", "--from", str(empty)], capsys)
        assert code == 0 and json.loads(out.splitlines()[0])["verdict"] == "pass"
        assert "vacuous=yes" in err

    @pytest.mark.parametrize("alias", ["3.5", "3.6", "Q2"])
    def test_alias_ids_are_rejected(self, alias, capsys):
        # one id per harness: 3.5/3.6 and Q1 are the only names
        with pytest.raises(SystemExit) as exc:
            main(["verify", alias])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("lemma, code", [("2.1", 0), ("4.4", 0), ("3.7", 2)])
    def test_an_id_reads_only_the_constants_it_uses(self, lemma, code, tmp_path,
                                                    capsys):
        # a config without alpha and beta: 2.1 and 4.4 read neither
        cfg = tmp_path / "bohr.cfg"
        cfg.write_text('bohr_alpha = algebraic { minpoly = [-2, 0, 1], '
                       'interval = ["1", "2"] }\nrho = rational "1/5"\n')
        got, _, err = run_cli(["--config", str(cfg), "verify", lemma], capsys)
        assert got == code
        assert ("constant 'alpha' is not declared" in err) == (code == 2)

    @pytest.mark.parametrize("argv, flag", [
        (["4.4", "--m-max", "5"], "--m-max"),
        (["4.3", "--samples", "3"], "--samples"),
        (["core", "--budget", "10"], "--budget"),
        (["3.8", "--from", "q.csv"], "--from"),
        (["2.1", "--tolerance", "0.1"], "--tolerance"),
        (["3.7", "--m-max", "5", "--pairs", "2"], "--pairs"),
    ])
    def test_a_flag_the_id_does_not_read_is_rejected(self, argv, flag, capsys):
        code, out, err = run_cli(["verify"] + argv, capsys)
        assert code == 2 and out == ""
        assert f"verify {argv[0]} does not read {flag}" in err

    def test_a_report_records_the_caps_it_ran_under(self, monkeypatch, capsys):
        # the harness reads the module constants at call time, so a report
        # cannot print a stale copy of a cap
        monkeypatch.setattr(focheck, "H_CAP", 3)
        monkeypatch.setattr(focheck, "M_CAP", 20)
        monkeypatch.setattr(bohr, "N_CAP", 6)
        _, out, _ = run_cli(["verify", "3.5/3.6", "--n-max", "2", "--nprime-max", "8",
                             "--pairs", "2"], capsys)
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["caps"] for r in records if "caps" in r] == [{"H_cap": 3, "M_cap": 20}]
        for lemma in ("4.3", "4.4"):
            _, out, _ = run_cli(["verify", lemma], capsys)
            records = [json.loads(line) for line in out.splitlines()]
            Ns = [r["instance"]["N"] for r in records if "N" in r.get("instance", {})]
            assert Ns and set(Ns) == {6}, lemma

    @pytest.mark.parametrize("lemma", sorted(VERIFY))
    def test_table_entry_fits_its_harness(self, lemma):
        name, config, flags = VERIFY[lemma]
        params = inspect.signature(getattr(H, name)).parameters
        assert set(config) <= set(_CONFIG_VALUES)
        assert set(config) | set(flags.values()) == set(params)
        required = {k for k, p in params.items() if p.default is p.empty}
        # the flag that selects an arm ("Q1 --from") supplies its keyword
        assert required <= set(config) | {flags[f] for f in lemma.split()[1:]}

    def test_q1_from_reads_no_constant_and_no_build_flag(self, tmp_path, capsys):
        csv = tmp_path / "q.csv"
        assert run_cli(["quadruples", "build", "--m-max", "50", "--h-factor", "10",
                        "--csv", str(csv)], capsys)[0] == 0
        cfg = tmp_path / "rho.cfg"
        cfg.write_text('rho = rational "1/5"\n')
        code, out, err = run_cli(["--config", str(cfg), "verify", "Q1", "--from", str(csv)],
                                 capsys)
        assert code == 0 and json.loads(out.splitlines()[0])["verdict"] == "pass"
        for flag, value in [("--m-max", "5"), ("--h-factor", "3")]:
            code, out, err = run_cli(["verify", "Q1", "--from", str(csv), flag, value],
                                     capsys)
            assert code == 2 and out == ""
            assert f"verify Q1 --from does not read {flag} (it reads: --from)" in err
        # without --from, Q1 builds its set and reads no file
        code, _, err = run_cli(["--config", str(cfg), "verify", "Q1", "--m-max", "5"],
                               capsys)
        assert code == 2 and "constant 'alpha' is not declared" in err

    @pytest.mark.parametrize("mutation,argv", [
        pytest.param("g+1 on 3|n", ["verify", "3.1", "--samples", "100"], id="g+1 on 3|n"),
        pytest.param("g = n^2", ["verify", "3.1", "--samples", "100"], id="g = n^2"),
        pytest.param("g = n^2", ["verify", "3.2", "--pairs", "25"], id="g = n^2-3.2"),
        pytest.param("g = n^2", ["verify", "3.3", "--m-max", "500"], id="g = n^2-3.3"),
        # a read ends W past its start, and on the arc of a positive pair
        # g+1 on 3|n keeps only the witnesses x = 0 (mod 3), which some miss
        pytest.param("g+1 on 3|n", ["verify", "3.2", "--pairs", "25"], id="g+1 on 3|n-3.2"),
        pytest.param("g+1 on 3|n", ["verify", "3.3", "--m-max", "500"], id="g+1 on 3|n-3.3"),
        pytest.param("g+1 on 3|n", ["verify", "3.7"], id="g+1 on 3|n-3.7"),
        pytest.param("g = n^2", ["verify", "3.7"], id="g = n^2-3.7"),
        pytest.param("indicator 1-g", ["verify", "4.3"], id="indicator 1-g-4.3"),
        pytest.param("indicator flipped on 7|n",
                     ["verify", "4.1", "--n-max", "10", "--m-max", "1000000"],
                     id="indicator flipped on 7|n-4.1-n10"),
        *[pytest.param("indicator flipped on 7|n", ["verify"] + argv,
                       id=f"indicator flipped on 7|n-{argv[0]}",
                       marks=pytest.mark.xfail(strict=True, reason=(
                           "ROADMAP item 10: the 4.x checks at their pinned flags "
                           "survive a sparse indicator flip")))
          for argv in (["4.1", "--m-max", "20000"], ["4.2", "--m-max", "1000"], ["4.3"],
                       ["4.4"])],
        *[pytest.param(mutation, ["verify", "core", "--samples", "100"],
                       id=f"{mutation}-core")
          for mutation in CORE_MUTATIONS],
    ])
    def test_lemma31_fails_under_a_mutated_sequence(self, mutation, argv, monkeypatch,
                                                    capsys):
        # both evaluators of a sequence mutated alike: the lane and the exact
        # scalar; the id names the mutation and the verify id it must fail
        if mutation in CORE_MUTATIONS:
            owner, name, mutate = CORE_MUTATIONS[mutation]
            monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
        elif mutation == "indicator 1-g":
            vec, scalar = BohrFast.g_vec, BohrFast.g_scalar
            monkeypatch.setattr(BohrFast, "g_vec", lambda self, n: 1 - vec(self, n))
            monkeypatch.setattr(BohrFast, "g_scalar", lambda self, n: 1 - scalar(self, n))
        elif mutation == "indicator flipped on 7|n":
            vec, scalar = BohrFast.g_vec, BohrFast.g_scalar
            monkeypatch.setattr(BohrFast, "g_vec", lambda self, n: vec(self, n) ^ (n % 7 == 0))
            monkeypatch.setattr(BohrFast, "g_scalar",
                                lambda self, n: scalar(self, n) ^ (n % 7 == 0))
        elif mutation == "g = n^2":
            monkeypatch.setattr(QuadSeqFast, "g_vec", lambda self, n: n * n)
            monkeypatch.setattr(QuadSeqFast, "g_scalar", lambda self, n: n * n)
        else:
            vec, scalar = QuadSeqFast.g_vec, QuadSeqFast.g_scalar
            monkeypatch.setattr(QuadSeqFast, "g_vec",
                                lambda self, n: vec(self, n) + (n % 3 == 0))
            monkeypatch.setattr(QuadSeqFast, "g_scalar",
                                lambda self, n: scalar(self, n) + (n % 3 == 0))
        code, out, _ = run_cli(argv, capsys)
        verdicts = [json.loads(line).get("verdict") for line in out.splitlines()]
        assert code == 1
        assert "fail" in verdicts
        if argv[1] == "3.1":
            assert verdicts[0] == "fail"

    @pytest.mark.parametrize("signs", [
        pytest.param(((1, 1),), id="close_pm returns its input"),
        pytest.param(((1, 1), (1, -1), (-1, 1)), id="close_pm drops (-1,-1)"),
    ])
    def test_q1_sign_closure_fails_under_a_short_closure(self, signs, monkeypatch, capsys):
        # the closure the harness checks holds only the given flips of Q
        def short_close_pm(Q):
            m, a, b, c = Q.cols
            return ExplicitQSet(np.concatenate(
                [np.stack([m, s * a, t * b, s * t * c]) for s, t in signs], axis=1))
        monkeypatch.setattr(H, "close_pm", short_close_pm)
        code, out, _ = run_cli(["verify", "Q1", "--m-max", "300", "--h-factor", "100"],
                               capsys)
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert [r["verdict"] for r in records if "verdict" in r] == ["pass", "pass", "fail"]
        assert records[2]["witness"]["idempotent"] is False

    def test_reports_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["--out", str(path), "--seed", "99", "verify", "3.2",
                 "--pairs", "5"], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_verbose_adds_runtime(self, capsys):
        code, out, _ = run_cli(
            ["--verbose", "verify", "3.7", "--m-max", "10", "--h-factor", "6"],
            capsys)
        assert code == 0
        last = json.loads(out.strip().splitlines()[-1])
        assert "runtime_ms" in last


class TestFormula:
    def test_closed_formula(self, capsys):
        code, out, err = run_cli(
            ["formula", "exists x in [1,20]: g(x) = 30"], capsys)
        assert code == 0
        assert json.loads(out)["value"] is True
        assert err.strip() == "true"

    def test_free_variable_binding(self, capsys):
        code, out, _ = run_cli(
            ["formula", "forall x in [1,5]: g(x) < bound",
             "--bind", "bound=31"], capsys)
        assert code == 0 and json.loads(out)["value"] is True

    def test_q_relation_from_csv(self, tmp_path, capsys):
        q = tmp_path / "q.csv"
        q.write_text("3,6,9,18\n")
        code, out, _ = run_cli(
            ["formula", "exists m in [1,5]: Q(m, 2*m, 3*m, 6*m)",
             "--q-csv", str(q)], capsys)
        assert code == 0 and json.loads(out)["value"] is True

    @pytest.mark.parametrize("text", ["Q(1,2,3)", "forall k in [1,2]: Q(k)"])
    def test_q_atom_needs_four_arguments(self, text, tmp_path, capsys):
        # refused before the store is read or the formula evaluated
        q = tmp_path / "q.csv"
        q.write_text("1,2,3,6\n")
        code, out, err = run_cli(["formula", text, "--q-csv", str(q)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: Q takes 4 arguments") and "Traceback" not in err

    @pytest.mark.parametrize("binding", ["m", "m=1.5", "=3", "m=x"])
    def test_bad_binding_names_the_flag(self, binding, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "m = 1", "--bind", binding])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --bind: expects name=integer, got {binding!r}" in err
        assert "Error" not in err

    def test_bohr_sequence_available(self, capsys):
        code, out, _ = run_cli(
            ["formula", "forall n in [1,5]: gb(n) = 0"], capsys)
        assert code == 0 and json.loads(out)["value"] is True


# Texts whose handling changed when `eval` text and formulas came to share
# one term grammar: (argv, exit code, text in the report or on stderr).
ONE_GRAMMAR = [
    # an applied name parses in `eval` text (a syntax error at position 1
    # before) and is a sequence, of which `eval` binds none
    (["eval", "g(n)", "--n", "1..1"], 2, "UnboundVariable: sequence g"),
    # a rounding name without its argument is an unbound name (a syntax
    # error at the end of input before)
    (["eval", "nint", "--n", "1..1"], 2, "UnboundVariable: nint"),
    # rounding functions apply in formulas (UnboundVariable before); every
    # formula name is an integer, so the value is an integer
    (["formula", "floor(x) = 1", "--bind", "x=1"], 0, '"value": true'),
    (["formula", "exists x in [-2, 2]: nint(x) + frac(x) + norm(x) = 2"], 0,
     '"value": true'),
    # the indicator is a term in formulas too (a syntax error before)...
    (["formula", "ind(norm(x) < 1) = 1", "--bind", "x=3"], 0, '"value": true'),
    # ...so ind needs norm(...) < ... there (UnboundVariable before)
    (["formula", "ind(x) = 1", "--bind", "x=3"], 2, "ind() requires norm"),
    # formula reports keep the parentheses a product or a negation needs
    # ("a*b*c = 0" and "-a*b = 0" before, which re-parse to other trees)
    (["formula", "a*(b*c) = 0", "--bind", "a=0", "--bind", "b=1", "--bind", "c=2"],
     0, '"formula": "a*(b*c) = 0"'),
    (["formula", "-(a*b) = 0", "--bind", "a=0", "--bind", "b=1"],
     0, '"formula": "-(a*b) = 0"'),
]


@pytest.mark.parametrize("argv, code, text", ONE_GRAMMAR,
                         ids=[" ".join(argv[:2]) for argv, _, _ in ONE_GRAMMAR])
def test_one_grammar_behaviour(argv, code, text, capsys):
    got, out, err = run_cli(argv, capsys)
    assert got == code and text in out + err


class TestSearchAndBohr:
    def test_search_small_norm(self, capsys):
        code, out, _ = run_cli(
            ["search", "small-norm", "--eps", "1/10", "--const", "bohr_alpha",
             "--max", "1000"], capsys)
        assert code == 0
        assert json.loads(out)["m"] == 5

    def test_search_absence_is_a_refuted_range(self, capsys):
        # the scan is certified, so no witness up to --max is a bounded
        # refutation (exit 1), not a usage error (exit 2)
        argv = ["search", "small-norm", "--eps", "1/10000000", "--max", "1000"]
        runs = [run_cli(argv, capsys) for _ in range(2)]
        code, out, err = runs[0]
        assert code == 1 and runs[1] == runs[0]
        assert json.loads(out) == {"search": "small-norm", "eps": "1/10000000",
                                   "max": 1000, "verdict": "refuted-in-range"}
        assert out.count("\n") == 1 and "error" not in err

    @pytest.mark.parametrize("argv", [
        ["search", "small-norm", "--max", "0"], ["verify", "3.8", "--budget", "0"],
        ["verify", "core", "--samples", "0"], ["verify", "3.2", "--pairs", "0"],
        ["verify", "3.3", "--m-max", "0"], ["verify", "3.3", "--n-max", "0"],
        ["verify", "3.5/3.6", "--nprime-max", "0"],
        ["verify", "3.7", "--h-factor", "0"], ["verify", "3.4", "--orbit", "0"],
        ["verify", "3.4", "--grid", "0"]])
    def test_bound_below_one_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expects an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["quadruples", "build", "--m-max", "0"], ["quadruples", "build", "--m-max", "-5"],
        ["quadruples", "build", "--h-factor", "0"], ["search", "weyl"],
        ["search", "weyl", "--max", "10"],
        ["compile", "x1*x2 - 6", "--check", "--m-cap", "0"],
        ["compile", "x1*x2 - 6", "--check", "--n-cap", "-3"],
        ["quadruples", "import"], ["eval", "n", "--n", "5..3"], ["bohr", "eval", "--n", "3..1"]])
    def test_an_empty_request_is_a_usage_error(self, argv, capsys, tmp_path):
        # an empty quadruple store, a weyl search with no target, a
        # solvability check over no m or no n, an import of no file, or an
        # evaluation over an empty range; no report file is opened either
        report = tmp_path / "report.txt"
        for out in ([], ["--out", str(report)]):
            try:
                code = main(out + argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2 and capsys.readouterr().out == ""
        assert not report.exists()

    def test_bohr_eval(self, capsys):
        code, out, _ = run_cli(["bohr", "eval", "--n", "0..6"], capsys)
        assert code == 0
        vals = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert vals == [1, 0, 0, 0, 0, 0, 1]

    def test_bohr_eval_reads_a_window_of_g(self, monkeypatch, capsys):
        # the table's values across a block boundary and at negative n; far
        # out, no table is read, since it would grow to hi
        world = _CONFIG_VALUES["world"](parse_config(DEFAULT_CONFIG_TEXT))
        code, out, _ = run_cli(["bohr", "eval", f"--n=-40..{BLOCK + 40}"], capsys)
        assert code == 0
        assert out == "".join(f"{n}\t{world.g(n)}\n" for n in range(-40, BLOCK + 41))
        monkeypatch.setattr(BohrFast, "table", lambda self, upto: pytest.fail("table read"))
        code, out, _ = run_cli(["bohr", "eval", "--n", "30000000..30000003"], capsys)
        assert code == 0
        assert out == "".join(f"{n}\t{world.fast.g_scalar(n)}\n"
                              for n in range(30_000_000, 30_000_004))

    def test_bohr_seqcheck(self, capsys):
        code, out, _ = run_cli(["bohr", "seqcheck", "--m", "2", "--mt", "4"],
                               capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["says_divides"] and rec["agrees"]

    def test_equidist_small(self, capsys):
        code, out, _ = run_cli(
            ["equidist", "--orbit", "20000", "--samples", "100000",
             "--grid", "10"], capsys)
        assert code == 0
        assert json.loads(out)["discrepancy"] <= 0.02


class TestRepeatedCalls:
    """main() may serve many requests in one process."""

    @pytest.mark.parametrize("argv", [
        ["eval", "nint(beta*n*nint(alpha*n))", "--n", "0..50"],
        ["formula", "exists x in [1, 10]: g(x) = 30"],
        ["verify", "3.7", "--m-max", "10", "--h-factor", "5"],
    ], ids=["eval", "formula", "verify"])
    def test_warm_call_leaves_no_cyclic_garbage(self, argv, tmp_path):
        argv = ["--out", str(tmp_path / "report")] + argv
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0  # first call: lazy imports and caches
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_second_call_does_not_inherit_out_or_verbose(self, tmp_path, capsys):
        verify = ["verify", "3.7", "--m-max", "10", "--h-factor", "5"]
        report = tmp_path / "report"
        assert main(["--out", str(report), "--verbose"] + verify) == 0
        assert "runtime_ms" in report.read_text()
        capsys.readouterr()
        assert main(verify) == 0
        printed = capsys.readouterr().out
        assert '"summary"' in printed and "runtime_ms" not in printed


class TestFileErrors:
    """A file that cannot be opened is an error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["quadruples", "import", "--csv", "{missing}"],
        ["verify", "Q1", "--from", "{missing}"],
        ["formula", "exists m in [1,2]: Q(m, m, m, m)", "--q-csv", "{missing}"],
        ["--out", "{missing_dir}/r.json", "eval", "n", "--n", "1..2"],
    ])
    def test_unreadable_file(self, argv, tmp_path, capsys):
        argv = [a.format(missing=tmp_path / "missing.csv",
                         missing_dir=tmp_path / "missing") for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: FileNotFoundError: ") and "Traceback" not in err

    def test_out_directory_is_checked_before_the_work(self, tmp_path, monkeypatch,
                                                      capsys):
        def never(*args, **kwargs):
            raise AssertionError("the harness ran before the --out check")

        monkeypatch.setattr("gparith.harness.verify_lemma33", never)
        code, out, err = run_cli(["--out", str(tmp_path / "missing" / "x.json"),
                                  "verify", "3.3", "--m-max", "500"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: FileNotFoundError: ")
