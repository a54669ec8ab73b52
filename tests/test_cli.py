import contextlib
import gc
import io
import json
import sys

import pytest

from gparith.cli import main
from gparith.config import DEFAULT_CONFIG_TEXT, ConfigError, parse_config


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


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
        with pytest.raises(ConfigError):
            parse_config("threads = 2")
        cfg = tmp_path / "session.cfg"
        cfg.write_text(DEFAULT_CONFIG_TEXT + "threads = 2\n")
        code, _, err = run_cli(["--config", str(cfg), "eval", "n", "--n", "1..1"], capsys)
        assert code == 2 and "ConfigError" in err

    def test_caps_flow_into_profiles(self):
        cfg = parse_config("n2_cap = 777\nbohr_N_cap = 5\n")
        assert cfg.bound_profile().n2_cap == 777
        assert cfg.bohr_bounds().N_cap == 5


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
        assert code == 2 and "UnknownConstant" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "nint(n", "--n", "1..1"], capsys)
        assert code == 2


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

    def test_bohr_sequence_available(self, capsys):
        code, out, _ = run_cli(
            ["formula", "forall n in [1,5]: gb(n) = 0"], capsys)
        assert code == 0 and json.loads(out)["value"] is True


class TestSearchAndBohr:
    def test_search_small_norm(self, capsys):
        code, out, _ = run_cli(
            ["search", "small-norm", "--eps", "1/10", "--const", "bohr_alpha",
             "--strategy", "exhaustive", "--max", "1000"], capsys)
        assert code == 0
        assert json.loads(out)["m"] == 5

    def test_bohr_eval(self, capsys):
        code, out, _ = run_cli(["bohr", "eval", "--n", "0..6"], capsys)
        assert code == 0
        vals = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert vals == [1, 0, 0, 0, 0, 0, 1]

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
