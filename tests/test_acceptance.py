"""Acceptance suite: every criterion at its stated scale and tolerance,
one pass/fail line per criterion on stdout (run with pytest -s to watch).
"""

import io
import time
from fractions import Fraction

import pytest

from gparith import harness as H
from gparith.bohr import BohrParams, BohrWorld
from gparith.exactnum import NumberField
from gparith.focheck import AlphaContext

SEED = 0xC0FFEE


@pytest.fixture(scope="module")
def cbrt2_field():
    return NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))


@pytest.fixture(scope="module")
def ctx(cbrt2_field):
    return AlphaContext(cbrt2_field.theta, 1)


@pytest.fixture(scope="module")
def world():
    sqrt2 = NumberField([-2, 0, 1], (1, 2)).theta
    return BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))


def report(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name} ({elapsed:.1f}s) {detail}",
          flush=True)


def test_criterion_01_numeric_core(cbrt2_field):
    t0 = time.monotonic()
    r = H.verify_numeric_core(cbrt2_field, count=1000, seed=SEED)
    dt = time.monotonic() - t0
    report(1, "numeric core soundness", r.ok, dt,
           f"failures {r.summary['failures']}/1000")
    assert r.ok
    assert dt < 10


def test_criterion_02_lemma31_calibration(cbrt2_field):
    t0 = time.monotonic()
    r = H.verify_lemma31(cbrt2_field.theta, 1, samples=10_000, seed=SEED)
    dt = time.monotonic() - t0
    report(2, "second-derivative criterion calibration", r.ok, dt,
           f"C={r.summary.get('C')} mode={r.summary.get('gamma_mode')} "
           f"indist={r.summary.get('modes_indistinguishable')}")
    assert r.ok
    assert r.summary["C"] <= 1024
    assert dt < 300


def test_criterion_02_lemma31_calibration_beta_third(cbrt2_field):
    # at beta = 1 every gamma term vanishes and the control passes only as
    # "indistinguishable"; at beta = 1/3 the opposite mode must fail
    t0 = time.monotonic()
    r = H.verify_lemma31(cbrt2_field.theta, Fraction(1, 3), samples=10_000, seed=SEED)
    dt = time.monotonic() - t0
    C, mode = r.summary.get("C"), r.summary.get("gamma_mode")
    other = "off-diagonal" if mode == "all-pairs" else "all-pairs"
    other_fail = r.summary["failures"][f"C={C},{other}"]
    report(2, "second-derivative criterion calibration, beta = 1/3", r.ok, dt,
           f"C={C} mode={mode} opposite-mode failures={other_fail}")
    assert r.ok
    assert not r.summary["modes_indistinguishable"]
    assert other_fail >= 1
    assert dt < 300


def test_criterion_03_lemma32_witnesses(ctx):
    t0 = time.monotonic()
    r = H.verify_lemma32(ctx, C=2, n_pairs=100, seed=SEED)
    dt = time.monotonic() - t0
    report(3, "witness existence/absence", r.ok, dt,
           f"{r.summary['positive_pairs']}+{r.summary['negative_pairs']} pairs")
    assert r.ok
    # each pair is read over [C*n1, C*n1 + W]; the summary holds the widest
    assert r.summary["max_W"] == max(rec["caps"]["W"] for rec in r.records) > 0
    assert dt < 300


def test_criterion_04_lemma33_window(ctx):
    t0 = time.monotonic()
    r = H.verify_lemma33(ctx, C=2, N_max=30, m_max=10_000)
    dt = time.monotonic() - t0
    report(4, "fractional-part window equivalence", r.ok, dt,
           f"mismatches={r.summary['mismatches']}")
    assert r.ok
    assert dt < 120


def test_criterion_05_equidistribution(cbrt2_field):
    t0 = time.monotonic()
    r = H.verify_lemma34(cbrt2_field.theta, N=200_000, M=1_000_000, grid=20,
                         tol=0.02, seed=SEED)
    dt = time.monotonic() - t0
    report(5, "orbit equidistribution", r.ok, dt,
           f"discrepancy={r.summary['discrepancy']:.4f} "
           f"origin={r.summary['origin_fraction']:.4f}")
    assert r.ok
    assert r.records[0]["instance"]["abcd"] == [1, 2, 3, 1]
    assert dt < 120


def test_criterion_06_divisibility_relation(ctx):
    t0 = time.monotonic()
    r = H.verify_lemma36(ctx, n_max=50, nprime_max=600)
    conv = H.verify_converse34(ctx, count=1000, seed=SEED)
    dt = time.monotonic() - t0
    report(6, "bounded relation vs arithmetic characterisation",
           r.ok and conv.ok, dt,
           f"mismatches={r.summary['mismatches']} "
           f"cap-exhausted={r.summary['cap_exhausted']} "
           f"converse-instances={conv.summary['instances']}")
    assert r.ok
    assert r.summary["mismatches"] == 0
    assert conv.ok and conv.summary["instances"] == 1000
    assert dt < 300


def test_criterion_07_polynomial_progressions(ctx):
    t0 = time.monotonic()
    r = H.verify_lemma37_range(ctx, m_max=100, h_factor=30)
    dt = time.monotonic() - t0
    report(7, "quadratic restriction equivalence", r.ok, dt,
           f"instances={r.summary['instances']}")
    assert r.ok
    assert dt < 120


def test_criterion_08_progression_bases(ctx):
    t0 = time.monotonic()
    r = H.verify_lemma38(ctx, budget_cap=10**7)
    dt = time.monotonic() - t0
    report(8, "long admissible progressions", r.ok, dt,
           f"rs={r.summary['rs']}")
    assert r.ok
    assert r.summary["rs"] == list(range(2, 9))
    assert dt < 300


def test_criterion_09_q_axioms(ctx):
    t0 = time.monotonic()
    r = H.verify_q_axioms(ctx, m_max=10_000, h_factor=1000)
    dt = time.monotonic() - t0
    report(9, "quadruple set axioms", r.ok, dt,
           f"quadruples={r.summary['quadruples']} Q2_m={r.summary['Q2_m']}")
    assert r.ok
    assert dt < 300


def test_criterion_10_dilation_identity():
    t0 = time.monotonic()
    r = H.verify_lemma22(count=500, seed=SEED)
    dt = time.monotonic() - t0
    report(10, "scaled-evaluation identity", r.ok, dt,
           f"contract-checked={r.summary['contract_checked']}")
    assert r.ok
    assert dt < 60


def test_criterion_11_reduction_soundness():
    t0 = time.monotonic()
    r = H.verify_prop21(n_cap=10)
    dt = time.monotonic() - t0
    report(11, "solvability reduction (desk-scale)", r.ok, dt)
    assert r.ok
    assert all(rec["caps"]["m_cap"] == 4 for rec in r.records)
    assert dt < 120


def test_criterion_12_quadratic_indicator_suite(world):
    t0 = time.monotonic()
    r41 = H.verify_lemma41(world, N=50, m_max=100_000)
    r45 = H.verify_lemma45(world, max_m=12)
    dt = time.monotonic() - t0
    report(12, "indicator-world converse + divisibility sequences",
           r41.ok and r45.ok, dt,
           f"premises={r41.summary['premise_count']} "
           f"{'(vacuous) ' if r41.vacuous else ''}"
           f"pairs={r45.summary['pairs']} failures={r45.summary['failures']}")
    assert r41.ok
    assert r45.ok
    assert dt < 600


def test_criterion_13_determinism(ctx, cbrt2_field, world):
    t0 = time.monotonic()

    def run_suite() -> bytes:
        buf = io.StringIO()
        H.emit_jsonl(H.verify_lemma22(count=50, seed=SEED), buf)
        H.emit_jsonl(H.verify_lemma31(cbrt2_field.theta, 1, samples=300,
                                      seed=SEED), buf)
        H.emit_jsonl(H.verify_lemma32(ctx, C=2, n_pairs=10, seed=SEED), buf)
        H.emit_jsonl(H.verify_lemma34(cbrt2_field.theta, N=20_000, M=100_000,
                                      grid=10, seed=SEED), buf)
        H.emit_jsonl(H.verify_lemma37_range(ctx, m_max=20, h_factor=10), buf)
        H.emit_jsonl(H.verify_lemma45(world, max_m=4), buf)
        return buf.getvalue().encode()

    first = run_suite()
    second = run_suite()
    dt = time.monotonic() - t0
    report(13, "byte-identical reports under a fixed seed", first == second,
           dt, f"{len(first)} bytes")
    assert first == second
