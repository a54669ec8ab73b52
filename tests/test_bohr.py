from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gparith.bohr import (
    BohrBounds,
    BohrParams,
    BohrWorld,
    divisibility_sequence_check,
)
from gparith.errors import PreconditionViolated

mp.mp.dps = 50


class TestParams:
    def test_rho_range(self, sqrt2):
        with pytest.raises(PreconditionViolated):
            BohrParams(sqrt2, Fraction(1, 3))
        with pytest.raises(PreconditionViolated):
            BohrParams(sqrt2, Fraction(0))
        BohrParams(sqrt2, Fraction(1, 5))

    def test_alpha_irrational(self, sqrt2_field):
        with pytest.raises(PreconditionViolated):
            BohrParams(sqrt2_field.from_rational(Fraction(3, 7)), Fraction(1, 5))

    def test_bounds_validate(self):
        with pytest.raises(ValueError):
            BohrBounds(N_cap=0)


class TestIndicator:
    def test_zero(self, bohr_world):
        assert bohr_world.g(0) == 1  # norm 0 < rho

    def test_one(self, bohr_world):
        # ||sqrt2|| ~ 0.414 >= 1/5
        assert bohr_world.g(1) == 0

    def test_even_and_binary(self, bohr_world):
        for n in range(0, 40):
            assert bohr_world.g(n) in (0, 1)
            assert bohr_world.g(-n) == bohr_world.g(n)

    def test_against_oracle(self, bohr_world):
        s2 = mp.sqrt(2)
        for n in range(0, 200):
            v = s2 * n * n
            nearest = mp.floor(v + mp.mpf(1) / 2)
            want = 1 if abs(v - nearest) < mp.mpf(1) / 5 else 0
            assert bohr_world.g(n) == want

    def test_a_read_past_the_table_does_not_grow_it(self, sqrt2):
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        table = world.fast.table(1000)
        ns = [1000, len(table), 20_000_000, -20_000_001]
        assert [world.g(n) for n in ns] == world.fast.g_vec(np.abs(ns)).tolist()
        assert world.fast.table(0) is table


class TestThreshold:
    def test_n1_value(self, bohr_world, sqrt2):
        d = bohr_world.delta_threshold(1)
        # |(sqrt2 - 1) - 1/5| = sqrt2 - 6/5
        assert d == sqrt2 - Fraction(6, 5)

    def test_positive_and_monotone(self, bohr_world):
        prev = None
        for N in (1, 5, 20, 50):
            d = bohr_world.delta_threshold(N)
            assert d.sign() > 0
            if prev is not None:
                assert (prev - d).sign() >= 0
            prev = d


class TestAlmostPeriods:
    def test_mu_trivial(self, bohr_world):
        assert bohr_world.mu(0, 10)
        assert bohr_world.mu(7, 0)

    def test_mu_exact(self, bohr_world):
        for m in (1, 6, 13):
            want = all(bohr_world.g(n + m) == bohr_world.g(n)
                       for n in range(1, 11))
            assert bohr_world.mu(m, 10) == want

    @pytest.mark.parametrize("N", [1, 2, 6, 10, 25])
    def test_mu_agrees_with_the_mu_set(self, bohr_world, N):
        S = set(bohr_world.mu_true_upto(3000, N).tolist())
        assert [bohr_world.mu(m, N) for m in range(1, 3001)] == \
            [m in S for m in range(1, 3001)]

    def test_mu_at_a_large_m_reads_a_window(self, sqrt2):
        # a premise modulus of Lemma 4.1 at N = 50: the table would need
        # 8.3e7 entries, so mu reads g(m+1..m+N) alone
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        m, N = 82_951_766, 50
        g = world.fast.g_scalar
        assert all(g(m + n) == g(n) for n in range(1, N + 1))
        assert world.mu(m, N)
        assert len(world.fast.table(0)) < 2 * (N + 1)

    def test_lambda_zero(self, bohr_world):
        assert bohr_world.lambda_(0, 10)

    def test_lambda_against_loop(self, bohr_world):
        S = bohr_world.mu_true_upto(5000, 6)
        sset = set(int(x) for x in S)
        for m in (17, 181, 204):
            want = any(x in sset and x + m in sset
                       for x in range(1, bohr_world.bounds.n_cap + 1))
            assert bohr_world.lambda_(m, 6) == want


class TestKappaNuDelta:
    def test_kappa_good_m_verified(self, bohr_world, sqrt2):
        # m = 13 has a tiny quadratic norm (found by witness search)
        assert float((sqrt2 * 169).circle_norm()) < 0.003
        v = bohr_world.kappa(13, 10)
        assert v.tag == "verified-in-range" and v.value is True

    def test_kappa_bad_m_refuted(self, bohr_world, sqrt2):
        assert float((sqrt2 * 1).circle_norm()) > 0.3
        v = bohr_world.kappa(1, 10)
        assert v.tag == "refuted-in-range" and v.value is False

    def test_kappa_degenerate_caps_exhausted(self, sqrt2):
        tiny = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)),
                         BohrBounds(N_cap=1, M_cap=1, L_cap=1, h_cap=1,
                                    n_cap=1, outer_cap=1, seq_len=1))
        v = tiny.kappa(5, 1)
        assert v.tag == "cap-exhausted" and v.value is None

    def test_nu_reflexive_verified(self, bohr_world):
        # consequent level N_cap <= L_cap makes the reflexive shift trivial
        v = bohr_world.nu(3, 3, bohr_world.bounds.N_cap)
        assert v.value is True

    def test_delta_reflexive_and_divisible(self, bohr_world):
        assert bohr_world.delta_rel(5, 5).value is True
        assert bohr_world.delta_rel(2, 6).value is True


class TestLemma41Converse:
    def test_nonvacuous_at_small_level(self, bohr_world):
        # at N = 50 the explicit thresholds admit no m <= 1e5 (reported
        # vacuously); at N = 5 the premise set is nonempty and every
        # premise m is an exact almost-period
        from gparith.harness import verify_lemma41

        r = verify_lemma41(bohr_world, N=5, m_max=100_000, trend_Ns=(5, 25))
        assert r.ok
        assert r.summary["premise_count"] > 0

    def test_vacuous_pass_is_marked(self, bohr_world):
        from gparith.harness import verify_lemma41

        empty = verify_lemma41(bohr_world, N=50, m_max=20_000, trend_Ns=(5,))
        assert empty.ok and empty.summary["premise_count"] == 0
        assert empty.vacuous
        found = verify_lemma41(bohr_world, N=5, m_max=20_000, trend_Ns=(5,))
        assert found.ok and found.summary["premise_count"] > 0
        assert not found.vacuous


class TestDivisibilitySequences:
    def test_divisible_pair(self, bohr_world):
        rep = divisibility_sequence_check(bohr_world, 2, 6)
        assert rep.b == 1 and rep.says_divides and rep.agrees
        assert rep.tail_max < 0.01
        assert rep.sequence == sorted(set(rep.sequence))

    def test_non_divisible_pair(self, bohr_world):
        rep = divisibility_sequence_check(bohr_world, 2, 3)
        assert rep.b == 2 and not rep.says_divides and rep.agrees
        assert all(abs(t - 0.5) < 0.05 for t in rep.tail_norms)

    def test_reflexive(self, bohr_world):
        rep = divisibility_sequence_check(bohr_world, 5, 5)
        assert rep.says_divides and rep.agrees

    def test_schedule_satisfies_decreasing_bounds(self, bohr_world):
        rep = divisibility_sequence_check(bohr_world, 3, 4)
        K = len(rep.sequence)
        for i, (a, b) in enumerate(zip(rep.norm_2am, rep.norm_asq), start=1):
            assert a < 2.0 ** -min(i, K)
            assert b < 2.0 ** -min(i, K)
