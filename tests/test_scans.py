"""Whole-array scans against the literal definitions they compute.

`BohrWorld.mu_true_upto`, `BohrWorld.lambda_vec`, `BohrWorld._kappa_table`,
the psi table of `harness.verify_lemma33`, `harness.verify_lemma37_range`,
the sliced push-forward histogram and the exact orbit histogram of
`equidist_check` and `focheck.ell` are each compared with a direct,
element-by-element reading of what they compute.  The psi table, the
lock-step column scan `diosearch.lemma32_columns` over
[C*m, C*m + _EXTEND_CAP], is compared with the literal windowed search
through the real sequence and through a stub handle over a random or
planted array, with the conjunction over n of the literal search at the
plastic number, and with `def_psi`, the formula evaluator of the same
psi; its memory, read at the widths of `lemma32_read_bound`, is measured
not to grow with the number of columns, and that of `equidist_check` not
to grow with N and M (its r is drawn in slices, checked against one
draw). The mu sets and the lambda and kappa tables are also read through
one world answering a sequence of smaller and larger queries, the last two
from their caches.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gparith._fastlane import BLOCK, FastConst, QuadSeqFast
from gparith import bohr, diosearch
from gparith.bohr import BohrParams, BohrWorld
from gparith.diosearch import (
    _R_SLICE,
    _edge_counts,
    continued_fraction,
    equidist_check,
    lemma32_columns,
    lemma32_read_bound,
)
from gparith.exactnum import NumberField, circle_norm, floor_exact
from gparith.focheck import AlphaContext, def_psi, ell, verify_lemma37
from gparith.genpoly import SequenceHandle
from gparith.harness import verify_lemma37_range
from test_exactnum import _ref_inverse


def _mu_set_literal(world, x_max, N):
    """The x in 1..x_max with no first mismatch: no n in 1..N has
    g(n+x) != g(n)."""
    G = [world.g(n) for n in range(x_max + N + 1)]
    radius = [next((n for n in range(1, N + 1) if G[n + x] != G[n]), N + 1)
              for x in range(x_max + 1)]
    return [x for x in range(1, x_max + 1) if radius[x] == N + 1]


class TestRadius:
    @pytest.mark.parametrize("N,x_max", [(6, 4000), (10, 4000), (25, 4000),
                                         (200, 2000)])
    def test_against_first_mismatch_loop(self, sqrt2, N, x_max):
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        S = world.mu_true_upto(x_max, N)
        assert S.dtype == np.int64
        want = _mu_set_literal(world, x_max, N)
        assert S.tolist() == want
        # small windows have almost periods x >= 1; N = 200 has none here
        assert (len(want) > 0) == (N <= 25)

    @pytest.mark.parametrize("calls", [
        # windows up, then down, then a longer x_max
        [(4000, 25), (4000, 50), (4000, 200), (4000, 10), (7900, 10), (7900, 200),
         (2000, 6)],
        # a wider window after a longer x_max: x = 9273 has mu(x, 25), so
        # the query reads g past 9280, the end of the table the first left
        [(9273, 6), (2000, 50), (9273, 25), (500, 400)],
    ])
    def test_one_world_answers_as_fresh_worlds(self, sqrt2, calls):
        params = BohrParams(sqrt2, Fraction(1, 5))
        world = BohrWorld(params)
        for x_max, N in calls:
            S = world.mu_true_upto(x_max, N)
            assert S.tolist() == _mu_set_literal(BohrWorld(params), x_max, N), (x_max, N)


def _lambda_literal(world, N, n_max):
    """lam[n] by the per-n reading: some mu-set member s <= WITNESS_CAP has
    s + n in the mu set too."""
    cap = bohr.WITNESS_CAP
    S = world.mu_true_upto(cap + n_max, N)
    inset = np.zeros(cap + n_max + 2, dtype=bool)
    inset[S] = True
    base = S[S <= cap]
    return [bool(np.any(inset[base + n])) for n in range(n_max + 1)]


class TestLambdaVec:
    @pytest.mark.parametrize("N,n_max", [(6, 40), (6, 500), (10, 300), (40, 200)])
    def test_against_per_n_loop(self, sqrt2, N, n_max, monkeypatch):
        cap = 3000
        monkeypatch.setattr(bohr, "WITNESS_CAP", cap)
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        want = _lambda_literal(world, N, n_max)
        assert world.lambda_vec(N, n_max).tolist() == want
        S = world.mu_true_upto(cap + n_max, N)
        base = S[S <= cap]
        if N == 40:
            assert len(S) == 0  # the empty mu set
        else:
            assert 0 < len(base) and any(want) and not all(want[1:])
            assert (n_max < len(base)) == (N == 6 and n_max == 40)

    def test_one_world_serves_prefixes_of_the_same_N_only(self, sqrt2, monkeypatch):
        monkeypatch.setattr(bohr, "WITNESS_CAP", 3000)
        params = BohrParams(sqrt2, Fraction(1, 5))
        world = BohrWorld(params)
        for N, n_max in [(6, 500), (6, 40), (10, 300), (10, 300), (6, 300),
                         (14, 200), (10, 100)]:
            lam = world.lambda_vec(N, n_max)
            assert lam.tolist() == _lambda_literal(BohrWorld(params), N, n_max), \
                (N, n_max)


def _kappa_literal(world, N, x_max):
    """kappa(x, N) for 0 <= x <= x_max by its definition: for every h <= H_CAP
    with g(h) = 1 and lambda(h, M_CAP), some n <= WITNESS_CAP with
    lambda(n, L_CAP) and mu(n, N) has g(h + x + n) = 1. None when no such h
    exists."""
    cap, h_cap, M, L = bohr.WITNESS_CAP, bohr.H_CAP, bohr.M_CAP, bohr.L_CAP
    G = [world.g(n) for n in range(h_cap + x_max + 2 * cap + max(N, M, L) + 2)]

    def mu(x, M):
        return G[x + 1:x + M + 1] == G[1:M + 1]

    def lam(n, M):
        return any(mu(s, M) and mu(s + n, M) for s in range(1, cap + 1))

    hs = [h for h in range(1, h_cap + 1) if G[h] == 1 and lam(h, M)]
    if not hs:
        return None
    cand = [n for n in range(1, cap + 1) if mu(n, N) and lam(n, L)]
    return [all(any(G[h + x + n] == 1 for n in cand) for h in hs)
            for x in range(x_max + 1)]


def _set_caps(monkeypatch, **caps):
    for name, value in caps.items():
        monkeypatch.setattr(bohr, name, value)


class TestKappaTable:
    CAPS = dict(WITNESS_CAP=3000, H_CAP=80, M_CAP=6, L_CAP=6)

    @pytest.mark.parametrize("N", [10, 14])
    def test_against_its_definition(self, sqrt2, N, monkeypatch):
        _set_caps(monkeypatch, **self.CAPS)
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        table = world._kappa_table(N, 100)
        assert len(table) == 4097  # x_max is rounded up to 4096
        want = _kappa_literal(world, N, 4096)
        assert table.tolist() == want
        assert any(want) and not all(want)

    def test_cache_serves_a_smaller_x_max_of_the_same_N(self, sqrt2, monkeypatch):
        _set_caps(monkeypatch, **self.CAPS)
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        assert len(world._kappa_table(10, 5000)) == 8193
        for N, size in [(10, 8193), (14, 4097)]:
            table = world._kappa_table(N, 100)
            assert len(table) == size
            assert table.tolist() == _kappa_literal(world, N, size - 1)

    def test_no_admissible_h_is_none(self, sqrt2, monkeypatch):
        # g(1) = ... = g(5) = 0 for sqrt2 and rho = 1/5
        _set_caps(monkeypatch, WITNESS_CAP=3000, H_CAP=5)
        world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
        assert _kappa_literal(world, 10, 100) is None
        assert world._kappa_table(10, 100) is None
        assert world._kappa_table(10, 50) is None  # from the cache
        assert world.kappa(3, 10).value is None


# The psi tables here read every row over [C*m, C*m + _EXTEND_CAP], and the
# literal search below reads in windows that grow from _FIRST_WINDOW.
_EXTEND_CAP = 200_000
_FIRST_WINDOW = 256


def _columns(N_max, m_max, C, g):
    """lemma32_columns at the fixed width _EXTEND_CAP for every row."""
    psi, widest = lemma32_columns(N_max, m_max, C, lambda n, ms: _EXTEND_CAP, g)
    assert widest == _EXTEND_CAP
    return psi


class _Array(SequenceHandle):
    """g(n) = G[n] over a random or planted array G."""

    def __init__(self, G):
        super().__init__()
        self.G = G

    def g_scalar(self, n):
        return int(self.G[n])

    def g_range(self, lo, hi):
        return self.G[lo:hi + 1]


def _least_offset(G, C, n, m):
    """The least x in [0, _EXTEND_CAP] with D2 g(n, m, C*m + x) = D2 g(n, m, 0),
    by the literal search in windows that grow from _FIRST_WINDOW; None if
    there is none."""
    lo, width, end = C * m, _FIRST_WINDOW, C * m + _EXTEND_CAP
    target = int(G[n + m]) - int(G[n]) - int(G[m]) + int(G[0])
    while lo <= end:
        hi = min(lo + width - 1, end)
        w = hi - lo + 1
        d2 = (G[lo + n + m:lo + n + m + w] - G[lo + n:lo + n + w]
              - G[lo + m:lo + m + w] + G[lo:lo + w])
        hits = np.flatnonzero(d2 == target)
        if len(hits):
            return lo + int(hits[0]) - C * m
        lo = hi + 1
        width *= 4
    return None


def _mu_table(G, C, N_max, m_max):
    """mu(n, m) by the literal windowed search, and whether each match lay
    past the first window; row n - 1, column m (column 0 False)."""
    mu = np.zeros((N_max, m_max + 1), dtype=bool)
    late = np.zeros_like(mu)
    for n in range(1, N_max + 1):
        for m in range(1, m_max + 1):
            x = _least_offset(G, C, n, m)
            mu[n - 1, m] = x is not None
            late[n - 1, m] = x is not None and x >= _FIRST_WINDOW
    return mu, late


class TestPsiTable:
    def test_quadratic_sequence(self, ctx):
        C, N_max, m_max = 2, 30, 40
        G = ctx.g.g_range(0, C * m_max + _EXTEND_CAP + N_max + m_max + 4)
        mu, _ = _mu_table(G, C, N_max, m_max)
        psi = _columns(N_max, m_max, C, ctx.g)
        assert np.array_equal(psi, np.logical_and.accumulate(mu, axis=0))

    def test_late_matches_and_early_stop(self):
        # small random values, and one huge g(5) that no window can match,
        # so mu(5, m) is False between True rows
        C, N_max, m_max = 2, 8, 40
        G = np.random.default_rng(0).integers(
            0, 1000, C * m_max + _EXTEND_CAP + N_max + m_max + 4)
        G[5] = 10**9
        mu, late = _mu_table(G, C, N_max, m_max)
        assert late.any()  # first window missed, a later window matched
        # a column with mu False at some n and True at a later n
        assert any(not mu[i, m] and mu[i + 1:, m].any()
                   for m in range(1, m_max + 1) for i in range(N_max))
        psi = _columns(N_max, m_max, C, _Array(G))
        assert np.array_equal(psi, np.logical_and.accumulate(mu, axis=0))
        assert psi[3, 1:].any() and not psi[4:, 1:].any()


def test_each_column_reads_to_its_own_width():
    # in one row column 1 reads 5 offsets past C*m and column 2 reads 50: a
    # witness of column 1 at offset 6 lies past its own read, though not
    # past the row's widest, so psi is False there until its width is 6
    C = 2
    G = np.random.default_rng(3).integers(-2**40, 2**40, 200)
    for m, offset in ((1, 6), (2, 20)):
        x = C * m + offset
        G[x + 1 + m] = G[1 + m] - G[1] - G[m] + G[0] + G[x + 1] + G[x + m] - G[x]
    for w1, want in ((5, False), (6, True)):
        psi, widest = lemma32_columns(1, 2, C, lambda n, ms: np.where(ms == 1, w1, 50), _Array(G))
        assert psi.tolist() == [[False, want, True]] and widest == 50


@pytest.mark.parametrize("N_max", [30, 180])
def test_plastic_psi_table_is_the_conjunction_of_scans(N_max):
    # at the plastic number least witnesses lie up to 9 past C*m, not 3 as
    # at the cube root of 2.  Columns 117 and 194 hold through n = 173 and
    # no other column of m <= 200 lasts as long, so at N_max = 180 the live
    # set empties before the last row
    C, m_max = 2, 200
    K = NumberField([-1, -1, 0, 1], (Fraction(13, 10), Fraction(4, 3)))
    g = AlphaContext(K.theta, 1).g
    G = g.g_range(0, C * m_max + _EXTEND_CAP + N_max + m_max)
    want = np.zeros((N_max, m_max + 1), dtype=bool)
    offsets = set()
    for m in range(1, m_max + 1):
        for n in range(1, N_max + 1):
            x = _least_offset(G, C, n, m)
            if x is None:
                break
            want[n - 1, m] = True
            offsets.add(x)
    assert np.array_equal(_columns(N_max, m_max, C, g), want)
    assert max(offsets) > 3
    if N_max == 30:
        assert want[:, [40, 77, 117, 157, 194]].all()
    else:
        assert want[172, [117, 194]].all() and not want[173:].any()


def test_psi_table_memory_does_not_grow_with_m_max(ctx):
    # after the table has grown, the scan holds one row of int64 first
    # differences and one gather of columns, whatever the number of columns;
    # it reads at the widths of `verify 3.3`, and a first scan grows the table
    C, N_max = 2, 30
    width = lemma32_read_bound(ctx.g.const)
    peaks = []
    for m_max in (500, 2000):
        lemma32_columns(N_max, m_max, C, width, ctx.g)
        tracemalloc.start()
        try:
            lemma32_columns(N_max, m_max, C, width, ctx.g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_psi_table_matches_the_formula(ctx):
    # the two evaluators of psi: the table of `verify 3.3` and `def_psi`,
    # eval_formula on psi_formula with n2 up to the table's extend cap.  No
    # m <= 40 is in the N = 30 window, so the first three that are join in,
    # and every N sees both truth values
    C = 2
    ms = list(range(1, 41)) + [m for m in range(41, 200) if ctx.in_window(m, 30)][:3]
    psi = _columns(30, ms[-1], C, ctx.g)
    for N in (1, 2, 5, 30):
        got = [def_psi(m, N, C, _EXTEND_CAP, ctx.g) for m in ms]
        assert got == [bool(psi[N - 1, m]) for m in ms], N
        assert set(got) == {False, True}, N


class TestPsiTableWideValues:
    """psi against the Python-int form of _mu_table (G as an object array),
    on g values far past int32: the table reads them in int64, and a second
    difference that matches its target only modulo 2**16 or 2**32 must not
    pass for a witness."""

    C, N_max, m_max = 2, 3, 3

    def wide_G(self, seed):
        return np.random.default_rng(seed).integers(
            -2**40, 2**40, self.C * self.m_max + _EXTEND_CAP + self.N_max + self.m_max + 4)

    @staticmethod
    def target(G, n, m):
        return int(G[n + m]) - int(G[n]) - int(G[m]) + int(G[0])

    def plant(self, G, n, m, offset, excess=0):
        """Make n2 = C*m + offset give d2 = target(n, m) + excess."""
        p = self.C * m + offset
        G[p + n + m] = (self.target(G, n, m) + int(G[p + n]) + int(G[p + m])
                        - int(G[p]) + excess)
        return p

    def psi(self, G):
        return _columns(self.N_max, self.m_max, self.C, _Array(G))

    def exact_psi(self, G):
        mu, late = _mu_table(G.astype(object), self.C, self.N_max, self.m_max)
        return np.logical_and.accumulate(mu, axis=0), mu, late

    def test_wide_values_give_the_exact_table(self):
        G = self.wide_G(1)
        # true witnesses in the first window, in a later window and at the
        # last n2 of the cap, and one just past the cap that does not count.
        # d2 is symmetric in n and m, so (2, 1) at n2 = 5002 plants (1, 2)
        # too; the other offsets keep each mirror outside its range
        for (n, m), offset in {(1, 1): 10, (2, 1): 5000, (3, 1): 1,
                               (2, 3): _EXTEND_CAP, (1, 3): _EXTEND_CAP + 2}.items():
            self.plant(G, n, m, offset)
        psi, mu, late = self.exact_psi(G)
        assert np.abs(G).max() > 2**32  # G and H wrap mod 2**16, and would in int32
        assert mu[:, 1].all() and late[1, 1] and mu[0, 2] and late[0, 2]
        assert not mu[1:, 2].any() and not mu[0, 3] and mu[1, 3] and late[1, 3]
        assert psi[:, 1].all() and psi[0, 2] and not psi[1:, 2].any()
        assert not psi[:, 3].any()
        assert np.array_equal(self.psi(G), psi)

    def test_a_match_modulo_a_power_of_two_is_no_witness(self):
        # d2 = target + excess at n2 = p: every excess is 0 mod 2**16, so a
        # residue read would pass it; 2**16 and -3*2**16 would not pass int32
        for seed, excess in enumerate((2**32, 2**16, -3 * 2**16), start=2):
            G = self.wide_G(seed)
            p = self.plant(G, 1, 2, 300, excess=excess)
            d2 = int(G[p + 3]) - int(G[p + 1]) - int(G[p + 2]) + int(G[p])
            assert d2 - self.target(G, 1, 2) == excess
            psi, mu, _ = self.exact_psi(G)
            assert not mu[0, 2]
            assert np.array_equal(self.psi(G), psi)
            # a true witness after the collision makes mu(1, 2) hold
            self.plant(G, 1, 2, 700)
            psi, mu, _ = self.exact_psi(G)
            assert mu[0, 2]
            assert np.array_equal(self.psi(G), psi)
        # without the excess the same n2 is a witness
        self.plant(G, 1, 2, 300)
        assert self.psi(G)[0, 2]

    def first_window_hits(self, G, n, m):
        """The n2 among the first _FIRST_WINDOW from C*m whose d2 matches
        target(n, m) mod 2**16: those a residue read would pass."""
        t, lo = self.target(G, n, m), self.C * m
        return [x for x in range(lo, lo + _FIRST_WINDOW)
                if (int(G[x + n + m]) - int(G[x + n]) - int(G[x + m]) + int(G[x]) - t) % 2**16 == 0]

    @pytest.mark.parametrize("witness", [100, 5000, None])
    def test_a_collision_first_in_the_first_window(self, witness):
        # the least residue hit of the first window is a collision (excess
        # 2**16); a true witness lies later in that window, past it, or
        # nowhere
        G = self.wide_G(4)
        n, m = 1, 2
        p = self.plant(G, n, m, 5, excess=2**16)
        if witness is not None:
            self.plant(G, n, m, witness)
        hits = self.first_window_hits(G, n, m)
        assert hits[0] == p
        assert (witness is not None and self.C * m + witness in hits) == (witness == 100)
        psi, mu, late = self.exact_psi(G)
        assert mu[0, m] == (witness is not None) and late[0, m] == (witness == 5000)
        assert np.array_equal(self.psi(G), psi)

    def test_an_int64_wrap_is_no_witness(self):
        # d2 = target + 2**64 at n2 = p: in int64 it wraps onto the target, so
        # a table whose second differences could leave int64 is refused
        G = self.wide_G(3)
        n, m = 2, 1
        p = self.C * m + 40
        G[p], G[p + n], G[p + m] = 2**62, -2**62, -2**62
        self.plant(G, n, m, 40, excess=2**64)
        with np.errstate(over="ignore"):
            d2 = G[p + n + m] - G[p + n] - G[p + m] + G[p]
        assert d2 == self.target(G, n, m)  # the int64 form calls it a witness
        self.plant(G, 1, 1, 900)
        _, mu, _ = self.exact_psi(G)
        assert mu[0, 1] and not mu[1, 1]
        with pytest.raises(ValueError, match="int64"):
            self.psi(G)


@pytest.mark.parametrize("grid", [1, 2, 3, 7, 12, 20, 33, 1000])
def test_edge_counts_bin_as_histogram2d(grid):
    # the edges, their neighbours, and points just inside and just outside
    # the reach within which searchsorted decides, 2^-49 = 16 steps of 2^-53
    edges = np.linspace(-0.5, 0.5, grid + 1)
    rng = np.random.default_rng(grid)
    special = [0.5, -0.5, 0.6, -0.6, 1e300, -1e300, -0.0]
    steps = np.array([-40, -17, -15, -2, 2, 15, 17, 40]) * 2.0**-53
    p = np.concatenate([rng.random(4000) * 1.2 - 0.6, edges,
                        np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                        (edges[:, None] + steps).ravel(), special])
    q = rng.permutation(p)
    for v in (p, q):
        want = np.searchsorted(edges, v, side="right")
        want[v == edges[-1]] = grid
        assert np.array_equal(_edge_counts(v, edges), want)
    side = grid + 2
    got = np.bincount(_edge_counts(p, edges) * side + _edge_counts(q, edges),
                      minlength=side * side).reshape(side, side)[1:-1, 1:-1]
    want, _, _ = np.histogram2d(p, q, bins=(edges, edges))
    assert np.array_equal(got, want.astype(np.int64))


@pytest.mark.parametrize("d", [2, 2951, 2**31 + 1, 2**33 + 3, 2**62 + 1])
def test_sliced_draws_of_r_match_one_draw(d):
    # the premise of equidist_check's two passes over r: draws of r in slices
    # give the values and the generator state of one draw, also where the
    # bounded draws reject outputs (often at 2^31 + 1, 2^33 + 3 and 2^62 + 1)
    M = _R_SLICE + 11
    one = np.random.default_rng(3)
    want = one.integers(0, d, size=M)
    for step in (_R_SLICE, BLOCK, 1001, 77):
        rng = np.random.default_rng(3)
        got = np.concatenate([rng.integers(0, d, size=min(step, M - i))
                              for i in range(0, M, step)])
        assert np.array_equal(got, want), step
        assert rng.bit_generator.state == one.bit_generator.state, step


# d = 1 draws no raw output for r, so y starts M outputs after r; at seed 3
# two draws of r at d = -2951 are rejected within the first 3*BLOCK + 5
@pytest.mark.parametrize("d", [1, 2, -3, -2951])
@pytest.mark.parametrize("M", [3 * BLOCK + 5, BLOCK - 7, _R_SLICE + 5, 2 * _R_SLICE - 7])
def test_push_hist_slices_match_one_shot(alpha, d, M, monkeypatch):
    a, b, c = 1, 2, 3
    grid, seed = 12, 3
    # the samples as binned, px and py of each slice in turn
    seen, bin_samples = [], diosearch._edge_counts

    def record(p, edges):
        seen.append(p.copy())
        return bin_samples(p, edges)

    monkeypatch.setattr(diosearch, "_edge_counts", record)
    rep = equidist_check(alpha, a, b, c, d, N=1000, M=M, grid=grid, seed=seed)
    rng = np.random.default_rng(seed)
    r = rng.integers(0, abs(d), size=M)
    x = rng.random(size=M) - 0.5
    y = rng.random(size=M) - 0.5
    af = FastConst(alpha).f64
    tf = FastConst(alpha.field.mobius(a, b, c, d).theta).f64

    def fs(z):
        return z - np.floor(z + 0.5)

    edges = np.linspace(-0.5, 0.5, grid + 1)
    px = fs(d * x + af * r)
    py = fs(b * x - c * y + af * tf * r - af * fs(d * y + tf * r))
    # the same floats, bit for bit, as the one-shot expressions give
    assert np.concatenate(seen[0::2]).tobytes() == px.tobytes()
    assert np.concatenate(seen[1::2]).tobytes() == py.tobytes()
    want, _, _ = np.histogram2d(px, py, bins=(edges, edges))
    assert np.array_equal(rep.push_hist, want.astype(np.int64))
    assert int(rep.push_hist.sum()) == M


# bins at G = lcm(grid, 20): 60, 20, 140 and 40
@pytest.mark.parametrize("grid", [6, 20, 7, 40])
def test_orbit_bins_are_exact(alpha, grid):
    a, b, c, d, N = 1, 2, 3, 1, 400
    theta = alpha.field.mobius(a, b, c, d).theta
    num, den = a + alpha * b, c + alpha * d
    s = den.sign()
    eps = Fraction(1, 20)
    want = np.zeros((grid, grid), dtype=np.int64)
    origin = 0
    for n in range(1, N + 1):
        q = (theta * n).nint()
        # q = nint(n * num / den): (2q - 1) den <= 2n num < (2q + 1) den, in
        # alpha's field, with both sides times the sign of den
        assert s * (2 * n * num - (2 * q - 1) * den) >= 0
        assert s * ((2 * q + 1) * den - 2 * n * num) > 0
        x = (alpha * n).frac_signed()
        y = (alpha * q).frac_signed()
        want[floor_exact((x + Fraction(1, 2)) * grid),
             floor_exact((y + Fraction(1, 2)) * grid)] += 1
        origin += circle_norm(x) <= eps and circle_norm(y) <= eps
    rep = equidist_check(alpha, a, b, c, d, N=N, M=100, grid=grid)
    assert np.array_equal(rep.orbit_hist, want)
    assert 0 < origin < N
    assert rep.origin_fraction == origin / N


def test_equidist_memory_does_not_grow_with_n_and_m(alpha):
    # both sides walk BLOCK slices and r is drawn _R_SLICE at a time, so no
    # array of length N or M is held
    peaks = []
    for scale in (2, 16):
        tracemalloc.start()
        try:
            equidist_check(alpha, 1, 2, 3, 7, N=scale * BLOCK, M=scale * _R_SLICE, grid=20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


# The five fields of test_fuzz.py.
_FIELDS = [NumberField(*f) for f in (
    ([-2, 0, 1], (1, 2)),
    ([-3, 0, 1], (1, 2)),
    ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    ([-2, 0, 0, 0, 1], (1, Fraction(3, 2))),
    ([-1, -1, 1], (1, 2)),
)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ell_matches_inverse_definition(data):
    K = _FIELDS[data.draw(st.integers(0, len(_FIELDS) - 1))]
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=K.degree, max_size=K.degree))
    assume(any(coeffs[1:]))
    alpha = K.element(coeffs)
    # convergent denominators make the norm small and the floor large
    ks = [data.draw(st.integers(1, 1500))] + [
        q for _, q in continued_fraction(alpha, 12).convergents() if q <= 10**9]
    for k in ks:
        nrm = (alpha * k).circle_norm()
        assert ell(k, alpha) == k * _ref_inverse(2 * nrm).floor()


@pytest.mark.parametrize("sign", [1, -1])
def test_ell_near_integer_reciprocal(alpha, sign):
    # ||alpha'|| = 1/(2q) -+ 2^-80 alpha puts 1/(2 norm) within 2^-66 of q,
    # closer than the starting bound of ell resolves, so the exact sign
    # tests decide between q and q - 1
    tiny = Fraction(sign, 1 << 80) * alpha
    for q in range(3, 130):
        a = Fraction(1, 2 * q) - tiny
        assert ell(1, a) == _ref_inverse(2 * a).floor() == (q if sign > 0 else q - 1)


def _lemma37_literal(ctx, m_max, h_factor):
    """The fail records and the instance count of `verify 3.7`, from
    `verify_lemma37` on every (m, h) with 3m <= h <= min(h_factor*m, ell(m))."""
    fails, count, reps = [], 0, {}
    for m in range(1, m_max + 1):
        for h in range(3 * m, min(h_factor * m, ell(m, ctx.alpha)) + 1):
            # verify_lemma37 reads h only through T = h // m
            rep = reps.get((m, h // m)) or reps.setdefault((m, h // m), verify_lemma37(m, h, ctx))
            count += 1
            if not rep.holds:
                fails.append(({"m": m, "h": h},
                              {"closed_form": rep.closed_form, "d2_side": rep.side_constant_d2}))
    return fails, count


# the kinds of fail witnesses, (closed_form, d2_side), that each case yields
_LEMMA37_CASES = {
    "g": set(),
    "g+1 on 3|n": {(False, True), (False, False)},
    # only g(0) moves, and no instance reads it
    "g+1 at 0": set(),
    # nint(alpha/10) = 0 and ell(1) = 3: g = 0 along P_{1,3}, so the closed
    # form holds and the second difference is 0
    "alpha/10": {(True, False)},
}


@pytest.mark.parametrize("case", sorted(_LEMMA37_CASES))
def test_lemma37_range_matches_each_instance(alpha, case, monkeypatch):
    if case.startswith("g+1"):
        hit = (lambda n: n % 3 == 0) if case == "g+1 on 3|n" else (lambda n: n == 0)
        vec, scalar = QuadSeqFast.g_vec, QuadSeqFast.g_scalar
        monkeypatch.setattr(QuadSeqFast, "g_vec", lambda self, n: vec(self, n) + hit(n))
        monkeypatch.setattr(QuadSeqFast, "g_scalar", lambda self, n: scalar(self, n) + hit(n))
    ctx = AlphaContext(alpha * Fraction(1, 10) if case == "alpha/10" else alpha, 1)  # a fresh memo
    res = verify_lemma37_range(ctx)  # the defaults: m <= 100, h_factor 30
    fails, count = _lemma37_literal(ctx, 100, 30)
    assert [(r["instance"], r["witness"]) for r in res.records[:-1]] == fails
    assert res.summary == {"instances": count, "failures": len(fails)}
    assert res.records[-1]["verdict"] == ("fail" if fails else "pass")
    assert {tuple(w.values()) for _, w in fails} == _LEMMA37_CASES[case] and count > 0
