"""The columnar `ExplicitQSet` against a frozenset-of-tuples reference.

The reference below is the literal reading of each operation on Python
ints: sorted tuples for `members`, a set comprehension for `close_pm`, and a
per-member loop for `check_Q1`.  Rows are small and random: duplicates,
negatives, m = 0, rows that are not multiplicative and rows whose swap is
missing.
"""

import io

from hypothesis import given, settings, strategies as st

from gparith.weakmult import (
    ExplicitQSet,
    check_Q1,
    close_pm,
    export_csv,
    import_csv,
    is_sign_closed,
)

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def ref_close_pm(store):
    return frozenset((m, s * a, t * b, s * t * c) for m, a, b, c in store
                     for s, t in SIGNS)


def ref_check_Q1(store):
    violations = [(m, a, b, c) for m, a, b, c in sorted(store)
                  if not (m != 0 and a % m == 0 and b % m == 0 and c % m == 0
                          and (a // m) * (b // m) == c // m)]
    commutes = all((m, b, a, c) in store for m, a, b, c in store)
    return len(store), violations, commutes


def ref_csv(store):
    return "".join(f"{m},{a},{b},{c}\n" for m, a, b, c in sorted(store))


small = st.integers(-12, 12)
arbitrary_row = st.tuples(st.integers(-3, 4), small, small, st.integers(-40, 40))
multiplicative_row = st.builds(lambda m, k, l: (m, k * m, l * m, k * l * m),
                               st.integers(-3, 4).filter(bool), st.integers(-4, 4),
                               st.integers(-4, 4))


@st.composite
def row_lists(draw):
    rows = draw(st.lists(st.one_of(arbitrary_row, multiplicative_row), max_size=25))
    swapped = [(m, b, a, c) for m, a, b, c in rows]
    rows += draw(st.lists(st.sampled_from(swapped), max_size=len(swapped))) if rows else []
    return rows + rows[:draw(st.integers(0, len(rows)))]  # duplicates


def _same_set(Q, store):
    assert list(Q.members()) == sorted(store)
    assert list(Q.moduli()) == sorted({q[0] for q in store})
    assert len(Q) == len(store)


@settings(max_examples=300, deadline=None)
@given(rows=row_lists(), other=row_lists(), probes=st.lists(arbitrary_row, max_size=10))
def test_columns_match_tuple_reference(rows, other, probes):
    store = frozenset(rows)
    Q = ExplicitQSet(rows)
    _same_set(Q, store)
    for row in list(store) + probes:
        assert Q.contains(*row) == (row in store)
    assert (Q == ExplicitQSet(other)) == (store == frozenset(other))
    assert Q == ExplicitQSet(reversed(rows))

    closed = close_pm(Q)
    _same_set(closed, ref_close_pm(store))
    assert is_sign_closed(closed)
    assert is_sign_closed(Q) == (ref_close_pm(store) == store)

    rep = check_Q1(Q)
    assert (rep.total, rep.violations, rep.commutes) == ref_check_Q1(store)

    buf = io.StringIO()
    export_csv(Q, buf)
    assert buf.getvalue() == ref_csv(store)
    buf.seek(0)
    assert import_csv(buf) == Q


wide = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(wide, small), st.one_of(wide, small),
                               st.one_of(wide, small), st.one_of(wide, small)),
                     max_size=20))
def test_sort_over_the_whole_int64_range(rows):
    # columns too wide to share a sort key, next to narrow ones that do
    rows = rows + rows[: len(rows) // 2]
    _same_set(ExplicitQSet(rows), frozenset(rows))


def test_rows_that_differ_only_in_c():
    # (m, a, b) share the first sort key; c spans int64, so it is a second
    # key, which only the ties of the first need
    rows = [(1, 2, 3, 2**63 - 1), (1, 2, 3, -2**63), (1, 2, 3, 0), (0, 5, 5, 7),
            (1, 2, 3, 0), (1, 2, 4, -1)]
    _same_set(ExplicitQSet(rows), frozenset(rows))
