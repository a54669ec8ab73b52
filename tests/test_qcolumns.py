"""The columnar `ExplicitQSet` against a frozenset-of-tuples reference.

The reference below is the literal reading of each operation on Python
ints: sorted tuples for `members`, a set comprehension for `close_pm`, and a
per-member loop for `check_Q1`.  Rows are small and random: duplicates,
negatives, m = 0, rows that are not multiplicative and rows whose swap is
missing.  `import_csv` is compared with a line-by-line parser on `int`, and
`contains` with the set of members.
"""

import bisect
import io
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from gparith.weakmult import (
    ExplicitQSet,
    build_Q,
    check_Q1,
    close_pm,
    commutes,
    export_csv,
    import_csv,
    is_sign_closed,
    _reversal,
    _sorted_rows,
)

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def ref_close_pm(store):
    return frozenset((m, s * a, t * b, s * t * c) for m, a, b, c in store
                     for s, t in SIGNS)


def ref_check_Q1(store):
    violations = [(m, a, b, c) for m, a, b, c in sorted(store)
                  if not (m != 0 and a % m == 0 and b % m == 0 and c % m == 0
                          and (a // m) * (b // m) == c // m)]
    swapped_in = all((m, b, a, c) in store for m, a, b, c in store)
    return len(store), violations, swapped_in


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
    assert (rep.total, rep.violations, commutes(Q)) == ref_check_Q1(store)

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


def flipped(cols, s, t):
    m, a, b, c = cols
    return np.stack([m, s * a, t * b, s * t * c])


# few values per column, so that (m, a, b) ties and c of both signs are common
tied_row = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                     st.integers(-3, 3))
negatable = st.integers(-2**63 + 1, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(tied_row, arbitrary_row, st.tuples(*[negatable] * 4)),
                     max_size=30))
@example(rows=[])
@example(rows=[(1, -2, 3, -6)])
def test_reversal_sorts_the_flips(rows):
    # the sorted order of a flipped copy without a sort: the (1, -1) flip
    # reverses each (m, a) run, the (-1, -1) flip each (m, a, b) run and then
    # each m run
    cols = ExplicitQSet(rows).cols
    p, q = _reversal(cols, 2), _reversal(cols, 3)[_reversal(cols, 1)]
    for (s, t), perm in (((1, -1), p), ((-1, -1), q)):
        assert np.array_equal(flipped(cols, s, t)[:, perm], _sorted_rows(flipped(cols, s, t)))


@pytest.mark.parametrize("s, t", [(1, -1), (-1, 1), (-1, -1)])
def test_a_store_closed_under_one_flip_is_not_sign_closed(s, t):
    Q = ExplicitQSet([(m, k * m, l * m, k * l * m) for m in (1, 2, 5) for k in (1, 3)
                      for l in (-2, 1, 4)])
    one = ExplicitQSet(np.concatenate([Q.cols, flipped(Q.cols, s, t)], axis=1))
    assert ExplicitQSet(flipped(one.cols, s, t)) == one
    assert not is_sign_closed(one)
    assert is_sign_closed(close_pm(one))


def test_sign_closure_compares_c():
    # closed under (1, -1); the (-1, -1) flip keeps every (m, a, b) but not c
    rows = [(1, 1, 1, 5), (1, 1, -1, -5), (1, -1, -1, 7), (1, -1, 1, -7)]
    assert ExplicitQSet(flipped(ExplicitQSet(rows).cols, 1, -1)) == ExplicitQSet(rows)
    assert not is_sign_closed(ExplicitQSet(rows))


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def ref_import(text):
    """The line-by-line parser on Python ints that `import_csv` replaced."""
    lines = [line for line in map(str.strip, io.StringIO(text)) if line]
    rows = []
    for line in lines:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed quadruple line: {line!r}")
        rows.append(tuple(map(int, parts)))
    if not all(INT64_MIN <= v <= INT64_MAX for row in rows for v in row):
        raise ValueError("quadruple line outside the int64 range")
    return frozenset(rows)


blank = st.text(" \r", max_size=2)
digits = st.one_of(small.map(str), st.integers(-2**64, 2**64).map(str),
                   st.sampled_from(["+7", "-0", "007"]))
junk = st.sampled_from(["", "+", "-", "+-1", "--3", "1 2", "1\r2"]) | st.text(
    "0123456789+-, \r", max_size=4)
good_line = st.lists(st.builds("{}{}{}".format, blank, digits, blank),
                     min_size=4, max_size=4).map(",".join)
any_line = st.lists(st.builds("{}{}{}".format, blank, digits | junk, blank),
                    min_size=3, max_size=5).map(",".join)


def csv_texts(line):
    return st.builds(str.join, st.sampled_from(["\n", "\r\n"]), st.lists(line, max_size=8))


csv_text = st.one_of(csv_texts(good_line | blank), csv_texts(good_line | any_line | blank),
                     st.text("0123456789+-, \r\n", max_size=40))


@settings(max_examples=300, deadline=None)
@given(text=csv_text)
def test_import_matches_line_parser(text):
    try:
        want = ref_import(text)
    except ValueError:
        with pytest.raises(ValueError, match="quadruple line"):
            import_csv(io.StringIO(text))
        return
    _same_set(import_csv(io.StringIO(text)), want)


def test_import_of_five_columns_and_of_nothing():
    with pytest.raises(ValueError, match=r"malformed quadruple line: '1,2,3,4,5'"):
        import_csv(io.StringIO("1,2,3,4,5\n6,7,8,9,10\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = import_csv(io.StringIO(" \n\r\n\n"))
    assert Q.cols.shape == (4, 0) and Q.cols.dtype == "int64"
    assert not Q.contains(1, 1, 1, 1)
    _same_set(Q, frozenset())


def test_import_reads_decimal_digits_only():
    # int() takes the digit separator of Python literals; a CSV field does not
    with pytest.raises(ValueError, match=r"malformed quadruple line: '1_000,2,3,4'"):
        import_csv(io.StringIO("1,2,3,4\n1_000,2,3,4\n"))


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(row_lists(), st.lists(st.tuples(*[st.one_of(wide, small)] * 4),
                                            max_size=12)))
def test_contains_matches_member_set(rows):
    Q = ExplicitQSet(rows)
    store = set(Q.members())
    near = [row[:i] + (row[i] + d,) + row[i + 1:]
            for row in store for i in range(4) for d in (-1, 1)]
    outside = [row[:i] + (v,) + row[i + 1:] for row in list(store)[:3] + [(1, 2, 3, 6)]
               for i in range(4) for v in (INT64_MIN - 1, INT64_MAX + 1, 10**20)]
    for probe in list(store) + near + outside:
        assert Q.contains(*probe) == (probe in store)


@pytest.fixture(scope="module")
def stores(ctx):
    Q = build_Q(ctx, 300, 40)
    # (m, a, b) is the first packed key: c spans more than int64
    tied = ExplicitQSet([(1, 2, 3, INT64_MAX), (1, 2, 3, INT64_MIN), (1, 2, 3, 0),
                         (1, 2, 4, -1), (0, 5, 5, 7), (2, 4, 6, 12)])
    return {name: (store, sorted(store.members())) for name, store in (
        ("built", Q), ("closed", close_pm(Q)), ("tied", tied),
        ("empty", ExplicitQSet(np.zeros((4, 0), dtype=np.int64))))}


@pytest.mark.parametrize("name", ["built", "closed", "tied", "empty"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_array_contains_matches_scalar(stores, name, data):
    """Each entry of an array `contains` is the scalar answer on its row;
    an int argument broadcasts, and one outside int64 is no member's."""
    Q, members = stores[name]
    rows = members or [(1, 2, 3, 6)]
    lows, highs = (Q.cols.min(axis=1).tolist(), Q.cols.max(axis=1).tolist()) if len(Q) \
        else ([0] * 4, [0] * 4)
    base = data.draw(st.lists(st.sampled_from(rows), max_size=6))

    def value(j, v):
        return st.one_of(st.just(v), st.just(v), st.sampled_from([v - 1, v + 1]),
                         st.sampled_from([lows[j] - 1, highs[j] + 1, INT64_MIN, INT64_MAX]))

    args = []
    for j in range(4):
        if data.draw(st.booleans()):  # an int, broadcast against the arrays
            row = data.draw(st.sampled_from(rows))
            args.append(data.draw(value(j, row[j]) | st.sampled_from(
                [INT64_MIN - 1, INT64_MAX + 1, 10**20])))
        else:
            column = [data.draw(value(j, row[j])) for row in base]
            args.append(np.clip(np.array(column, dtype=object), INT64_MIN, INT64_MAX)
                        .astype(np.int64))
    got = Q.contains(*args)
    if all(isinstance(v, int) for v in args):
        assert got is _is_member(members, tuple(args))
        return
    assert got.dtype == bool and got.shape == (len(base),)
    for i, hit in enumerate(got.tolist()):
        row = tuple(v if isinstance(v, int) else int(v[i]) for v in args)
        assert hit == Q.contains(*row) == _is_member(members, row)


def _is_member(members, row):
    i = bisect.bisect_left(members, row)
    return i < len(members) and members[i] == row
