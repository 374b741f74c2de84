"""``TruncationPolicy.select_ranks``: the stacked rank rule, row by row.

The stacked encoding sweep decides every member's rank in one call.  Each
row must come out bit for bit as the single-row rule decides it -- in
``kept`` and in the discarded weight -- whatever the other rows hold, and a
lossy cap must raise exactly when the per-row rule raises for some row, with
the first such row's message.  ``_loop_rank`` is the rule as the per-row
loop states it, independent of the vectorised code.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import TruncationError
from repro.mps import TruncationPolicy


def _loop_rank(policy, s):
    """The first ``k`` whose discarded tail fits the cutoff, then the cap."""
    total = float(np.sum(s * s))
    if total <= 0.0:
        return 1, 0.0
    tail = np.cumsum((s * s)[::-1])[::-1]
    n = s.size
    kept = n
    for k in range(1, n + 1):
        if (tail[k] if k < n else 0.0) / total <= policy.cutoff:
            kept = k
            break
    if policy.max_bond_dim is not None and kept > policy.max_bond_dim:
        cap = policy.max_bond_dim
        rel = float(tail[cap] / total)
        if rel > policy.cutoff and not policy.allow_lossy_cap:
            raise TruncationError(f"lossy cap {rel:.3e}")
        return cap, rel
    return kept, float((tail[kept] if kept < n else 0.0) / total)


def _spectra(max_rows=6, max_cols=12):
    """Non-increasing non-negative rows with exact zeros and all-zero rows."""
    values = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-30, max_value=1e-6),
    )
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=values)).map(
        lambda a: -np.sort(-a, axis=1)
    )


policies = st.builds(
    TruncationPolicy,
    cutoff=st.sampled_from([0.0, 1e-16, 1e-8, 1e-3, 0.2]),
    max_bond_dim=st.sampled_from([None, 1, 2, 4, 8]),
    allow_lossy_cap=st.booleans(),
)


def _per_row(policy, S):
    """Per-row results, or the message of the first row that raises."""
    results = []
    for row in S:
        try:
            results.append(policy.select_rank(row))
        except TruncationError as exc:
            return None, str(exc)
    return results, None


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(S=_spectra(), policy=policies)
def test_select_ranks_equals_select_rank_row_by_row(S, policy):
    per_row, message = _per_row(policy, S)
    if message is not None:
        with pytest.raises(TruncationError) as info:
            policy.select_ranks(S)
        assert str(info.value) == message
        return
    kept, weight = policy.select_ranks(S)
    assert [int(k) for k in kept] == [k for k, _ in per_row]
    assert [_bits(w) for w in weight] == [_bits(w) for _, w in per_row]


@settings(max_examples=200, deadline=None)
@given(S=_spectra(), policy=policies)
def test_select_ranks_equals_the_loop_rule(S, policy):
    try:
        expected = [_loop_rank(policy, row) for row in S]
    except TruncationError:
        with pytest.raises(TruncationError):
            policy.select_ranks(S)
        return
    kept, weight = policy.select_ranks(S)
    assert [int(k) for k in kept] == [k for k, _ in expected]
    assert [_bits(w) for w in weight] == [_bits(w) for _, w in expected]


@settings(max_examples=100, deadline=None)
@given(S=_spectra(max_rows=5), policy=policies, data=st.data())
def test_a_row_never_depends_on_its_neighbours(S, policy, data):
    i = data.draw(st.integers(0, S.shape[0] - 1))
    try:
        alone = policy.select_ranks(S[i : i + 1])
        stacked = policy.select_ranks(S)
    except TruncationError:
        return
    assert int(stacked[0][i]) == int(alone[0][0])
    assert _bits(stacked[1][i]) == _bits(alone[1][0])


@settings(max_examples=100, deadline=None)
@given(S=_spectra(max_rows=4, max_cols=8), k=st.integers(1, 7))
def test_a_tail_exactly_at_the_cutoff_fits(S, k):
    s = S[0]
    assume(k < s.size)
    total = float(np.sum(s * s))
    assume(total > 0.0)
    cutoff = float(np.cumsum((s * s)[::-1])[::-1][k] / total)
    policy = TruncationPolicy(cutoff=cutoff)
    kept, weight = policy.select_ranks(S)
    assert int(kept[0]) <= k
    assert (int(kept[0]), _bits(weight[0])) == (
        policy.select_rank(s)[0],
        _bits(policy.select_rank(s)[1]),
    )


def test_all_zero_row_keeps_one_value_without_warnings():
    S = np.array([[0.0, 0.0, 0.0], [0.8, 0.6, 0.0]])
    with np.errstate(all="raise"):
        kept, weight = TruncationPolicy().select_ranks(S)
    assert kept.tolist() == [1, 2]
    assert weight.tolist() == [0.0, 0.0]


def test_lossy_cap_raises_for_the_first_offending_row():
    S = np.array(
        [
            [1.0, 0.0, 0.0],  # fits at k = 1: no cap needed
            [0.8, 0.6, 0.0],  # cap 1 discards 0.36: lossy
            [0.6, 0.8, 0.0],  # also lossy, but later
        ]
    )
    policy = TruncationPolicy(max_bond_dim=1)
    with pytest.raises(TruncationError) as stacked:
        policy.select_ranks(S)
    with pytest.raises(TruncationError) as row:
        policy.select_rank(S[1])
    assert str(stacked.value) == str(row.value)
    kept, weight = TruncationPolicy(max_bond_dim=1, allow_lossy_cap=True).select_ranks(S)
    assert kept.tolist() == [1, 1, 1]
    assert _bits(weight[1]) == _bits(TruncationPolicy(max_bond_dim=1, allow_lossy_cap=True).select_rank(S[1])[1])


def test_select_ranks_rejects_bad_input():
    policy = TruncationPolicy()
    with pytest.raises(TruncationError):
        policy.select_ranks(np.zeros(3))
    with pytest.raises(TruncationError):
        policy.select_ranks(np.zeros((2, 0)))
