"""The stabilizer search and its group check against the scalar loop and
the pairwise closure of tests/oracles.py, the group check on doctored
row sets, and the records of sepcurve.checks on random searches."""

import functools
import math
import random
from dataclasses import replace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import sepcurve  # noqa: E402
from normtrace.gf import (TABLE_MAX_ORDER, BudgetExceeded,  # noqa: E402
                          build_field)
from normtrace.sepcurve import (SearchFieldTooSmall,  # noqa: E402
                                SeparatedCurveSpec, assert_group,
                                brute_force_stabilizer_search)
from oracles import (AFFINE_IDENTITY, affine_compose,  # noqa: E402
                     affine_inverse, affine_rows, affine_tuples,
                     closed_by_pairs, poly_power, poly_scale,
                     stabilizer_maps_by_loop, stabilizer_search_by_loop)

field = functools.cache(build_field)

# the largest extension degree with a search field of order <= 128
MAX_K = {2: 7, 3: 4, 5: 3}
# the pairwise oracle composes N^2 pairs; larger found sets are left out
MAX_PAIRWISE = 100


def outcome(search, *args):
    """The found maps, or the text of the SearchFieldTooSmall raised."""
    try:
        return search(*args)
    except SearchFieldTooSmall as exc:
        return str(exc)


def searched(spec, F, budget=None):
    """The search's maps as (a, b, c0, Q) tuples."""
    return affine_tuples(brute_force_stabilizer_search(spec, F, budget))


@st.composite
def searches(draw):
    """A valid spec over GF(p^h) with p in {2, 3, 5}, m <= 10 and B either
    b_m (X + s)^m or random, and a search field GF(p^K) of order <= 128
    that contains the host field."""
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(1, MAX_K[p]))
    host = field(p, draw(st.sampled_from(
        [h for h in range(1, K + 1) if K % h == 0 and p ** h <= 16])))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p]))
    m = draw(st.sampled_from([m for m in range(2, 11)
                              if m % p and max(p ** n, m) >= 4]))
    element = st.integers(0, host.order - 1)
    unit = st.integers(1, host.order - 1)
    a = {j: draw(element) for j in range(1, n)}
    a[0], a[n] = draw(unit), draw(unit)
    if draw(st.booleans()):
        b = poly_scale(host, draw(unit), poly_power(host, [draw(element), 1], m))
    else:
        b = [draw(element) for _ in range(m)] + [draw(unit)]
    return SeparatedCurveSpec(host, a, tuple(b)), field(p, K)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(searches())
def test_search_equals_scalar_loop(case):
    spec, F = case
    want = stabilizer_maps_by_loop(spec, F)
    assume(len(want) <= MAX_PAIRWISE)
    assert (outcome(searched, spec, F)
            == outcome(lambda: closed_by_pairs(F, want) or want))


def small_field(p, k):
    """build_field for the recommended search field, refusing any field
    of order above 2^8 before it is built."""
    assume(p ** k <= 1 << 8)
    return field(p, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(searches())
def test_every_record_passes_over_the_recommended_field(case):
    spec, _ = case
    assume(spec.m % spec.p ** spec.n != 1)
    try:
        with mock.patch.object(sepcurve, "build_field", small_field):
            F = sepcurve.recommended_search_field(spec)
        result = sepcurve.classify(spec)
    except ValueError:  # B or the roots of unity split only above 2^20
        reject()
    maps = brute_force_stabilizer_search(spec, F)
    records = sepcurve.checks(spec, result, maps)
    assert all(ok for _, ok, _ in records), records


def test_search_with_quadratic_q_equals_scalar_loop():
    # Y^2 + Y = X^5 over GF(16): deg Q * 2 < 5 lets Q reach degree 2, so
    # the X^2 and X^4 coefficients are matched by A(Q), not filtered
    spec = SeparatedCurveSpec(field(2, 1), {0: 1, 1: 1}, (0, 0, 0, 0, 0, 1))
    maps = searched(spec, field(2, 4))
    assert maps == stabilizer_search_by_loop(spec, field(2, 4))
    assert len(maps) == 160
    assert max(len(q) for *_, q in maps) == 3


def test_budget_rule_equals_scalar_loop():
    spec = SeparatedCurveSpec(field(2, 1), {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1))
    messages = []
    for search in (brute_force_stabilizer_search, stabilizer_maps_by_loop):
        with pytest.raises(BudgetExceeded) as exc:
            search(spec, field(2, 6), 100)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == (
        "search loop size 4032 exceeds budget 100")


@pytest.mark.parametrize("seed", range(5))
def test_assert_group_rejects_a_set_missing_one_map_and_its_inverse(seed):
    # case (i) Y^5 + Y = X^3 over GF(25): 60 maps
    spec = SeparatedCurveSpec(field(5, 1), {0: 1, 1: 1}, (0, 0, 0, 1))
    F = field(5, 2)
    maps = searched(spec, F)
    assert len(maps) == 60
    drop = random.Random(seed).choice([s for s in maps
                                       if s != AFFINE_IDENTITY])
    doctored = [s for s in maps if s not in (drop, affine_inverse(F, drop))]
    assert all(affine_inverse(F, s) in doctored for s in doctored)
    for check in (lambda: assert_group(affine_rows(F, doctored)),
                  lambda: closed_by_pairs(F, doctored)):
        with pytest.raises(SearchFieldTooSmall, match="composition"):
            check()


def hermitian_maps():
    # the Hermitian curve Y^4 + Y = X^5 over GF(16): 960 maps, Q linear
    spec = SeparatedCurveSpec(field(2, 1), {0: 1, 2: 1}, (0, 0, 0, 0, 0, 1))
    return brute_force_stabilizer_search(spec, field(2, 4))


def test_assert_group_forms_n_log_n_product_rows(monkeypatch):
    maps = hermitian_maps()
    N = len(maps)
    assert N == 960
    rows = []  # the number of product rows each generator forms
    compose = sepcurve._compose
    monkeypatch.setattr(sepcurve, "_compose", lambda maps, g: (
        rows.append(len(maps)) or compose(maps, g)))
    assert_group(maps)
    assert 0 < sum(rows) <= N * math.ceil(math.log2(N))


def changed_entry(maps, column, seed):
    """maps with one entry of column (c0, or a column of q) of one
    non-identity row changed to a value that makes no row repeat."""
    rng = random.Random(seed)
    keys = set(maps.keys().tolist())
    while True:
        row = rng.randrange(1, len(maps))  # row 0 is the identity
        doctored = replace(maps, c0=maps.c0.copy(), q=maps.q.copy())
        target = doctored.c0 if column == "c0" else doctored.q[:, column]
        target[row] = rng.randrange(maps.field.order)
        if doctored[row:row + 1].keys()[0] not in keys:
            return doctored


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ["hermitian", "case-i"])
def test_assert_group_rejects_doctored_rows(case, seed):
    if case == "hermitian":
        maps = hermitian_maps()
    else:  # Y^5 + Y = X^3 over GF(25): 60 maps, Q constant
        maps = brute_force_stabilizer_search(
            SeparatedCurveSpec(field(5, 1), {0: 1, 1: 1}, (0, 0, 0, 1)),
            field(5, 2))
    auts = affine_tuples(maps)
    assert auts[0] == AFFINE_IDENTITY
    assert_group(maps)
    drop = random.Random(seed).randrange(1, len(maps))
    pair = {drop, auts.index(affine_inverse(maps.field, auts[drop]))}
    doctored = [changed_entry(maps, column, seed)
                for column in ["c0", *range(maps.q.shape[1])]]
    doctored += [maps[[i not in pair for i in range(len(maps))]], maps[1:]]
    for rows in doctored:
        with pytest.raises(SearchFieldTooSmall):
            assert_group(rows)


SMALL_SPECS = [  # (host field, A, B, search field), at most 60 maps each
    ((2, 1), {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1), (2, 6)),
    ((5, 1), {0: 1, 1: 1}, (0, 0, 0, 1), (5, 2)),
    ((3, 1), {0: 1, 1: 1}, (0, 0, 0, 1, 0, 1), (3, 4)),
    ((2, 1), {0: 1, 2: 1}, (0, 0, 0, 0, 0, 1), (2, 2)),  # Q linear
]


@functools.cache
def small_found(case):
    """The search field of a small spec, and its maps as tuples."""
    host, a, b, search = SMALL_SPECS[case]
    spec = SeparatedCurveSpec(field(*host), a, b)
    return field(*search), searched(spec, field(*search))


def generated(ctx, maps):
    """The group the maps generate, by composing until nothing is new."""
    group = set(maps)
    while True:
        new = {affine_compose(ctx, s, t) for s in group for t in maps} - group
        if not new:
            return group
        group |= new


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_assert_group_agrees_with_pairwise_closure(data):
    F, found = small_found(data.draw(st.integers(0, len(SMALL_SPECS) - 1)))
    subset = data.draw(st.lists(st.sampled_from(found), max_size=4))
    kind = data.draw(st.sampled_from(["subgroup", "less one", "random"]))
    if kind != "random":  # a subgroup passes; one element less fails,
        subset = generated(F, subset or found[:1])
        if kind == "less one":  # as N - 1 divides N only for N <= 2
            assume(len(subset) > 2)
            subset.discard(data.draw(st.sampled_from(sorted(subset))))
    subset = sorted(set(subset))
    want = outcome(lambda: closed_by_pairs(F, subset))
    if kind == "subgroup":
        assert want is None
    elif kind == "less one":
        assert want is not None
    width = max(len(q) for *_, q in found)
    got = outcome(assert_group, affine_rows(F, subset, width or 1))
    assert got == want


def test_search_builds_no_table_above_the_cap():
    # Y^5 + Y = X^3 over GF(5^6), an order the Q x Q sum table refuses
    F = build_field(5, 6)
    assert F.order > TABLE_MAX_ORDER
    spec = SeparatedCurveSpec(field(5, 1), {0: 1, 1: 1}, (0, 0, 0, 1))
    maps = brute_force_stabilizer_search(spec, F, budget=10 ** 9)
    assert len(maps) == 60
    assert F._add_np is None


@pytest.mark.parametrize("p, k, a, found", [(2, 12, {0: 1, 1: 1, 2: 1}, 12),
                                            (5, 4, {0: 1, 1: 2}, 60)])
def test_search_runs_no_scalar_method_on_its_field(refuse_scalar_methods, p,
                                                    k, a, found):
    # B = X^3 with A = Y^4 + Y^2 + Y over a fresh GF(4096) and A = 2 Y^5 + Y
    # over a fresh GF(625): A's values, the Hasse coefficients, a_n^-1 and
    # the -1 of the inverses are formed on arrays, so no scalar method of
    # the search field may run
    F = build_field(p, k)
    refuse_scalar_methods(F)
    spec = SeparatedCurveSpec(field(p, 1), a, (0, 0, 0, 1))
    assert len(brute_force_stabilizer_search(spec, F)) == found
