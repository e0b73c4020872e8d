import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from normtrace import gf
from normtrace.gf import build_field, field_from_dict
from oracles import (add_by_digits, exp_log_by_powers, generator_by_search,
                     irreducible_by_trial, mul_by_digits, neg_by_digits,
                     pow_by_digits, vadd_by_digits)

# every p^k <= 2^12 with k >= 2, a sample of prime fields, and two
# fields past the product-table limit
BOOTSTRAP_FIELDS = ([(p, k) for p in range(2, 65) if gf.is_prime(p)
                     for k in range(2, 13) if p ** k <= 1 << 12]
                    + [(p, 1) for p in (2, 3, 5, 7, 101, 257, 4099)]
                    + [(2, 16), (3, 9)])


def test_default_modulus_gf8(f8):
    # smallest-encoding monic irreducible cubic over GF(2) is X^3 + X + 1
    assert f8.modulus == (1, 1, 0, 1)
    assert sum(c * 2 ** i for i, c in enumerate(f8.modulus)) == 11


def test_default_modulus_prime_field():
    f2 = build_field(2, 1)
    assert f2.modulus == (0, 1)
    assert f2.order == 2
    assert f2.generator == 1


def test_default_modulus_gf27_matches_enumeration_oracle(f27):
    # enumerate monic cubics over GF(3) in encoding order; first
    # irreducible one (by trial factorization) must be the modulus
    for t in range(27):
        cand = [t % 3, (t // 3) % 3, (t // 9) % 3, 1]
        if irreducible_by_trial(cand, 3):
            assert f27.modulus == tuple(cand)
            break


def test_build_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_field(4, 2)  # p not prime
    with pytest.raises(ValueError):
        build_field(2, 3, modulus=[0, 0, 0, 1])  # X^3, reducible
    with pytest.raises(ValueError):
        # (X^2 + 1)^2: reducible without a root in GF(3), so only the
        # gcd with X^9 - X can refuse it
        build_field(3, 4, modulus=[1, 0, 2, 0, 1])
    with pytest.raises(ValueError):
        build_field(2, 3, modulus=[1, 1, 1])  # wrong degree
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=[1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        build_field(2, 21)  # order above the table limit


# reducible over GF(2) with no factor of degree < i, so only step i of
# Ben-Or's test refuses them: (X^2 + X + 1)^2 at i = 2, and
# (X^3 + X + 1)(X^3 + X^2 + 1) = X^6 + ... + 1 at i = 3
REDUCIBLE_AT_STEP = {2: [1, 0, 1, 0, 1], 3: [1, 1, 1, 1, 1, 1, 1]}


@pytest.mark.parametrize("step", sorted(REDUCIBLE_AT_STEP))
def test_reducible_modulus_refused_at_its_step(step):
    modulus = REDUCIBLE_AT_STEP[step]
    k = len(modulus) - 1
    with pytest.raises(ValueError, match="reducible"):
        build_field(2, k, modulus=modulus)
    with pytest.raises(ValueError, match="reducible"):
        field_from_dict({"p": 2, "k": k, "modulus": modulus})


def _mobius(n):
    primes = gf.prime_factors(n)
    return 0 if any(n % (q * q) == 0 for q in primes) else (-1) ** len(primes)


@pytest.mark.parametrize("p, max_k", [(2, 12), (3, 7), (5, 5), (7, 4)])
def test_irreducible_counts_follow_gauss(p, max_k):
    # k N_k = sum over d | k of mu(d) p^(k/d) monic irreducibles of degree k
    for k in range(1, max_k + 1):
        count = sum(gf.poly_is_irreducible(list(low) + [1], p)
                    for low in itertools.product(range(p), repeat=k))
        assert k * count == sum(_mobius(d) * p ** (k // d)
                                for d in range(1, k + 1) if k % d == 0)


def test_modulus_search_and_check_build_no_field(monkeypatch):
    # both compute on plain integers
    def refuse(*args):
        raise AssertionError("FieldCtx built")
    monkeypatch.setattr(gf.FieldCtx, "__init__", refuse)
    assert gf.smallest_irreducible(2, 16) == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    assert gf.smallest_irreducible(3, 9) == (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)
    assert not gf.poly_is_irreducible(REDUCIBLE_AT_STEP[3], 2)


def table_mismatches():
    """The (p, k) whose entry (t, g) in the canonical table is not what
    the searches find: t the encoding of smallest_irreducible's modulus,
    g the generator search's result on that modulus."""
    wrong = []
    for (p, k), entry in gf._canonical_fields().items():
        modulus = gf.smallest_irreducible(p, k)
        ctx = build_field(p, k, modulus)
        if entry != (gf._coeffs_to_index(modulus[:k], p),
                     ctx._search_generator()):
            wrong.append((p, k))
    return wrong


def test_canonical_table_is_what_the_searches_find():
    admitted = {(p, k) for p in range(2, 1025) if gf.is_prime(p)
                for k in range(2, 21) if p ** k <= gf.MAX_ORDER}
    assert set(gf._canonical_fields()) == admitted
    assert len(admitted) == 242
    assert table_mismatches() == []


def _doctor_modulus(p, k, t, g):
    # the next irreducible modulus: a valid field, but not the canonical one
    t = next(s for s in range(t + 1, p ** k)
             if gf.poly_is_irreducible(gf._index_to_coeffs(s, p, k) + [1], p))
    return t, g


def _doctor_generator(p, k, t, g):
    # g^-1, of full order like g but of another index
    return t, build_field(p, k).inv(g)


@pytest.mark.parametrize("key, doctor", [((3, 9), _doctor_modulus),
                                         ((2, 16), _doctor_generator)],
                         ids=["modulus", "generator"])
def test_doctored_table_entry_fails_the_search_check(monkeypatch, key, doctor):
    table = gf._canonical_fields()
    monkeypatch.setitem(table, key, doctor(*key, *table[key]))
    assert table_mismatches() == [key]


def test_canonical_fields_build_without_searching(monkeypatch):
    calls = []
    for owner, name in [(gf, "smallest_irreducible"),
                        (gf, "poly_is_irreducible"),
                        (gf.FieldCtx, "_search_generator")]:
        def spy(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, spy)
    for p, k in gf._canonical_fields():
        ctx = build_field(p, k)
        assert field_from_dict(ctx.to_dict()) == ctx  # the table's modulus
    assert calls == []
    # a modulus the table does not hold is checked and searched: here
    # X^4 + X^3 + 1, where the canonical GF(16) has X^4 + X + 1
    ctx = build_field(2, 4, modulus=[1, 0, 0, 1, 1])
    assert calls == ["poly_is_irreducible", "_search_generator"]
    assert ctx.generator == generator_by_search(ctx)
    # prime fields are not in the table
    calls.clear()
    assert build_field(7, 1).generator == 3
    assert calls == ["smallest_irreducible", "_search_generator"]


def test_gf_imports_no_normtrace_module():
    # the field layer stands alone: its modulus search has its own
    # kernel and does not go through poly
    tree = ast.parse(Path(gf.__file__).read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names]
    imported += [("." * node.level) + (node.module or "")
                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported
                if m.startswith(".") or m.startswith("normtrace")], imported


def test_additive_identity_all_elements(f8):
    for a in f8.elements():
        assert f8.add(a, 0) == a


def test_gf8_generator_relations(f8):
    g = f8.generator
    assert g == 2
    assert f8.mul(g, f8.pow(g, 6)) == 1  # g * g^6 = g^7 = 1
    assert f8.pow(g, 3) == 3             # X^3 = X + 1, index 3


def test_division_and_errors(f8):
    for a in f8.nonzero():
        assert f8.mul(a, f8.inv(a)) == 1
        assert f8.div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)
    with pytest.raises(ZeroDivisionError):
        f8.pow(0, -2)
    assert f8.pow(0, 0) == 1
    assert f8.pow(5, -1) == f8.inv(5)


def test_field_axioms_gf27(f27):
    sample = range(0, 27, 4)
    for a, b in itertools.product(sample, repeat=2):
        assert f27.mul(a, b) == f27.mul(b, a)
        assert f27.add(a, b) == f27.add(b, a)
        assert f27.sub(f27.add(a, b), b) == a
    for a, b, c in itertools.product(sample, repeat=3):
        assert f27.mul(a, f27.add(b, c)) == f27.add(f27.mul(a, b), f27.mul(a, c))
        assert f27.mul(f27.mul(a, b), c) == f27.mul(a, f27.mul(b, c))


def test_exp_log_roundtrip(f27):
    for a in f27.nonzero():
        assert f27.exp_np[f27.log_np[a]] == a
    # log is a bijection onto 0..order-2
    assert sorted(f27.log_np[1:].tolist()) == list(range(26))


@pytest.mark.parametrize("p, k", BOOTSTRAP_FIELDS)
def test_exp_log_equal_sequential_powers(p, k):
    ctx = build_field(p, k)
    assert ctx.generator == generator_by_search(ctx)
    exp, log = exp_log_by_powers(ctx)
    # the doubled powers, then the zero tail; log 0 is the zero slot
    n = ctx.order - 1
    log[0] = 2 * n
    assert ctx.exp_np.tolist() == exp * 2 + [0] * (2 * n + 1)
    assert ctx.log_np.tolist() == log


@pytest.mark.parametrize("p, k", [(2, 18), (3, 10), (3, 12), (5, 8), (7, 7),
                                  (1021, 2), (2, 20), (1048573, 1)])
def test_largest_fields_match_oracle_powers(p, k):
    # large fields up to the top orders, sampled: the oracle's product
    # is too slow for every power, so the generator and 1,000 seeded
    # powers are checked
    ctx = build_field(p, k)
    n = ctx.order - 1
    assert ctx.generator == generator_by_search(ctx)
    assert ctx.log_np[0] == 2 * n and len(ctx.exp_np) == 4 * n + 1
    assert np.array_equal(ctx.log_np[ctx.exp_np[:n]], np.arange(n))
    assert np.array_equal(ctx.exp_np[n:2 * n], ctx.exp_np[:n])
    assert not ctx.exp_np[2 * n:].any()
    squares = [ctx.generator]  # g^(2^i)
    while len(squares) < n.bit_length():
        squares.append(mul_by_digits(ctx, squares[-1], squares[-1]))
    rng = random.Random(p * 100 + k)
    for e in (rng.randrange(n) for _ in range(1000)):
        want = 1
        for i, square in enumerate(squares):
            if e >> i & 1:
                want = mul_by_digits(ctx, want, square)
        assert ctx.exp_np[e] == want


def test_linear_map_applies_the_images(f8, f27):
    # x -> x * g in GF(8) and x -> x^3 (GF(3)-linear) in GF(27)
    for ctx, image in ((f8, lambda a: ctx.mul(a, ctx.generator)),
                       (f27, lambda a: ctx.pow(a, 3))):
        images = [image(ctx.p ** j) for j in range(ctx.k)]
        got = ctx.linear_map(images, list(ctx.elements()))
        assert got.tolist() == [image(a) for a in ctx.elements()]
    # x -> x * g and the Frobenius x -> x^p over the largest odd fields,
    # by the log tables, with the elements also as one 2-D array
    for ctx in (build_field(3, 12), build_field(5, 8), build_field(7, 7)):
        elems = np.arange(ctx.order)
        for want in (ctx.vscale(ctx.generator, elems), ctx.vpow(elems, ctx.p)):
            images = want[ctx.p ** np.arange(ctx.k)].tolist()
            assert np.array_equal(ctx.linear_map(images, elems), want)
            square = ctx.linear_map(images, elems.reshape(ctx.p, -1))
            assert np.array_equal(square, want.reshape(ctx.p, -1))


def test_frobenius(f8):
    g = f8.generator
    assert f8.frobenius(g, 0) == g
    assert f8.frobenius(g, 1) == f8.mul(g, g)
    assert f8.frobenius(g, 3) == g  # full-field Frobenius
    for a in f8.elements():
        assert f8.frobenius(f8.frobenius(a, 1), 2) == a


def test_trace_values_gf8(f8):
    assert f8.trace_rel(0, 2, 3) == 0
    # tr(g) = g + g^2 + g^4 = 0
    assert f8.trace_rel(f8.generator, 2, 3) == 0
    assert sum(1 for a in f8.elements() if f8.trace_rel(a, 2, 3) == 0) == 4


def test_trace_linearity_and_fibers():
    for (q, r) in [(2, 3), (3, 2), (4, 2)]:
        p = 2 if q in (2, 4) else 3
        e = {2: 1, 3: 1, 4: 2}[q]
        ctx = build_field(p, e * r)
        sub = set(ctx.subfield_indices(e))
        fibers = {}
        for a in ctx.elements():
            t = ctx.trace_rel(a, q, r)
            assert t in sub
            fibers[t] = fibers.get(t, 0) + 1
        assert set(fibers) == sub                      # surjective onto GF(q)
        assert set(fibers.values()) == {q ** (r - 1)}  # equal fiber sizes
        for a in range(0, ctx.order, 3):
            for b in range(0, ctx.order, 5):
                assert (ctx.trace_rel(ctx.add(a, b), q, r)
                        == ctx.add(ctx.trace_rel(a, q, r), ctx.trace_rel(b, q, r)))
        for lam in sub:
            for a in range(0, ctx.order, 7):
                assert (ctx.trace_rel(ctx.mul(lam, a), q, r)
                        == ctx.mul(lam, ctx.trace_rel(a, q, r)))


def test_vadd_scalar_matches_scalar_add(f8):
    f3_8 = build_field(3, 8)
    assert f3_8.order > gf.TABLE_MAX_ORDER  # no Q x Q table here
    rng = random.Random(11)
    for ctx in (f8, f3_8):
        elems = np.arange(ctx.order)
        for a in {0, 1, ctx.order - 1, rng.randrange(ctx.order)}:
            assert (ctx.vadd_scalar(elems, a).tolist()
                    == [ctx.add(v, a) for v in ctx.elements()])
        # any shape, and the few points of a sparse evaluation
        few = np.array([[ctx.order - 1, 0], [1, rng.randrange(ctx.order)]])
        a = rng.randrange(ctx.order)
        assert (ctx.vadd_scalar(few, a).tolist()
                == [[ctx.add(v, a) for v in row] for row in few.tolist()])


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (3, 4)])
def test_zech_add_matches_digit_oracle_on_all_pairs(p, k):
    ctx = build_field(p, k)
    for a in ctx.elements():
        assert ctx.neg(a) == neg_by_digits(ctx, a)
        for b in ctx.elements():
            assert ctx.add(a, b) == add_by_digits(ctx, a, b)


def test_zech_add_matches_digit_oracle_on_random_pairs():
    ctx = build_field(3, 10)
    rng = random.Random(5)
    for _ in range(3000):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.add(a, b) == add_by_digits(ctx, a, b)
        assert ctx.sub(a, b) == add_by_digits(ctx, a, neg_by_digits(ctx, b))
    assert ctx.add(1, ctx.order - 1) == add_by_digits(ctx, 1, ctx.order - 1)
    assert ctx.add(2, 1) == 0  # the Zech sentinel: 1 + (-1) = 0


@pytest.mark.parametrize("p,k", [(p, k) for p in range(3, 257)
                                 if gf.is_prime(p) for k in range(1, 6)
                                 if p ** k <= 256])
def test_zech_sum_matches_add_table_on_every_pair(p, k):
    # vadd_scalar and scalar add are one Zech sum on the zero-safe logs:
    # every pair of every odd field of order at most 2^8, zeros included
    ctx = build_field(p, k)
    elems = np.arange(ctx.order)
    want = ctx.add_np.tolist()
    assert ctx.vadd_scalar(elems[:, None], elems[None, :]).tolist() == want
    pairs = list(itertools.product(range(ctx.order), repeat=2))
    assert list(itertools.starmap(ctx.add, pairs)) == sum(want, [])


def zech_sum_draws(ctx, seed):
    """Random index arrays u, v with 0 + 0, 0 + v, u + 0 and u + (-u)
    drawn in."""
    u, v = np.random.default_rng(seed).integers(ctx.order, size=(2, 300))
    u[:2] = v[0] = v[2] = 0
    v[3:50] = ctx.vneg(u[3:50])
    return u, v


def assert_zech_sums_match_digits(ctx, u, v, vsum=None):
    """vsum (by default vadd_scalar) on the arrays and with one element,
    and scalar add on each pair, equal oracles.vadd_by_digits."""
    vsum = vsum or ctx.vadd_scalar
    want = vadd_by_digits(ctx, u, v)
    assert vsum(u, v).tolist() == want.tolist()
    for a in (0, int(v[-1])):
        assert vsum(u, a).tolist() == vadd_by_digits(ctx, u, a).tolist()
    assert ([ctx.add(a, b) for a, b in zip(u.tolist(), v.tolist())]
            == want.tolist())


@pytest.mark.parametrize("p,k", [(3, 12), (5, 8), (7, 7), (1048573, 1)])
def test_zech_sum_matches_digit_oracle_on_large_fields(p, k):
    ctx = build_field(p, k)
    assert ctx.order > gf.TABLE_MAX_ORDER  # no Q x Q table here
    u, v = zech_sum_draws(ctx, p)
    assert_zech_sums_match_digits(ctx, u, v)
    assert ctx._add_np is None


@pytest.mark.parametrize("p,k", [(3, 8), (67, 2), (4099, 1), (1048573, 1)])
def test_vadd_above_the_table_cap_is_the_zech_sum(p, k):
    # odd-p vadd above TABLE_MAX_ORDER: the digit oracle's sums, in the
    # element dtype, with no Q x Q table
    ctx = build_field(p, k)
    assert ctx.order > gf.TABLE_MAX_ORDER
    u, v = (w.astype(ctx.dtype) for w in zech_sum_draws(ctx, p))
    assert ctx.vadd(u, v).dtype == ctx.vadd(u[:, None], v).dtype == ctx.dtype
    assert_zech_sums_match_digits(ctx, u.astype(np.int64), v, ctx.vadd)
    assert (ctx.vadd(u[:, None], v[:7]).tolist()
            == vadd_by_digits(ctx, u[:, None], v[:7]).tolist())
    assert ctx._add_np is None


def unordered_zech_sum(ctx, u, v):
    """The Zech sum of two units, log u + Z(log v - log u), taken at
    every pair without ordering the logs: wrong at a zero operand."""
    lu, lv = ctx.log_np[u], ctx.log_np[v]
    return ctx.exp_np[lu + ctx._zech_np[(lv - lu) % (ctx.order - 1)]]


@pytest.mark.parametrize("doctor", ["last_entry", "rolled", "unordered"])
def test_zech_sum_check_has_teeth(monkeypatch, doctor):
    ctx = build_field(3, 7)
    u, v = zech_sum_draws(ctx, 7)
    assert_zech_sums_match_digits(ctx, u, v)
    vsum = None
    if doctor == "unordered":
        vsum = lambda u, a: unordered_zech_sum(ctx, u, a)  # noqa: E731
        units = (u != 0) & (v != 0)
        assert (vsum(u[units], v[units]).tolist()
                == vadd_by_digits(ctx, u[units], v[units]).tolist())
    else:
        zech = ctx._zech_np.copy()
        if doctor == "last_entry":
            zech[ctx.order - 1] = 1
        else:
            zech = np.roll(zech, 1)
        monkeypatch.setattr(ctx, "_zech_np", zech)
        # each of the two sums reads the doctored table
        with pytest.raises(AssertionError):
            assert ([ctx.add(a, b) for a, b in zip(u.tolist(), v.tolist())]
                    == vadd_by_digits(ctx, u, v).tolist())
    with pytest.raises(AssertionError):
        assert_zech_sums_match_digits(ctx, u, v, vsum)


def scalar_op_values(ctx):
    """mul on every pair, zeros included, neg on every element, and pow
    at e = 0, 1, p, Q - 2 on every element and at e = -1 on the units,
    by the scalar ops."""
    elems = list(ctx.elements())
    return {"mul": [[ctx.mul(a, b) for b in elems] for a in elems],
            "neg": [ctx.neg(a) for a in elems],
            "pow": {e: [ctx.pow(a, e) for a in elems]
                    for e in (0, 1, ctx.p, ctx.order - 2)},
            "inv": [ctx.pow(a, -1) for a in elems[1:]]}


def assert_vector_ops_match(ctx, want):
    """vmul on every pair, vscale by every scalar, vneg and vpow equal
    the values of scalar_op_values."""
    elems = np.arange(ctx.order)
    assert ctx.vmul(elems[:, None], elems[None, :]).tolist() == want["mul"]
    for s in elems.tolist():
        assert ctx.vscale(s, elems).tolist() == want["mul"][s]
    assert ctx.vneg(elems).tolist() == want["neg"]
    for e, values in want["pow"].items():
        assert ctx.vpow(elems, e).tolist() == values
    assert ctx.vpow(elems[1:], -1).tolist() == want["inv"]
    with pytest.raises(ZeroDivisionError):
        ctx.vpow(elems, -1)


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (3, 3), (2, 8), (7, 3)])
def test_vector_tables_match_scalar_ops(p, k):
    ctx = build_field(p, k)
    elems = list(ctx.elements())
    assert ctx.add_np.tolist() == [[add_by_digits(ctx, a, b) for b in elems]
                                   for a in elems]
    assert_vector_ops_match(ctx, scalar_op_values(ctx))


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 257)
                                 if gf.is_prime(p) for k in range(1, 9)
                                 if p ** k <= 256])
def test_vmul_outer_matches_scalar_mul_on_every_pair(p, k):
    # every field of order at most 2^8: one log-domain gather per call
    ctx = build_field(p, k)
    elems = np.arange(ctx.order)
    got = ctx.vmul_outer(elems, elems)
    assert got.dtype == ctx.dtype
    assert got.tolist() == [[ctx.mul(a, b) for b in ctx.elements()]
                            for a in ctx.elements()]


@pytest.mark.parametrize("p,k", [(2, 13), (3, 8)])
def test_vmul_outer_matches_scalar_mul_above_the_table_cap(p, k):
    ctx = build_field(p, k)
    assert ctx.order > gf.TABLE_MAX_ORDER
    rng = np.random.default_rng(p * k)
    col = np.concatenate([[0, 1, ctx.order - 1],
                          rng.integers(ctx.order, size=37)])
    row = np.concatenate([rng.integers(ctx.order, size=50), [1, 0]])
    for c, r in ((col, row), (col.astype(ctx.dtype), row.astype(ctx.dtype))):
        assert ctx.vmul_outer(c, r).tolist() == [
            [ctx.mul(a, b) for b in row.tolist()] for a in col.tolist()]
    assert ctx._add_np is None


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2)])
@pytest.mark.parametrize("t", [0, 1, -1, None])
def test_vector_ops_check_has_teeth(monkeypatch, p, k, t):
    # one nonzero entry written into the zero tail of a copy of exp_np,
    # at the slot that 0 times g^t reads (0 times 0 for None), fails.
    # The scalar ops read the same table, so the values are taken before
    # doctoring, and checked against the table-free digit oracles.
    ctx = build_field(p, k)
    want = scalar_op_values(ctx)
    elems = list(ctx.elements())
    assert want["mul"] == [[mul_by_digits(ctx, a, b) for b in elems]
                           for a in elems]
    assert want["neg"] == [neg_by_digits(ctx, a) for a in elems]
    assert want["pow"] == {e: [pow_by_digits(ctx, a, e) for a in elems]
                           for e in want["pow"]}
    assert_vector_ops_match(ctx, want)
    zero = int(ctx.log_np[0])
    doctored = ctx.exp_np.copy()
    doctored[zero + (zero if t is None else t % (ctx.order - 1))] = 1
    monkeypatch.setattr(ctx, "exp_np", doctored)
    with pytest.raises(AssertionError):
        assert_vector_ops_match(ctx, want)


@pytest.mark.parametrize("p, k, max_bytes", [(2, 20, 1 << 20),
                                             (1048573, 1, 20 << 20)])
def test_first_scalar_ops_copy_no_table(p, k, max_bytes):
    # once exp_np and log_np are filled, one call of each scalar op adds
    # at most the Zech array of odd-p add and its temporaries (8 MB and
    # 9 MB at GF(1048573), a 17 MB peak); a Python list copy of the
    # tables takes about 80 MB at either field
    ctx = build_field(p, k)
    ctx.exp_np, ctx.log_np
    rng = random.Random(p)
    a, b = (rng.randrange(1, ctx.order) for _ in range(2))
    tracemalloc.start()
    try:
        got = [ctx.add(a, b), ctx.neg(a), ctx.sub(a, b), ctx.mul(a, b),
               ctx.inv(a), ctx.div(a, b), ctx.pow(a, 5), ctx.frobenius(a),
               ctx.trace_rel(a, p, k), ctx.norm_rel(a, p, k)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max_bytes
    trace = 0
    for i in range(k):
        trace = add_by_digits(ctx, trace, pow_by_digits(ctx, a, p ** i))
    assert got == [add_by_digits(ctx, a, b), neg_by_digits(ctx, a),
                   add_by_digits(ctx, a, neg_by_digits(ctx, b)),
                   mul_by_digits(ctx, a, b),
                   pow_by_digits(ctx, a, ctx.order - 2),
                   mul_by_digits(ctx, a, pow_by_digits(ctx, b, ctx.order - 2)),
                   pow_by_digits(ctx, a, 5), pow_by_digits(ctx, a, p), trace,
                   pow_by_digits(ctx, a, (ctx.order - 1) // (p - 1))]
    assert all(type(v) is int for v in got)
    # sampled pairs, zeros included, against the digit oracles
    for a, b in [(0, 0), (0, 1), (1, 0)] + [
            (rng.randrange(ctx.order), rng.randrange(ctx.order))
            for _ in range(200)]:
        assert ctx.mul(a, b) == mul_by_digits(ctx, a, b)
        assert ctx.add(a, b) == add_by_digits(ctx, a, b)
        assert ctx.neg(a) == neg_by_digits(ctx, a)
        if b:
            assert ctx.div(a, b) == mul_by_digits(
                ctx, a, pow_by_digits(ctx, b, ctx.order - 2))


def test_norm_values(f8, f27):
    assert f8.norm_rel(1, 2, 3) == 1
    assert f8.norm_rel(f8.generator, 2, 3) == 1  # g^7 = 1
    assert sum(1 for a in f27.nonzero() if f27.norm_rel(a, 3, 3) == 1) == 13
    for a in f27.elements():
        for b in range(0, 27, 4):
            assert (f27.norm_rel(f27.mul(a, b), 3, 3)
                    == f27.mul(f27.norm_rel(a, 3, 3), f27.norm_rel(b, 3, 3)))
    # fibers over GF(3)^* have size (27-1)/(3-1) = 13
    fibers = {}
    for a in f27.nonzero():
        fibers.setdefault(f27.norm_rel(a, 3, 3), 0)
        fibers[f27.norm_rel(a, 3, 3)] += 1
    assert set(fibers.values()) == {13}


def test_trace_norm_preconditions(f27):
    with pytest.raises(ValueError):
        f27.trace_rel(0, 2, 3)   # wrong characteristic
    with pytest.raises(ValueError):
        f27.norm_rel(0, 3, 2)    # 3^2 != 27


def test_subfields(f64):
    assert len(f64.subfield_indices(6)) == 64
    assert f64.subfield_indices(1) == [0, 1]
    quad = f64.subfield_indices(2)
    assert len(quad) == 4
    for a in quad:
        for b in quad:
            assert f64.add(a, b) in quad
            assert f64.mul(a, b) in quad
    with pytest.raises(ValueError):
        f64.subfield_indices(4)


def test_serialization_roundtrip(f27):
    rec = f27.to_dict()
    assert rec == {"p": 3, "k": 3, "modulus": list(f27.modulus),
                   "generator_index": f27.generator}
    again = field_from_dict(rec)
    assert again == f27
    rec["generator_index"] = 5 if f27.generator != 5 else 7
    with pytest.raises(ValueError):
        field_from_dict(rec)


def test_custom_modulus_accepted():
    # X^3 + X^2 + 1 is the other irreducible cubic over GF(2)
    ctx = build_field(2, 3, modulus=[1, 0, 1, 1])
    assert ctx.order == 8
    assert ctx.mul(ctx.inv(3), 3) == 1
