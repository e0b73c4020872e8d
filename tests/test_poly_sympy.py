"""normtrace.poly and the modulus search against sympy's galoistools,
an independent implementation of polynomials over GF(p)."""

import itertools
import random

import pytest

galoistools = pytest.importorskip("sympy.polys.galoistools")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

from normtrace import poly  # noqa: E402
from normtrace.gf import (MAX_ORDER, build_field, is_prime,  # noqa: E402
                          poly_is_irreducible, smallest_irreducible)
from oracles import prime_powers  # noqa: E402


def big_endian(f):
    return list(reversed(f))


def sympy_irreducible(f, p):
    return galoistools.gf_irreducible_p(big_endian(f), p, ZZ)


def test_smallest_irreducible_is_first_sympy_irreducible():
    for p, k in prime_powers(MAX_ORDER):
        for t in range(p ** k):
            cand = [t // p ** i % p for i in range(k)] + [1]
            if sympy_irreducible(cand, p):
                break
        assert smallest_irreducible(p, k) == tuple(cand), (p, k)


@pytest.mark.parametrize("p,max_k", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_irreducibility_matches_sympy(p, max_k):
    for k in range(1, max_k + 1):
        for low in itertools.product(range(p), repeat=k):
            f = list(low) + [1]
            assert poly_is_irreducible(f, p) == sympy_irreducible(f, p), f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([p for p in range(2, 252) if is_prime(p)]),
       data=st.data())
def test_irreducibility_matches_sympy_on_random_monic(p, data):
    # a random monic f of degree <= 10, or a product of two monic factors
    # of degree >= 2, which only a later step of Ben-Or's test can refuse
    def monic(lo, hi):
        k = data.draw(st.integers(lo, hi))
        return data.draw(st.lists(st.integers(0, p - 1), min_size=k,
                                  max_size=k)) + [1]
    if data.draw(st.booleans()):
        f = monic(1, 10)
    else:
        g = monic(2, 5)
        f = big_endian(galoistools.gf_mul(big_endian(g),
                                          big_endian(monic(2, 10 - len(g) + 1)),
                                          p, ZZ))
    assert poly_is_irreducible(f, p) == sympy_irreducible(f, p), f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 251])
def test_rem_gcd_mul_match_sympy(p):
    F = build_field(p, 1)  # element indices are the residues mod p
    rng = random.Random(p)
    for _ in range(150):
        f = poly.trim(rng.randrange(p) for _ in range(rng.randrange(10)))
        g = poly.trim(rng.randrange(p) for _ in range(rng.randrange(1, 7)))
        if rng.random() < 0.3:  # force a nontrivial common factor
            h = [rng.randrange(p), 1]
            f, g = poly.mul(F, f, h), poly.mul(F, g, h)
        assert (big_endian(poly.mul(F, f, g))
                == galoistools.gf_mul(big_endian(f), big_endian(g), p, ZZ))
        assert (big_endian(poly.gcd(F, f, g))
                == galoistools.gf_gcd(big_endian(f), big_endian(g), p, ZZ))
        if g:
            assert (big_endian(poly.rem(F, f, g))
                    == galoistools.gf_rem(big_endian(f), big_endian(g), p, ZZ))
