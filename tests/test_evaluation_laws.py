"""Property tests of rrspace.evaluate over random norm-trace curves in
characteristic 2, 3 and 5, of at most 721 places: the array word equals
the scalar oracle oracles.evaluate_at at every place of Theta, P_inf
included, and products evaluate to products; a pole at P_inf is refused
and a doctored coefficient changes the word.  The witness of d* keeps
its weight for random elements, and its words are pinned to their
SHA-256 digests."""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.codes import (build_code, designed_distance,  # noqa: E402
                             witness_codeword)
from normtrace.curve import build_curve  # noqa: E402
from normtrace.rrspace import evaluate  # noqa: E402
from oracles import evaluate_at  # noqa: E402

# every (q, r) with p in {2, 3, 5} and |Theta| + 1 <= 721
CURVES = [(2, 2), (2, 3), (2, 4), (4, 2), (8, 2), (3, 2), (3, 3), (9, 2),
          (5, 2)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@lru_cache(maxsize=None)
def curve(q, r):
    return build_curve(q, r)


@st.composite
def functions(draw, curves=CURVES):
    """(curve, coeffs, terms): a random curve and a function of one to
    six terms x^i y^j with no pole at P_inf and any coefficient, zero
    included.  A term has valuation 0 (a power of x^c y^{-h}) a third of
    the time, and may repeat an earlier term."""
    cv = curve(*draw(st.sampled_from(curves)))
    h, c, Q = cv.h, cv.c, cv.ctx.order
    coeffs, terms = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("zero", "any", "any", "repeat")
                                    if terms else ("zero", "any")))
        if kind == "zero":
            m = draw(st.integers(-2, 2))
            term = (c * m, -h * m)
        elif kind == "repeat":
            term = draw(st.sampled_from(terms))
        else:  # i <= -j c / h, so i h + j c <= 0
            j = draw(st.integers(-h, 2 * h))
            term = (-j * c // h - draw(st.integers(0, 2 * Q)), j)
        coeffs.append(draw(st.integers(0, Q - 1)))
        terms.append(term)
    return cv, np.array(coeffs, dtype=np.int64), np.array(
        terms, dtype=np.int64).reshape(-1, 2).T


@SETTINGS
@given(functions())
def test_evaluate_equals_the_scalar_oracle(drawn):
    cv, coeffs, terms = drawn
    tuples = list(zip(coeffs.tolist(), *terms.tolist()))
    assert evaluate(cv, coeffs, terms).tolist() == [
        evaluate_at(cv, tuples, P) for P in cv.theta]


@SETTINGS
@given(st.data())
def test_evaluate_is_multiplicative(data):
    cv, f, f_terms = data.draw(functions())
    _, g, g_terms = data.draw(functions([(cv.q, cv.r)]))
    # every pair of terms, unmerged: the word sums repeated terms
    coeffs = cv.ctx.vmul_outer(f, g).ravel()
    terms = (f_terms[:, :, None] + g_terms[:, None, :]).reshape(2, -1)
    assert np.array_equal(evaluate(cv, coeffs, terms), cv.ctx.vmul(
        evaluate(cv, f, f_terms), evaluate(cv, g, g_terms)))


@SETTINGS
@given(st.data())
def test_evaluate_has_teeth(data):
    cv, coeffs, terms = data.draw(functions())
    word = evaluate(cv, coeffs, terms)
    # a term of valuation -1 .. -3 at P_inf, anywhere in the function
    v = data.draw(st.integers(1, 3))
    j = v * pow(cv.c, -1, cv.h) % cv.h
    pole = ((v - j * cv.c) // cv.h, j)
    assert cv.val_infinity(*pole) == -v
    at = data.draw(st.integers(0, len(coeffs)))
    with pytest.raises(ValueError, match="pole at P_inf"):
        evaluate(cv, np.insert(coeffs, at, data.draw(
            st.integers(1, cv.ctx.order - 1))), np.insert(terms, at, pole, 1))
    # one coefficient changed changes the word at every affine place
    if len(coeffs):
        r = data.draw(st.integers(0, len(coeffs) - 1))
        doctored = coeffs.copy()
        doctored[r] = cv.ctx.add(int(coeffs[r]), data.draw(
            st.integers(1, cv.ctx.order - 1)))
        assert (evaluate(cv, doctored, terms) != word)[1:].all()


@settings(SETTINGS, max_examples=12)
@given(st.sampled_from([(2, 3), (3, 2), (3, 3), (2, 4)]), st.randoms())
def test_witness_has_weight_d_star_at_every_ell(qr, rng):
    cv = curve(*qr)
    for ell in range(1, cv.ctx.order):
        c_list = rng.sample(range(1, cv.ctx.order), ell)
        word = witness_codeword(build_code(cv, ell), c_list)
        assert np.count_nonzero(word) == designed_distance(cv, ell)


# SHA-256 of the int64 witness words of every ell, default elements, in
# the order of ell, as the scalar function evaluation formed them: the
# array evaluator must not change a byte of them
WITNESS_DIGESTS = {
    (2, 3): "cbb034560e901dbf37fe395a7aac61eb99d8eb9b9e7a0206eeb8704e9189884b",
    (3, 2): "00afd17c3e7433df2badcb975728552731ef19d52ace759491c0c355b88faa03",
    (3, 3): "e77393f94e54debee3b4f99bbba27c4fc39f018da76ebfdc8db4f4a477d5ba45",
    (2, 4): "acb3d7b2edece6f28f21f0e72382faf01a5dd25e01b6bf1811d3acfea33b58a7",
    (4, 3): "67db1ce3c48644e90ba5b94e0b5acca3316a7d9965e3ae5c27ecc52fffb487ef",
}


@pytest.mark.parametrize("q, r", WITNESS_DIGESTS)
def test_witness_words_are_pinned(q, r):
    cv = build_curve(q, r)
    digest = hashlib.sha256()
    for ell in range(1, cv.ctx.order):
        word = witness_codeword(build_code(cv, ell))
        assert word.dtype == np.int64
        digest.update(word.tobytes())
    assert digest.hexdigest() == WITNESS_DIGESTS[q, r]
