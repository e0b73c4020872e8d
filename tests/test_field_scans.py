"""b_roots and to_standard_qm, which scan whole fields as arrays, against
the scalar scans of tests/oracles.py."""

import functools
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import sepcurve  # noqa: E402
from normtrace.gf import build_field  # noqa: E402
from normtrace.sepcurve import (SeparatedCurveSpec, b_roots,  # noqa: E402
                                to_standard_qm)
from oracles import (b_roots_by_division, poly_mul,  # noqa: E402
                     poly_power, poly_scale, standardization_by_scan)

field = functools.cache(build_field)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# (p, k, D): a product of factors of degree <= D over GF(p^k) splits over
# GF(p^{k lcm(1..D)}), of order <= 2^12
ROOT_HOSTS = [(2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2),
              (5, 1, 2), (5, 2, 2)]


@st.composite
def root_specs(draw):
    """A spec whose B, of degree 2 <= m <= 8 prime to p, is a unit times
    powers of random monic factors of degree <= D; the powers may reach
    p, where B' loses the factor."""
    p, k, D = draw(st.sampled_from(ROOT_HOSTS))
    host = field(p, k)
    element = st.integers(0, host.order - 1)
    b = [draw(st.integers(1, host.order - 1))]
    while len(b) < 9 and (len(b) == 1 or draw(st.booleans())):
        room = 9 - len(b)
        d = draw(st.integers(1, min(D, room)))
        f = [draw(element) for _ in range(d)] + [1]
        b = poly_mul(host, b, poly_power(host, f, draw(st.integers(1, room // d))))
    assume(len(b) >= 3 and (len(b) - 1) % p)
    return SeparatedCurveSpec(host, {0: 1, 1: 1}, tuple(b))


@SETTINGS
@given(root_specs())
def test_b_roots_equals_division_oracle(spec):
    want = b_roots_by_division(spec)
    assert want is not None
    assert b_roots(spec) == want


def _count_builds(monkeypatch):
    built = []
    monkeypatch.setattr(sepcurve, "build_field",
                        lambda p, k: built.append((p, k)) or field(p, k))
    return built


def test_b_roots_finds_a_factor_of_multiplicity_p(monkeypatch):
    # B = X (X^2 + 1)^3 over GF(3): B' = (X^2 + 1)^3, so B / gcd(B, B') = X
    # alone would pass GF(3); with p^e = 9 >= deg B, B divides
    # X^(9 Q^t) - X^9 first at t = 2, so GF(9), where the roots +-i lie,
    # is the one built
    built = _count_builds(monkeypatch)
    f3 = field(3, 1)
    b = poly_mul(f3, [0, 1], poly_power(f3, [1, 0, 1], 3))
    spec = SeparatedCurveSpec(f3, {0: 1, 1: 1}, tuple(b))
    E, roots = b_roots(spec)
    assert built == [(3, 2)]
    assert E.order == 9 and sorted(m for _, m in roots) == [1, 3, 3]
    assert (E, roots) == b_roots_by_division(spec)


def test_b_roots_runs_no_scalar_method_on_its_host_field(
        refuse_scalar_methods):
    # B = X (X^3 + 2 X + 1)^2 over GF(9), whose cubic factor splits only
    # over GF(3^6): every step of the divisibility test in GF(9)[X] reads
    # the host field through its arrays
    host = field(3, 2)
    b = poly_mul(host, [0, 1], poly_power(host, [1, 2, 0, 1], 2))
    spec = SeparatedCurveSpec(host, {0: 1, 1: 1}, tuple(b))
    want = b_roots_by_division(spec)
    refuse_scalar_methods(host)
    E, roots = b_roots(spec)
    assert E.order == 729 and (E, roots) == want


def test_b_roots_builds_no_field_when_b_splits_beyond_the_limit(monkeypatch):
    # B = X^59 + X = X (X^29 + 1)^2 over GF(2) splits first over GF(2^28):
    # B divides no X^(64 2^t) - X^64 with 2^t up to the order limit, so
    # no field is built
    built = _count_builds(monkeypatch)
    spec = SeparatedCurveSpec(field(2, 1), {0: 1, 1: 1, 2: 1},
                              tuple([0, 1] + [0] * 57 + [1]))
    with pytest.raises(ValueError, match="exceeds limit"):
        b_roots(spec)
    assert built == []


@st.composite
def two_term_specs(draw):
    """a_n Y^{p^n} + a_0 Y = b_m (X + s)^m over GF(p^k) of order <= 16."""
    p = draw(st.sampled_from([2, 3, 5]))
    host = field(p, draw(st.integers(1, {2: 4, 3: 2, 5: 1}[p])))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p]))
    m = draw(st.sampled_from([m for m in range(2, 9)
                              if m % p and max(p ** n, m) >= 4]))
    unit = st.integers(1, host.order - 1)
    s = draw(st.integers(0, host.order - 1))
    b = poly_scale(host, draw(unit), poly_power(host, [s, 1], m))
    return SeparatedCurveSpec(host, {0: draw(unit), n: draw(unit)}, tuple(b))


@SETTINGS
@given(two_term_specs())
def test_to_standard_qm_equals_scan_oracle(spec):
    want = standardization_by_scan(spec)
    assume(want is not None)
    std = to_standard_qm(spec)
    assert (std.field, std.gamma, std.delta, std.shift,
            std.extension_degree) == want


def test_standardization_without_a_solution_is_refused_quickly():
    # Y^1024 + Y = g X^5 over GF(2^20) with g the generator: the deltas
    # are the 1023rd roots of unity, all fifth powers, and g is none, so
    # no gamma exists; a nested scan passes over the field 1023 times
    F = field(2, 20)
    spec = SeparatedCurveSpec(F, {0: 1, 10: 1}, (0,) * 5 + (F.generator,))
    start = time.process_time()
    with pytest.raises(ValueError, match="field order 2\\^40 exceeds limit"):
        to_standard_qm(spec)
    assert time.process_time() - start < 5
