import pytest

from normtrace.curve import build_curve
from normtrace.gf import build_field

SCALAR_METHODS = ("add", "neg", "sub", "mul", "inv", "div", "pow",
                  "frobenius", "trace_rel", "norm_rel")


@pytest.fixture
def refuse_scalar_methods(monkeypatch):
    """Make every scalar method of a field raise, for the tests that a
    code path reads the field only through its arrays."""
    def refuse(ctx):
        def scalar_method(*args):
            raise AssertionError(f"a scalar method ran on {ctx!r}")
        for name in SCALAR_METHODS:
            monkeypatch.setattr(ctx, name, scalar_method)
    return refuse


@pytest.fixture(scope="session")
def f8():
    return build_field(2, 3)


@pytest.fixture(scope="session")
def f27():
    return build_field(3, 3)


@pytest.fixture(scope="session")
def f64():
    return build_field(2, 6)


@pytest.fixture(scope="session")
def curve23():
    return build_curve(2, 3)


@pytest.fixture(scope="session")
def curve33():
    return build_curve(3, 3)


@pytest.fixture(scope="session")
def curve24():
    return build_curve(2, 4)
