import os
import pathlib
import random

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SEED = int(os.environ.get("SEMI_SEED", "20260817"))


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports goodsemi from this tree."""
    import goodsemi

    src = os.path.dirname(os.path.dirname(goodsemi.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def load_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fig_s():
    """The two-branch semigroup S = {0} u ((3,1)+N^2)."""
    import goodsemi as g

    return g.GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))


@pytest.fixture(scope="session")
def wide_s():
    """The larger two-branch semigroup with staircase frame."""
    import goodsemi as g

    return g.GoodSemigroup.from_points(
        [(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6)
    )


@pytest.fixture(scope="session")
def wide_e():
    """The (E1)-but-not-(E2) ideal of wide_s."""
    import goodsemi as g

    return g.IdealFrame.from_points(
        [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (6, 5), (7, 5)],
        gamma=(7, 5),
    )


@pytest.fixture(scope="session")
def curve_spec():
    """The worked four-generator two-branch curve with its modules."""
    from goodsemi.ringbridge import curves

    return curves.parse_curve(load_text("twobranch.curve"), filename="twobranch.curve")
