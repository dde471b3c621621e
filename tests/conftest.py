import functools

import pytest

from lingeo.gf import make_field
from lingeo.pg import build_geometry
from lingeo.constructions import full_line, subgeometry, trace_linear_set


@pytest.fixture(scope="session")
def field():
    """``make_field``, memoized for the session: GF(3^10) takes most of a
    second."""
    return functools.lru_cache(maxsize=None)(make_field)


@pytest.fixture(scope="session")
def pg2_49():
    return build_geometry(2, make_field(7, 2))


@pytest.fixture(scope="session")
def pg2_25():
    return build_geometry(2, make_field(5, 2))


@pytest.fixture(scope="session")
def pg2_343():
    return build_geometry(2, make_field(7, 3))


@pytest.fixture(scope="session")
def pg3_49():
    return build_geometry(3, make_field(7, 2))


@pytest.fixture(scope="session")
def baer_49(pg2_49):
    return subgeometry(pg2_49, 1)


@pytest.fixture(scope="session")
def baer_25(pg2_25):
    return subgeometry(pg2_25, 1)


@pytest.fixture(scope="session")
def planar_baer_3d(pg3_49):
    return subgeometry(pg3_49, 1, carrier_dim=2)


@pytest.fixture(scope="session")
def trace_343(pg2_343):
    return trace_linear_set(pg2_343, 1)


@pytest.fixture(scope="session")
def line_49(pg2_49):
    return full_line(pg2_49)


@pytest.fixture(scope="session")
def scattered_11_4():
    """Rank-5 scattered linear set in PG(3, 11^4): 16105 points."""
    from lingeo.constructions import random_linear_blocking_set
    g = build_geometry(3, make_field(11, 4))
    b, ctx, vecs = random_linear_blocking_set(g, 1, 5, seed=0)
    return b


@pytest.fixture(scope="session")
def rank5_pg3_81():
    """Scattered rank-5 linear set of PG(3, 81): 121 points, 1,210
    4-secants, planes of 13 (good) and 40 (bad) points."""
    from lingeo.constructions import random_linear_blocking_set
    g = build_geometry(3, make_field(3, 4))
    return random_linear_blocking_set(g, 1, 5, seed=1)[0]


@pytest.fixture(scope="session")
def rank5_pg3_16():
    """Rank-5 linear set of PG(3, 16), characteristic 2: 31 points."""
    from lingeo.constructions import random_linear_blocking_set
    g = build_geometry(3, make_field(2, 4))
    return random_linear_blocking_set(g, 1, 5, seed=2)[0]


@pytest.fixture(scope="session")
def corpus(line_49, baer_25, baer_49, trace_343, planar_baer_3d,
           scattered_11_4):
    """(name, point set, subfield degree e) for every corpus instance."""
    return [
        ("line-pg2-49", line_49, 2),
        ("baer-pg2-25", baer_25, 1),
        ("baer-pg2-49", baer_49, 1),
        ("trace-pg2-343", trace_343, 1),
        ("planar-baer-pg3-49", planar_baer_3d, 1),
        ("scattered-pg3-11^4", scattered_11_4, 1),
    ]


@pytest.fixture(scope="session")
def corpus_censuses(corpus):
    """name -> LineCensus with (q0+1)-secants collected, computed once."""
    from lingeo.census import line_census
    out = {}
    for name, b, e in corpus:
        q0 = b.geometry.fs.p ** e
        out[name] = line_census(b, collect_sizes=[q0 + 1])
    return out
