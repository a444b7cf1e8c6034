import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scrollex import fixtures
from oracles import random_extension_instance
from scrollex.instance import parse_instance

FIXTURES = Path(__file__).parent / "fixtures"


def load(doc):
    ext, _canonical = parse_instance(doc)
    return ext


def load_fixture(name):
    """The extension stored in ``tests/fixtures/{name}.json``."""
    return load((FIXTURES / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def bruns():
    """Triangle {a,b,c} and path c-d-e-a closing a square a-c-d-e.

    The triangle is extended along {a, c} by one variable, the edge {d, e}
    by two.  The single virtual minimal cycle acde expands to a 7-gon.
    """
    return load_fixture("bruns")


@pytest.fixture(scope="session")
def square_one_edge():
    """A 4-cycle with one edge blown up by two variables: the hexagon instance."""
    return load_fixture("square_one_edge")


@pytest.fixture(scope="session")
def triangle_ring():
    """Four triangles in a ring; the head of every matrix feeds the next one.

    The heads chase each other cyclically, so no admissible order exists.
    """
    return load_fixture("triangle_ring")


@pytest.fixture(scope="session")
def triangle_ring_reoriented():
    """The ring with the second matrix re-anchored at a; now orderable.

    The base swaps the roles of h and q: q becomes a graph vertex and h a
    new variable of the second matrix.
    """
    return load_fixture("triangle_ring_reoriented")


@pytest.fixture(scope="session")
def flap_square():
    """A square a-b-c-d with a flap triangle on every side, fully extended.

    Orderable, but the scroll ideals share variables around a cycle, so the
    toricity gate fails and only the lower bound is certified.
    """
    return load_fixture("flap_square")


@pytest.fixture(scope="session")
def random_extensions():
    """Twenty seeded random valid orderable extensions, <= 12 variables each."""
    docs = []
    seed = 0
    while len(docs) < 20:
        docs.append(random_extension_instance(seed))
        seed += 1
    return [load(d) for d in docs]


@pytest.fixture(scope="session")
def cycle_extensions():
    """Seeded cycle extensions (at least one bare edge each)."""
    return [load(fixtures.random_cycle_extension_instance(s)) for s in range(12)]


@pytest.fixture(scope="session")
def corpus(bruns, square_one_edge, flap_square, random_extensions, cycle_extensions):
    """Every instance the cross-validation criteria quantify over."""
    return [bruns, square_one_edge, flap_square] + random_extensions + cycle_extensions
