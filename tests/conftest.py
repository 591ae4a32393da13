import pytest
from hypothesis import settings

from flagctrl.rootsys import build_root_system
from flagctrl.weyl import generate

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G", 2)


def _group(family, rank):
    return generate(build_root_system(family, rank))


@pytest.fixture(scope="session")
def w_b3():
    return _group("B", 3)


@pytest.fixture(scope="session")
def w_c3():
    return _group("C", 3)


@pytest.fixture(scope="session")
def w_a4():
    return _group("A", 4)


@pytest.fixture(scope="session")
def w_d4():
    return _group("D", 4)


@pytest.fixture(scope="session")
def w_f4():
    return _group("F", 4)


@pytest.fixture(scope="session")
def w_a1(a1):
    return generate(a1)


@pytest.fixture(scope="session")
def w_a2(a2):
    return generate(a2)


@pytest.fixture(scope="session")
def w_a3(a3):
    return generate(a3)


@pytest.fixture(scope="session")
def w_b2(b2):
    return generate(b2)


@pytest.fixture(scope="session")
def w_g2(g2):
    return generate(g2)
