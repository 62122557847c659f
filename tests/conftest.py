import pytest

from schreierlab import Permutation, catalog_group


@pytest.fixture(scope="session")
def c4():
    return catalog_group("cyclic:4")


@pytest.fixture(scope="session")
def c6():
    return catalog_group("cyclic:6")


@pytest.fixture(scope="session")
def s3():
    return catalog_group("sym:3")


@pytest.fixture(scope="session")
def d8():
    return catalog_group("dihedral:8")


@pytest.fixture(scope="session")
def heis3():
    return catalog_group("heisenberg:3")


@pytest.fixture
def built_permutations(monkeypatch):
    """A list that grows by one for every Permutation built in the test."""
    built = []
    init, raw = Permutation.__init__, Permutation._raw.__func__

    def counting_init(self, images):
        built.append(1)
        init(self, images)

    def counting_raw(cls, images):
        built.append(1)
        return raw(cls, images)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    monkeypatch.setattr(Permutation, "_raw", classmethod(counting_raw))
    return built
