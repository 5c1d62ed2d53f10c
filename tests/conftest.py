import pytest

from mzvparity import PrecisionContext


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def ctx20():
    return PrecisionContext(digits=20)


@pytest.fixture(scope="session")
def ctx10():
    return PrecisionContext(digits=10)
