import pytest

from girthforge import LUTruncationSpec, WengerTruncationSpec, build_truncated
from helpers import line_from_params


@pytest.fixture(scope="session")
def lu64():
    """The layered truncation at k=3, n=64: 135 points, 2145 lines, 675 edges."""
    return build_truncated(LUTruncationSpec(3, 64))


@pytest.fixture(scope="session")
def lu64_lines(lu64):
    return [line_from_params("lu", v, 3) for v in lu64.line_params]


@pytest.fixture(scope="session")
def wenger64():
    """The positional truncation at k=2, n=64: 325 points, 165 lines, 825 edges."""
    return build_truncated(WengerTruncationSpec(2, 64))


@pytest.fixture(scope="session")
def wenger64_lines(wenger64):
    return [line_from_params("wenger", v, 2) for v in wenger64.line_params]
