import pytest

from vincular import PATTERN
from vincular.brute import avoider_levels


@pytest.fixture(scope="session")
def brute_levels() -> dict[int, list[tuple[int, ...]]]:
    """Avoiders of 1-32-4 by brute force, lengths 1..7, shared across test
    modules."""
    levels = avoider_levels(PATTERN, 7)
    return {n: levels[n] for n in range(1, 8)}
