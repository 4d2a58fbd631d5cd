import pytest

from rft import tower as tw
from rft.words import parse_word


@pytest.fixture(scope="session")
def gamma():
    """The one-block tower <a,b,t | [[a,b],t]> used throughout."""
    t0 = tw.new_height0([tw.free_summand("a", "b")])
    return tw.attach_block(t0, tw.BlockT((parse_word("[a,b]"),), 2, ("t",)))


@pytest.fixture(scope="session")
def free2():
    return tw.new_height0([tw.free_summand("a", "b")])
