import pytest
from hypothesis import settings

from ews import blockpos

# Property tests draw their examples deterministically, so every run of the
# suite checks the same cases and stays fast.
settings.register_profile(
    "ews", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("ews")


@pytest.fixture
def searches(monkeypatch):
    """The result of every see-saw search the test runs, in order."""
    found = []
    search = blockpos._seesaw

    def recording(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(blockpos, "_seesaw", recording)
    return found
