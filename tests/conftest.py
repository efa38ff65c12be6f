import pytest
from hypothesis import HealthCheck, settings

from gysin import verification
from gysin.spaces import lg

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def corrupt_lg1_residue(monkeypatch):
    """Make the residue path of a sweep wrong by 1 on s_1 over lg(1) only."""
    honest = verification.schur_residue

    def faulty(lam, space):
        value = honest(lam, space)
        return value + 1 if space == lg(1) and lam.weight == 1 else value

    monkeypatch.setattr(verification, "schur_residue", faulty)
