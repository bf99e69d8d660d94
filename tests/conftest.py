import pytest
from hypothesis import HealthCheck, settings

from pqvirasoro import oscillator

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def perturb_r4(monkeypatch):
    """perturb_r4(extra) adds the element extra(n, m) to R4(n, m) wherever
    the oscillator reads R4 from ``relation_elements``."""
    def perturb(extra):
        real = oscillator.relation_elements

        def wrong(name, n=0, m=1, *args):
            rels = real(name, n, m, *args)
            return [rels[0] + extra(n, m)] if name == "R4" else rels

        monkeypatch.setattr(oscillator, "relation_elements", wrong)
    return perturb
