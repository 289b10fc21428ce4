"""Shared test settings: a deterministic hypothesis profile."""

try:
    from hypothesis import settings

    settings.register_profile("suite", deadline=None, derandomize=True)
    settings.load_profile("suite")
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass
