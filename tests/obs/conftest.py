"""Observability tests share process-wide state: isolate it."""

import pytest

from repro import obs
from repro.obs import events, telemetry


@pytest.fixture(autouse=True)
def clean_obs():
    """Reset registry/events/capture/telemetry and restore state per test."""
    was_enabled = obs.enabled()
    obs.reset()
    events.disable()
    obs.disable_chrome_trace()
    telemetry.reset_streams()
    telemetry.stop()
    yield
    obs.reset()
    events.disable()
    obs.disable_chrome_trace()
    telemetry.reset_streams()
    telemetry.stop()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
