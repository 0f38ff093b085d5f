"""Make tests/helpers.py importable as `helpers` from any test module,
and share the `broker` fixture the distributed-campaign tests run on."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def broker():
    """An in-memory queue broker serving on a free loopback port."""
    from repro.fuzz.net import QueueBroker
    broker = QueueBroker()
    broker.start()
    yield broker
    broker.stop()
