import pytest

from outline2report import outline_decoder


@pytest.fixture
def xent_handoffs(monkeypatch):
    """Counts the blocks sequence_nll hands to its worker thread, with a
    second CPU assumed, so that the handoff path runs on any host."""
    handoffs = []
    worker = outline_decoder._ahead_worker

    def counted():
        handoffs.append(1)
        return worker()

    monkeypatch.setattr(outline_decoder, "_ahead_worker", counted)
    monkeypatch.setattr(outline_decoder, "_usable_cpus", lambda: 2)
    return handoffs


@pytest.fixture
def xent_ahead(monkeypatch, xent_handoffs):
    """Every multi-chunk sequence_nll call forms its next block on the worker."""
    monkeypatch.setattr(outline_decoder, "XENT_AHEAD", 1)
    return xent_handoffs
