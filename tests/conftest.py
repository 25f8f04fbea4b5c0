import threading

import pytest

from outline2report import outline_decoder


@pytest.fixture
def xent_handoffs(monkeypatch):
    """The threads that formed the blocks sequence_nll handed off, one entry
    per block, with a second CPU assumed, so that the handoff path runs on
    any host."""
    handoffs = []
    under_errstate = outline_decoder._under_errstate

    def recorded(errors, fn, *args):
        handoffs.append(threading.current_thread())
        return under_errstate(errors, fn, *args)

    monkeypatch.setattr(outline_decoder, "_under_errstate", recorded)
    monkeypatch.setattr(outline_decoder, "_usable_cpus", lambda: 2)
    return handoffs


@pytest.fixture
def xent_ahead(monkeypatch, xent_handoffs):
    """Every multi-chunk sequence_nll call forms its next block on a pool thread."""
    monkeypatch.setattr(outline_decoder, "XENT_AHEAD", 1)
    return xent_handoffs
