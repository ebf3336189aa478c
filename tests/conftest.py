"""The natural row order, kept as the tests' oracle.

model_forward runs the LLM rows in one order, visual-first
(build_aifs_plan).  Attention gathers its rows into position order, so
that order must leave every output bit for bit as running the rows in
their natural order; the row_order fixture runs any forward either way.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from mquant import model

ORDERS = ("visual_first", "natural")


def _identity_order(tags: np.ndarray) -> np.ndarray:
    return np.arange(len(tags))


@pytest.fixture(scope="session")
def row_order():
    """row_order(order) is a context manager under which model_forward
    runs the LLM rows in order: "visual_first", its own, or "natural",
    with the identity in place of build_aifs_plan."""

    @contextmanager
    def run(order: str):
        assert order in ORDERS, order
        with pytest.MonkeyPatch.context() as mp:
            if order == "natural":
                mp.setattr(model, "build_aifs_plan", _identity_order)
            yield

    return run
