"""Fixtures shared by the engine tests."""

from __future__ import annotations

import pytest

from repro.db import engine, planner


@pytest.fixture
def plans(monkeypatch):
    """Every plan the engine builds with ``plan_select``, in order."""
    built = []

    def spy(*args, **kwargs):
        planned = planner.plan_select(*args, **kwargs)
        built.append(planned)
        return planned

    monkeypatch.setattr(engine, "plan_select", spy)
    return built
