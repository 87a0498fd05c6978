"""Shared fixtures: cached group/table contexts for the test groups."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import settings

import isotypic as iso

# Every @given test draws the same examples on every run, so a failure
# replays exactly; max_examples keeps its default.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

TEST_GROUPS = ("C1", "C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")
ACCEPTANCE_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")


@dataclass
class GroupContext:
    name: str
    group: iso.Group
    classes: iso.ConjugacyClasses
    p: int
    table: iso.CharacterTable
    _models: list | None = None

    @property
    def models(self):
        if self._models is None:
            self._models = iso.irreducible_models(self.group, self.table)
        return self._models


_CACHE: dict[str, GroupContext] = {}


def _build(name: str) -> GroupContext:
    group = iso.group_from_name(name)
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    table = iso.character_table(group, classes, p)
    return GroupContext(name, group, classes, p, table)


@pytest.fixture(scope="session")
def ctx():
    def get(name: str) -> GroupContext:
        if name not in _CACHE:
            _CACHE[name] = _build(name)
        return _CACHE[name]

    return get
