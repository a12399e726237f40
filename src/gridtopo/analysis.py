"""Scenario comparison: which lines flip direction between two runs."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

Endpoints = tuple[str, str]


@dataclass(frozen=True)
class DirectionDiff:
    """Lines whose direction differs between two orientations."""

    changed: tuple[str, ...]
    total: int
    pairs: Mapping[str, tuple[Endpoints, Endpoints]]  # line -> (old, new)

    @property
    def changed_count(self) -> int:
        return len(self.changed)


def direction_diff(
    a: Mapping[str, Endpoints], b: Mapping[str, Endpoints]
) -> DirectionDiff:
    """Compare two (line -> (from_bus, to_bus)) maps over one line set.

    Symmetric up to swapping old/new roles: ``diff(a, b)`` changes the
    same lines as ``diff(b, a)``.
    """
    if a.keys() != b.keys():
        only_a, only_b = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
        raise ValueError(
            f"orientations cover different line sets (only left: {only_a[:5]}, "
            f"only right: {only_b[:5]})"
        )
    changed = tuple(sorted(line for line in a if a[line] != b[line]))
    return DirectionDiff(
        changed=changed,
        total=len(a),
        pairs=MappingProxyType({line: (a[line], b[line]) for line in changed}),
    )
