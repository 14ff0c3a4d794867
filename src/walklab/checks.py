"""Uniform pass/fail record used across verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One verified inequality or identity.

    ``passed`` is None for informational records (measured quantities
    with no asserted bound) and for checks skipped by precondition; the
    note then says why.
    """

    name: str
    lhs: object
    rhs: object
    passed: object
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.passed is False
