"""Tableau variables (symbols).

The standard tableau ``Tab(D, X)`` of Section 3.4 uses three kinds of symbols
per attribute column ``A``:

* the **distinguished** variable ``a`` — used in row ``r_i`` when
  ``A ∈ R_i ∩ X``;
* the **shared nondistinguished** variable ``a'`` — used in row ``r_i`` when
  ``A ∈ R_i - X`` (one such variable per attribute, shared by all rows whose
  relation schema contains ``A``);
* **unique nondistinguished** variables — fresh symbols for every other entry.

Variables are immutable value objects; two variables are equal exactly when
they denote the same symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["VariableKind", "Variable", "distinguished", "shared", "unique"]


class VariableKind(str, Enum):
    """The three kinds of tableau symbols."""

    DISTINGUISHED = "distinguished"
    SHARED = "shared"
    UNIQUE = "unique"


@dataclass(frozen=True, order=True)
class Variable:
    """A tableau symbol.

    ``attribute`` is the column the symbol belongs to, ``kind`` its class and
    ``index`` disambiguates unique nondistinguished variables (it is ``0`` for
    distinguished and shared variables).
    """

    attribute: str
    kind: VariableKind
    index: int = 0

    @property
    def is_distinguished(self) -> bool:
        """True for the distinguished variable of its column."""
        return self.kind is VariableKind.DISTINGUISHED

    @property
    def is_nondistinguished(self) -> bool:
        """True for shared and unique nondistinguished variables."""
        return not self.is_distinguished

    def render(self) -> str:
        """Human readable rendering: ``a`` / ``a'`` / ``a''3``."""
        if self.kind is VariableKind.DISTINGUISHED:
            return self.attribute
        if self.kind is VariableKind.SHARED:
            return f"{self.attribute}'"
        return f"{self.attribute}''{self.index}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Variable({self.render()!r})"


def distinguished(attribute: str) -> Variable:
    """The distinguished variable of column ``attribute``."""
    return Variable(attribute=attribute, kind=VariableKind.DISTINGUISHED)


def shared(attribute: str) -> Variable:
    """The shared nondistinguished variable of column ``attribute``."""
    return Variable(attribute=attribute, kind=VariableKind.SHARED)


def unique(attribute: str, index: int) -> Variable:
    """A unique nondistinguished variable of column ``attribute``."""
    return Variable(attribute=attribute, kind=VariableKind.UNIQUE, index=index)
