"""Verdict vocabulary and the Jury test for 2x2 Jacobians."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class LocalVerdict(str, Enum):
    LAS = "LAS"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


class VerdictTag(str, Enum):
    GLOBALLY_STABLE = "GloballyStable"
    LOCALLY_STABLE_GLOBAL_OPEN = "LocallyStableGlobalOpen"
    ABSORBING_BOX = "AbsorbingBox"
    UNSTABLE = "Unstable"
    NOT_APPLICABLE = "NotApplicable"


def eigenvalues_from_trace_det(tr: float, det: float) -> tuple[complex, complex]:
    """Roots of lambda^2 - tr*lambda + det, as a complex pair."""
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        return complex((tr + s) / 2.0, 0.0), complex((tr - s) / 2.0, 0.0)
    s = math.sqrt(-disc)
    return complex(tr / 2.0, s / 2.0), complex(tr / 2.0, -s / 2.0)


def jury_verdict(tr: float, det: float) -> LocalVerdict:
    """Jury classification with a marginal band of 1e-10 around the boundary.

    Both eigenvalues lie inside the unit disk iff |tr| < 1 + det < 2.
    """
    if abs(abs(tr) - (1.0 + det)) < 1e-10 or abs(det - 1.0) < 1e-10:
        return LocalVerdict.MARGINAL
    if abs(tr) < 1.0 + det < 2.0:
        return LocalVerdict.LAS
    return LocalVerdict.UNSTABLE


@dataclass(frozen=True)
class ClassificationVerdict:
    """Tagged certification outcome with the rule that produced it.

    box          -- (lo, hi) absorbing interval for constant stocking
    even_range   -- (lo, hi) bounds for even-indexed terms (periodic case)
    odd_range    -- (lo, hi) bounds for odd-indexed terms (periodic case)
    witness      -- compatible box corners (a, b) backing the certificate
    local        -- Jury verdict of the equilibrium / 2-cycle, when computed
    """

    tag: VerdictTag
    provenance: str
    note: str = ""
    box: Optional[tuple[float, float]] = None
    witness: Optional[tuple[float, float]] = None
    even_range: Optional[tuple[float, float]] = None
    odd_range: Optional[tuple[float, float]] = None
    local: Optional[LocalVerdict] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.tag.value,
            "provenance": self.provenance,
            "note": self.note,
            "box": list(self.box) if self.box is not None else None,
            "witness": list(self.witness) if self.witness is not None else None,
            "even_range": list(self.even_range) if self.even_range is not None else None,
            "odd_range": list(self.odd_range) if self.odd_range is not None else None,
            "local": self.local.value if self.local is not None else None,
        }
