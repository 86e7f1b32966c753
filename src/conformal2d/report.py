"""Uniform pass/fail record for verification checks."""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check on points_tested >= 1 points: pass iff
    max_error <= tolerance, with neither an infinite tolerance nor a
    max_error of -inf.  Construction enforces all three (ValueError); passed
    is derived from the numbers, so no stored verdict can disagree with them.

    witnesses holds the worst offending sample points as (label, error)
    pairs; extras carries check-specific numbers worth persisting.
    """

    name: str
    points_tested: int
    max_error: float
    tolerance: float
    _: KW_ONLY
    witnesses: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.points_tested < 1:
            raise ValueError(f"points_tested {self.points_tested!r} < 1")
        # the only non-finite numbers under which any error passes
        if self.tolerance == math.inf or self.max_error == -math.inf:
            raise ValueError(f"max_error {self.max_error!r} <= tolerance "
                             f"{self.tolerance!r} is vacuous")

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    @classmethod
    def from_errors(cls, name: str, errors, tolerance: float,
                    witnesses=(), extras=None) -> "CheckReport":
        errs = [float(e) for e in errors]
        # a NaN anywhere fails the check; max() alone drops one not in front
        worst = float("nan") if any(e != e for e in errs) else max(errs, default=0.0)
        return cls(
            name=name,
            points_tested=len(errs),
            max_error=worst,
            tolerance=float(tolerance),
            witnesses=tuple(witnesses),
            extras=dict(extras or {}),
        )

    @classmethod
    def from_labeled(cls, name: str, labeled, tolerance: float) -> "CheckReport":
        """from_errors over (label, error) pairs, the worst kept as witnesses."""
        return cls.from_errors(name, [e for _, e in labeled], tolerance,
                               witnesses=worst_witnesses(labeled))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points_tested": self.points_tested,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
            "extras": self.extras,
        }

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: max_error={self.max_error:.3e} "
                f"tol={self.tolerance:.3e} n={self.points_tested}")


def worst_witnesses(labeled_errors, k: int = 3) -> tuple:
    """Keep the k largest (label, error) pairs for a report."""
    ranked = sorted(labeled_errors, key=lambda t: -t[1])
    return tuple((str(lbl), float(err)) for lbl, err in ranked[:k])
