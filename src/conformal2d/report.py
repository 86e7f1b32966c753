"""Uniform pass/fail record for verification checks."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check on points_tested >= 1 points: pass iff
    max_error <= tolerance.  Construction enforces both (ValueError).

    witnesses holds the worst offending sample points as (label, error)
    pairs; extras carries check-specific numbers worth persisting.
    """

    name: str
    points_tested: int
    max_error: float
    tolerance: float
    passed: bool
    witnesses: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.points_tested < 1:
            raise ValueError(f"points_tested {self.points_tested!r} < 1")
        if not isinstance(self.passed, bool):
            raise ValueError(f"passed {self.passed!r} is not a bool")
        if self.passed != (self.max_error <= self.tolerance):
            raise ValueError(f"passed {self.passed!r} disagrees with max_error "
                             f"{self.max_error!r} <= tolerance {self.tolerance!r}")

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
            passed=worst <= tolerance,
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
