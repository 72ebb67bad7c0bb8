"""Gaussian joint-distribution feasibility via the correlation spectrum.

For jointly Gaussian observables with given means, nonzero variances
and (some) correlations, a compatible joint distribution exists exactly
when the correlation matrix has nonnegative eigenvalues; missing
correlations may be completed to that end.  This is the one module that
works in floating point, with an explicit tolerance (default 1e-10) and
"boundary" labeling near the edge; verdicts elsewhere in the package
remain exact.

For three observables the spectrum criterion collapses to a single
cubic inequality in the correlations,

    r_xy^2 + r_xz^2 + r_yz^2 <= 2 r_xy r_xz r_yz + 1,

which :func:`det_inequality_3var` evaluates in exact rational
arithmetic (the two-by-two minor conditions hold automatically for
correlations in [-1, 1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .algebraic import as_fraction
from .errors import InfeasibleMatrixError, SizeCapError, ValidationError
from .inequalities import InequalityReport, _report

__all__ = [
    "CompletionResult",
    "EigenReport",
    "GaussianSpec",
    "PartialCorrelationMatrix",
    "complete_correlations",
    "det_inequality_3var",
    "eigenvalue_feasible",
    "factoring_certificate",
]

DEFAULT_TOL = 1e-10
MAX_DIMENSION = 8
MAX_MISSING = 6
SEARCH_STARTS = 32
SEARCH_STEPS = 200
SEARCH_SEED = 20240813


def _check_tol(tol, path: str | None = None):
    """The tolerance, once it is a finite, nonnegative number."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not math.isfinite(tol) or tol < 0:
        raise ValidationError(f"tolerance must be a finite nonnegative number, got {tol!r}", path)
    return tol


def _as_float(value) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"not a number: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    return float(as_fraction(value))


@dataclass(frozen=True)
class PartialCorrelationMatrix:
    """Symmetric unit-diagonal matrix with a known/missing mask."""

    entries: np.ndarray
    mask: np.ndarray  # True where the entry is known

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError("correlation matrix must be square")
        if mask.shape != entries.shape:
            raise ValidationError("mask shape must match the matrix")
        n = entries.shape[0]
        if not np.array_equal(mask, mask.T):
            raise ValidationError("mask must be symmetric")
        if not all(mask[i, i] for i in range(n)):
            raise ValidationError("diagonal entries must be known")
        if any(entries[i, i] != 1.0 for i in range(n)):
            raise ValidationError("diagonal entries must equal 1")
        known_vals = entries[mask]
        if np.any(np.isnan(known_vals)) or np.any(np.abs(known_vals) > 1.0):
            raise ValidationError("known correlations must lie in [-1, 1]")
        sym_mask = mask & mask.T
        if not np.allclose(
            entries[sym_mask], entries.T[sym_mask], rtol=0.0, atol=0.0
        ):
            raise ValidationError("known entries must be symmetric")
        entries = entries.copy()
        entries[~mask] = 0.0  # placeholder; never read through the mask
        entries.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    @property
    def fully_known(self) -> bool:
        return bool(self.mask.all())

    def missing_positions(self) -> list[tuple[int, int]]:
        n = self.dimension
        return [(i, j) for i in range(n) for j in range(i + 1, n) if not self.mask[i, j]]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "PartialCorrelationMatrix":
        """Rows with numbers (or "p/q" strings) for known entries, None for missing.

        The unit diagonal is always known; ``None`` on the diagonal is
        read as 1.
        """
        n = len(rows)
        entries = np.ones((n, n))
        mask = np.zeros((n, n), dtype=bool)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError("correlation matrix must be square")
            for j, value in enumerate(row):
                if value is None:
                    continue
                entries[i, j] = _as_float(value)
                mask[i, j] = True
        for i in range(n):
            mask[i, i] = True
        return cls(entries, mask)


@dataclass(frozen=True)
class GaussianSpec:
    """Names, means, positive variances and a (partial) correlation matrix."""

    names: tuple[str, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    correlations: PartialCorrelationMatrix

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ValidationError("duplicate observable names")
        if len(self.means) != n or len(self.variances) != n:
            raise ValidationError("means/variances must match the number of names")
        if self.correlations.dimension != n:
            raise ValidationError("correlation matrix dimension mismatch")
        if any(v <= 0 for v in self.variances):
            raise ValidationError("variances must be strictly positive")
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "variances", tuple(float(v) for v in self.variances))


@dataclass(frozen=True)
class EigenReport:
    feasible: bool
    lambda_min: float
    eigenvalues: tuple[float, ...]
    residual_bound: float
    boundary: bool
    tol: float


def eigenvalue_feasible(
    corr: PartialCorrelationMatrix | np.ndarray, tol: float = DEFAULT_TOL
) -> EigenReport:
    """Nonnegative-spectrum test for a fully known correlation matrix.

    Feasible when the smallest eigenvalue is >= -tol; ``boundary`` flags
    verdicts within tol of zero.  The report carries a certified
    residual bound max_i ||A v_i - w_i v_i|| from the symmetric
    eigendecomposition: each computed eigenvalue is within that bound
    of a true one.
    """
    _check_tol(tol)
    if isinstance(corr, PartialCorrelationMatrix):
        if not corr.fully_known:
            raise ValidationError("eigenvalue test needs a fully known matrix")
        matrix = np.array(corr.entries, dtype=float)
    else:
        matrix = np.array(corr, dtype=float)
        PartialCorrelationMatrix(matrix, np.ones(matrix.shape, dtype=bool))  # validate
    w, v = np.linalg.eigh(matrix)
    residual = float(np.max(np.linalg.norm(matrix @ v - v * w, axis=0)))
    lam = float(w[0])
    return EigenReport(
        feasible=lam >= -tol,
        lambda_min=lam,
        eigenvalues=tuple(float(x) for x in w),
        residual_bound=residual,
        boundary=abs(lam) <= tol,
        tol=tol,
    )


def det_inequality_3var(rxy, rxz, ryz) -> InequalityReport:
    """Exact three-observable feasibility inequality:

    r_xy^2 + r_xz^2 + r_yz^2 <= 2 r_xy r_xz r_yz + 1

    Equivalent to the nonnegative-spectrum criterion for a 3x3 unit
    diagonal matrix with entries in [-1, 1]; the slack equals the
    determinant of that matrix.
    """
    r = {k: as_fraction(v) for k, v in (("rxy", rxy), ("rxz", rxz), ("ryz", ryz))}
    for k, v in r.items():
        if abs(v) > 1:
            raise ValidationError(f"{k} = {v} is outside [-1, 1]")
    lhs = r["rxy"] ** 2 + r["rxz"] ** 2 + r["ryz"] ** 2
    rhs = 2 * r["rxy"] * r["rxz"] * r["ryz"] + 1
    return _report("correlation_determinant", r, rhs - lhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class CompletionResult:
    feasible: bool
    completed: np.ndarray
    lambda_min: float
    assignments: dict[tuple[int, int], float]
    method: str
    closed_form_interval: tuple[float, float] | None = None
    detail: dict = field(default_factory=dict)


def _lambda_min(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def _fill(corr: PartialCorrelationMatrix, values: Sequence[float]) -> np.ndarray:
    filled = np.array(corr.entries, dtype=float)
    for (i, j), v in zip(corr.missing_positions(), values):
        filled[i, j] = filled[j, i] = v
    return filled


def complete_correlations(
    corr: PartialCorrelationMatrix, tol: float = DEFAULT_TOL
) -> CompletionResult:
    """Assign missing correlations to make the spectrum nonnegative.

    For a 3x3 matrix with one missing entry the feasible values form the
    closed interval [r1*r2 - s, r1*r2 + s] with
    s = sqrt((1-r1^2)(1-r2^2)); its midpoint r1*r2 is returned directly.
    Otherwise the most robust completion is sought by maximizing the
    smallest eigenvalue (a concave objective) with deterministic
    multi-start compass search over the missing entries in [-1, 1],
    SEARCH_STARTS starts and SEARCH_STEPS refinement steps each.

    Infeasibility (best achievable smallest eigenvalue below -tol) is
    reported with the best completion found.
    """
    _check_tol(tol)
    n = corr.dimension
    if n > MAX_DIMENSION:
        raise SizeCapError(f"dimension {n} above cap {MAX_DIMENSION}")
    missing = corr.missing_positions()
    if len(missing) > MAX_MISSING:
        raise SizeCapError(f"{len(missing)} missing entries above cap {MAX_MISSING}")

    if not missing:
        lam = _lambda_min(np.array(corr.entries))
        return CompletionResult(
            lam >= -tol, np.array(corr.entries), lam, {}, "already-complete"
        )

    if n == 3 and len(missing) == 1:
        (i, j) = missing[0]
        k = ({0, 1, 2} - {i, j}).pop()
        r1, r2 = corr.entries[i, k], corr.entries[j, k]
        spread = float(np.sqrt(max(0.0, (1 - r1 * r1) * (1 - r2 * r2))))
        mid = float(r1 * r2)
        filled = _fill(corr, [mid])
        lam = _lambda_min(filled)
        return CompletionResult(
            lam >= -tol, filled, lam, {missing[0]: mid}, "closed-form-midpoint",
            closed_form_interval=(mid - spread, mid + spread),
        )

    rng = np.random.default_rng(SEARCH_SEED)
    k = len(missing)
    starts = [np.zeros(k)] + [rng.uniform(-1.0, 1.0, size=k) for _ in range(SEARCH_STARTS - 1)]
    best_vals: np.ndarray | None = None
    best_lam = -np.inf
    for start in starts:
        point = np.clip(start, -1.0, 1.0)
        value = _lambda_min(_fill(corr, point))
        step = 0.5
        for _ in range(SEARCH_STEPS):
            improved = False
            for axis in range(k):
                for direction in (+1.0, -1.0):
                    candidate = point.copy()
                    candidate[axis] = float(np.clip(candidate[axis] + direction * step, -1.0, 1.0))
                    cand_value = _lambda_min(_fill(corr, candidate))
                    if cand_value > value:
                        point, value = candidate, cand_value
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-14:
                    break
        if value > best_lam or (
            value == best_lam
            and best_vals is not None
            and tuple(point) < tuple(best_vals)
        ):
            best_lam, best_vals = value, point
    assert best_vals is not None
    filled = _fill(corr, best_vals)
    assignments = {pos: float(v) for pos, v in zip(missing, best_vals)}
    return CompletionResult(
        best_lam >= -tol, filled, best_lam, assignments, "compass-search",
        detail={"starts": SEARCH_STARTS, "steps": SEARCH_STEPS},
    )


def factoring_certificate(
    spec: GaussianSpec, tol: float = DEFAULT_TOL
) -> dict:
    """Machine-readable assertion that a factoring conditioning variable
    exists for a feasible Gaussian specification.

    A nonnegative correlation spectrum admits a joint Gaussian
    distribution with the given moments, and any joint distribution can
    be conditioned into independence (deterministically), with the
    lambda distribution independent of measurement settings.  No
    explicit continuous lambda is constructed.
    """
    corr = spec.correlations
    if corr.fully_known:
        report = eigenvalue_feasible(corr, tol)
        if not report.feasible:
            raise InfeasibleMatrixError(
                f"smallest eigenvalue {report.lambda_min} is below -{tol}"
            )
        completed = np.array(corr.entries)
        lam = report.lambda_min
    else:
        completion = complete_correlations(corr, tol)
        if not completion.feasible:
            raise InfeasibleMatrixError(
                f"no completion found with smallest eigenvalue above -{tol}"
            )
        completed = completion.completed
        lam = completion.lambda_min
    return {
        "assertion": "factoring-hidden-variable-exists",
        "grounds": (
            "correlation matrix has nonnegative spectrum (within tolerance), "
            "so a joint Gaussian distribution with the given moments exists; "
            "a deterministic factoring conditioning variable follows, with a "
            "setting-independent lambda distribution and factorized first and "
            "second conditional moments"
        ),
        "names": list(spec.names),
        "means": list(spec.means),
        "variances": list(spec.variances),
        "completed_correlations": [[float(x) for x in row] for row in completed],
        "lambda_min": lam,
        "tol": tol,
    }
