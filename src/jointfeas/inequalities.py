"""Closed-form moment inequalities with exact slacks.

Each evaluator returns an :class:`InequalityReport` whose verdict is
tied to the sign of an exactly computed slack (distance to the binding
bound): negative slack means violated, zero sits on the boundary and
counts as satisfied, matching the non-strict inequalities throughout.
Inputs may be rationals or quadratic surds (e.g. -sqrt(3)/2), and all
comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .algebraic import ExactNumber, as_fraction, make_exact
from .errors import ValidationError

__all__ = [
    "CLOSED_FORMS",
    "ClosedForm",
    "InequalityReport",
    "eval_bell_original",
    "eval_chsh",
    "eval_spin1_strengthened",
    "eval_triple_lower_bound_with_means",
    "eval_triple_moment_bounds",
]


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class InequalityReport:
    inequality_id: str
    inputs: Mapping[str, ExactNumber]
    verdict: str  # "satisfied" | "violated"
    slack: ExactNumber
    notes: str = ""
    detail: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.verdict == "satisfied"


def _report(inequality_id: str, inputs: Mapping[str, ExactNumber], slack: ExactNumber,
            notes: str = "", **detail) -> InequalityReport:
    verdict = "violated" if slack < 0 else "satisfied"
    return InequalityReport(inequality_id, dict(inputs), verdict, slack, notes, dict(detail))


def _within_unit(name: str, value: ExactNumber) -> ExactNumber:
    if value > 1 or value < -1:
        raise ValidationError(f"{name} = {value} is outside [-1, 1]")
    return value


def eval_triple_moment_bounds(exy, eyz, exz) -> InequalityReport:
    """Joint-distribution bounds for three zero-mean +-1 observables.

    -1 <= E(XY) + E(YZ) + E(XZ) <= 1 + 2*min(E(XY), E(YZ), E(XZ))

    For this symmetric two-valued case the pair of bounds is necessary
    and sufficient for a joint distribution, which the test suite
    checks against the LP engine over a full moment grid.
    """
    e = {k: _within_unit(k, make_exact(v)) for k, v in (("exy", exy), ("eyz", eyz), ("exz", exz))}
    total = e["exy"] + e["eyz"] + e["exz"]
    lower_slack = total + 1
    upper_slack = 1 + 2 * min(e["exy"], e["eyz"], e["exz"]) - total
    slack = min(lower_slack, upper_slack)
    return _report(
        "triple_moment_bounds", e, slack,
        lower_slack=lower_slack, upper_slack=upper_slack, sum=total,
    )


def eval_triple_lower_bound_with_means(exy, eyz, exz, x0, y0, z0) -> InequalityReport:
    """Lower bound for +-1 observables with arbitrary means:

    E(XY) + E(YZ) + E(XZ) - 2(x0 + y0 + z0) >= -1

    Necessary for a joint distribution; at zero means it reduces to the
    lower half of :func:`eval_triple_moment_bounds`.
    """
    e = {k: _within_unit(k, make_exact(v)) for k, v in (("exy", exy), ("eyz", eyz), ("exz", exz))}
    means = {k: make_exact(v) for k, v in (("x0", x0), ("y0", y0), ("z0", z0))}
    for k, v in means.items():
        if v >= 1 or v <= -1:
            raise ValidationError(f"{k} = {v} must lie strictly inside (-1, 1)")
    slack = (
        e["exy"] + e["eyz"] + e["exz"]
        - 2 * (means["x0"] + means["y0"] + means["z0"])
        + 1
    )
    return _report("triple_lower_bound_with_means", {**e, **means}, slack)


def eval_bell_original(exy, eyz, exz) -> InequalityReport:
    """Bell's original three-observable inequality:

    1 + E(YZ) >= | E(XY) - E(XZ) |

    Neither necessary nor sufficient for a joint distribution of
    zero-mean +-1 observables; the corpus reproduces both failure
    directions.
    """
    e = {k: _within_unit(k, make_exact(v)) for k, v in (("exy", exy), ("eyz", eyz), ("exz", exz))}
    slack = 1 + e["eyz"] - abs(e["exy"] - e["exz"])
    return _report("bell_original", e, slack)


def eval_chsh(
    eab, eabp, eapb, eapbp, j: Fraction = _HALF, normalized: bool = False
) -> InequalityReport:
    """CHSH-form inequalities for two settings per side.

    Default convention (j = 1/2): observables valued +-1, inputs in
    [-1, 1], all four sign patterns

        -2 <= +-E(AB) +- E(AB') +- E(A'B) +- E(A'B') <= 2

    with an odd number of minus signs; necessary and sufficient for a
    joint distribution at zero means.  For higher spin j the observables
    take values in {-j, ..., j}, inputs lie in [-j^2, j^2], and the
    single bound

        |E(AB) - E(AB')| + |E(A'B) + E(A'B')| <= 2j

    is evaluated; with ``normalized=True`` the inputs are divided by
    j^2 (observables scaled to +-1) and the bound 2 applies.
    """
    j = as_fraction(j)
    if j <= 0 or j.denominator > 2:
        raise ValidationError(f"spin must be a positive half-integer, got {j}")
    e = {k: make_exact(v) for k, v in (("eab", eab), ("eabp", eabp), ("eapb", eapb), ("eapbp", eapbp))}

    if j == _HALF:
        for k, v in e.items():
            _within_unit(k, v)
        # Combination k flips the sign of the k-th moment: the total minus twice it.
        total = e["eab"] + e["eabp"] + e["eapb"] + e["eapbp"]
        sums = {f"combination_{k}": total - 2 * v for k, v in enumerate(e.values())}
        slack = 2 - max(abs(s) for s in sums.values())
        return _report("chsh", e, slack, notes="two-valued convention, four inequalities", **sums)

    bound = j * j
    for k, v in e.items():
        if v > bound or v < -bound:
            raise ValidationError(f"{k} = {v} is outside [-{bound}, {bound}] for spin {j}")
    if normalized:
        e = {k: v / bound for k, v in e.items()}
        limit: ExactNumber = Fraction(2)
        note = f"spin {j}, observables normalized to +-1, bound 2"
    else:
        limit = 2 * j
        note = f"spin {j}, single absolute bound 2j = {limit}"
    lhs = abs(e["eab"] - e["eabp"]) + abs(e["eapb"] + e["eapbp"])
    return _report("chsh", e, limit - lhs, notes=note, lhs=lhs)


def eval_spin1_strengthened(eab, eabp, eapb, eapbp) -> InequalityReport:
    """Sharpened three-valued (spin-1) variant of the CHSH bound:

    |E(AB)-E(AB')| + |E(A'B)+E(A'B')| + 2(|E(AB)|-1)(|E(AB')|-1) <= 2
    """
    e = {k: _within_unit(k, make_exact(v)) for k, v in (("eab", eab), ("eabp", eabp), ("eapb", eapb), ("eapbp", eapbp))}
    extra = 2 * (abs(e["eab"]) - 1) * (abs(e["eabp"]) - 1)
    lhs = abs(e["eab"] - e["eabp"]) + abs(e["eapb"] + e["eapbp"]) + extra
    return _report("spin1_strengthened", e, 2 - lhs, lhs=lhs, extra_term=extra)


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form inequality's evaluator and the moments it reads.

    The evaluator's arguments are the product moments E(V_i V_j) of the
    variable positions in ``pairs``, in order, followed by the mean of
    every variable when ``means`` is set.
    """

    evaluate: Callable[..., InequalityReport]
    pairs: tuple[tuple[int, int], ...]
    means: bool = False

    @property
    def variables(self) -> int:
        """How many variables the form needs: one past the largest position it reads."""
        return 1 + max(max(pair) for pair in self.pairs)

    def moments(self) -> list[tuple[int, ...]]:
        """The variable positions of each moment read, in argument order."""
        means = [(i,) for i in range(self.variables)] if self.means else []
        return [*self.pairs, *means]


_TRIPLE_PAIRS = ((0, 1), (1, 2), (0, 2))  # X, Y, Z
_CHSH_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))  # A, A', B, B'

CLOSED_FORMS: dict[str, ClosedForm] = {
    "triple_moment_bounds": ClosedForm(eval_triple_moment_bounds, _TRIPLE_PAIRS),
    "triple_lower_bound_with_means": ClosedForm(
        eval_triple_lower_bound_with_means, _TRIPLE_PAIRS, means=True
    ),
    "bell_original": ClosedForm(eval_bell_original, _TRIPLE_PAIRS),
    "chsh": ClosedForm(eval_chsh, _CHSH_PAIRS),
    "spin1_strengthened": ClosedForm(eval_spin1_strengthened, _CHSH_PAIRS),
}
