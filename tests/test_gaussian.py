import itertools
from fractions import Fraction

import numpy as np
import pytest

from jointfeas import (
    GaussianSpec,
    PartialCorrelationMatrix,
    complete_correlations,
    det_inequality_3var,
    eigenvalue_feasible,
    factoring_certificate,
)
from jointfeas.errors import InfeasibleMatrixError, SizeCapError, ValidationError

F = Fraction


def full(rows):
    return PartialCorrelationMatrix.from_rows(rows)


class TestEigenvalueTest:
    def test_equicorrelation_boundary(self):
        rep = eigenvalue_feasible(full([[1, "-1/2", "-1/2"], ["-1/2", 1, "-1/2"], ["-1/2", "-1/2", 1]]))
        assert rep.feasible and rep.boundary
        assert abs(rep.lambda_min) <= 1e-10
        assert sorted(round(x, 9) for x in rep.eigenvalues) == [0.0, 1.5, 1.5]
        assert rep.residual_bound < 1e-12

    def test_identity(self):
        rep = eigenvalue_feasible(np.eye(4))
        assert rep.feasible and rep.lambda_min == pytest.approx(1.0)
        assert not rep.boundary

    def test_point_nine_violation(self):
        rep = eigenvalue_feasible(full([[1, "9/10", "-9/10"], ["9/10", 1, "9/10"], ["-9/10", "9/10", 1]]))
        assert not rep.feasible
        assert rep.lambda_min < -0.5

    def test_permutation_invariance(self):
        rows = [[1, 0.3, -0.5], [0.3, 1, 0.7], [-0.5, 0.7, 1]]
        base = eigenvalue_feasible(np.array(rows))
        for perm in itertools.permutations(range(3)):
            p = np.eye(3)[list(perm)]
            permuted = p @ np.array(rows) @ p.T
            rep = eigenvalue_feasible(permuted)
            assert rep.feasible == base.feasible
            assert rep.lambda_min == pytest.approx(base.lambda_min, abs=1e-12)

    def test_partial_matrix_rejected(self):
        part = full([[1, None, 0.5], [None, 1, 0.5], [0.5, 0.5, 1]])
        with pytest.raises(ValidationError):
            eigenvalue_feasible(part)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalue_feasible(np.array([[1.0, 0.5], [0.4, 1.0]]))


@pytest.mark.parametrize("tol", [-1, -1e-12, float("nan"), float("inf"), True, "1e-10", None])
def test_tolerance_must_be_a_finite_nonnegative_number(tol):
    known = full([[1, "1/2"], ["1/2", 1]])
    partial = full([[1, "1/2", None], ["1/2", 1, "1/2"], [None, "1/2", 1]])
    spec = GaussianSpec(("X", "Y"), (0.0, 0.0), (1.0, 1.0), known)
    calls = [
        lambda: eigenvalue_feasible(known, tol),
        lambda: complete_correlations(partial, tol),
        lambda: factoring_certificate(spec, tol),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="tolerance must be a finite nonnegative number"):
            call()


def test_zero_and_rational_tolerances_are_accepted():
    known = full([[1, "1/2"], ["1/2", 1]])
    assert eigenvalue_feasible(known, 0).tol == 0
    assert eigenvalue_feasible(known, F(1, 10**9)).feasible


class TestDeterminantInequality:
    def test_equicorrelation_boundary(self):
        rep = det_inequality_3var("-1/2", "-1/2", "-1/2")
        assert rep.satisfied and rep.slack == 0

    def test_point_nine_violation(self):
        rep = det_inequality_3var("9/10", "-9/10", "9/10")
        assert rep.verdict == "violated"
        assert rep.detail["lhs"] == F(243, 100)
        assert rep.detail["rhs"] == F(-458, 1000)

    def test_zeros(self):
        rep = det_inequality_3var(0, 0, 0)
        assert rep.satisfied and rep.slack == 1

    def test_matches_eigenvalue_verdict_on_subgrid(self):
        grid = [F(n, 5) for n in range(-5, 6)]
        for a, b, c in itertools.product(grid, repeat=3):
            exact = det_inequality_3var(a, b, c)
            rows = [[1.0, float(a), float(b)], [float(a), 1.0, float(c)], [float(b), float(c), 1.0]]
            eig = eigenvalue_feasible(np.array(rows))
            if exact.slack == 0:
                assert eig.boundary and eig.feasible
            else:
                assert eig.feasible == exact.satisfied


class TestCompletion:
    def test_single_missing_closed_form(self):
        part = full([[1, "9/10", None], ["9/10", 1, "9/10"], [None, "9/10", 1]])
        res = complete_correlations(part)
        assert res.feasible and res.method == "closed-form-midpoint"
        assert res.assignments[(0, 2)] == pytest.approx(0.81)
        lo, hi = res.closed_form_interval
        assert lo == pytest.approx(0.62) and hi == pytest.approx(1.0)
        assert res.lambda_min >= -1e-10

    def test_degenerate_interval(self):
        part = full([[1, 1, None], [1, 1, -1], [None, -1, 1]])
        res = complete_correlations(part)
        assert res.feasible
        assert res.assignments[(0, 2)] == pytest.approx(-1.0)

    def test_all_missing_identity_works(self):
        part = full([[1, None, None], [None, 1, None], [None, None, 1]])
        res = complete_correlations(part)
        assert res.feasible
        assert res.lambda_min == pytest.approx(1.0, abs=1e-9)

    def test_search_path_multi_missing(self):
        part = full(
            [
                [1, "1/2", None, None],
                ["1/2", 1, "1/2", None],
                [None, "1/2", 1, "1/2"],
                [None, None, "1/2", 1],
            ]
        )
        res = complete_correlations(part)
        assert res.feasible and res.method == "compass-search"
        assert res.lambda_min > 0.0
        # perturbing the diagonal by tol keeps the spectrum positive
        bumped = res.completed + 1e-10 * np.eye(4)
        assert np.linalg.eigvalsh(bumped)[0] > 0

    def test_caps(self):
        n = 9
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        with pytest.raises(SizeCapError):
            complete_correlations(full(rows))

    def test_fully_known_passthrough(self):
        res = complete_correlations(full([[1, "1/2"], ["1/2", 1]]))
        assert res.feasible and res.method == "already-complete"


class TestFactoringCertificate:
    def spec(self, matrix):
        corr = full(matrix)
        n = corr.dimension
        return GaussianSpec(
            tuple(f"X{i}" for i in range(n)), (0.0,) * n, (1.0,) * n, corr
        )

    def test_certificate_for_boundary_matrix(self):
        cert = factoring_certificate(
            self.spec([[1, "-1/2", "-1/2"], ["-1/2", 1, "-1/2"], ["-1/2", "-1/2", 1]])
        )
        assert cert["assertion"] == "factoring-hidden-variable-exists"
        assert cert["lambda_min"] == pytest.approx(0.0, abs=1e-10)

    def test_certificate_for_identity(self):
        cert = factoring_certificate(self.spec([[1, 0], [0, 1]]))
        assert cert["completed_correlations"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleMatrixError):
            factoring_certificate(
                self.spec([[1, "9/10", "-9/10"], ["9/10", 1, "9/10"], ["-9/10", "9/10", 1]])
            )

    def test_completion_path(self):
        cert = factoring_certificate(
            self.spec([[1, "9/10", None], ["9/10", 1, "9/10"], [None, "9/10", 1]])
        )
        assert cert["completed_correlations"][0][2] == pytest.approx(0.81)

    def test_zero_variance_rejected(self):
        corr = full([[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            GaussianSpec(("X", "Y"), (0.0, 0.0), (1.0, 0.0), corr)
