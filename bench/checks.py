"""Checks of the program's outputs against computations made apart from
the solvers.

Every checker returns a list of error strings (empty when the output is
right). The references are computed here from the problem data: the
facility objectives are re-implemented from the published instance, the
quadratic equilibria are solved from the generated A_i, B_i, c_i with
numpy, and the five examples' stationary points are in closed form.
"""

import csv
import io
import json

import numpy as np

EPS = np.finfo(float).eps

# ---------------------------------------------------------------------------
# 2-D facility location: the published instance, re-implemented
# ---------------------------------------------------------------------------

FACILITY_CLIENTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
FACILITY_PROFITS = (np.array([1.0, 2.0, 1.0, 1.0]), np.array([1.0, 2.0, 2.0, 3.0]))

#: central-difference steps: O(h^2) truncation against O(eps/h) (gradient)
#: and O(eps/h^2) (Hessian) round-off, both far below the tolerances used
FD_STEP_GRAD = 1e-5
FD_STEP_HESS = 1e-4


def facility_value(player, x1, x2):
    """f_i = sum_j b_j u_j / (u_j + v_j), u_j (v_j) the squared distance of
    player i's (the opponent's) facility to client j."""
    own, other = (x1, x2) if player == 1 else (x2, x1)
    u = np.sum((np.asarray(own) - FACILITY_CLIENTS) ** 2, axis=1)
    v = np.sum((np.asarray(other) - FACILITY_CLIENTS) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(FACILITY_PROFITS[player - 1] * u / (u + v)))


def _own(player, x1, x2):
    """Player i's objective as a function of their own block only."""
    if player == 1:
        return lambda z: facility_value(1, z, x2), np.asarray(x1, dtype=float)
    return lambda z: facility_value(2, x1, z), np.asarray(x2, dtype=float)


def cd_gradient(f, z, h=FD_STEP_GRAD):
    e = np.eye(z.size) * h
    return np.array([(f(z + e[k]) - f(z - e[k])) / (2 * h) for k in range(z.size)])


def cd_hessian(f, z, h=FD_STEP_HESS):
    e = np.eye(z.size) * h
    n = z.size
    H = np.empty((n, n))
    for k in range(n):
        for m in range(n):
            H[k, m] = (
                f(z + e[k] + e[m]) - f(z + e[k] - e[m])
                - f(z - e[k] + e[m]) + f(z - e[k] - e[m])
            ) / (4 * h * h)
    return 0.5 * (H + H.T)


def facility_residual(x1, x2):
    g1 = cd_gradient(*_own(1, x1, x2))
    g2 = cd_gradient(*_own(2, x1, x2))
    return float(np.linalg.norm(np.concatenate([g1, g2])))


def _stationary_within(residual, grad_tol):
    return residual <= grad_tol * (1 + 1e-3) + 1e-8


def check_facility(report, grad_tol, divergence_radius, max_iter):
    """One facility solve: converged points stationary with the right
    label, diverged runs beyond the escape radius or non-finite."""
    x1 = np.asarray(report.final_x1, dtype=float)
    x2 = np.asarray(report.final_x2, dtype=float)
    status = report.status.value
    if status == "converged":
        errors = []
        res = facility_residual(x1, x2)
        if not _stationary_within(res, grad_tol):
            errors.append(f"converged at ({x1}, {x2}) but the central-difference residual is {res:.3e}")
        min_eigs = [
            float(np.linalg.eigvalsh(cd_hessian(*_own(p, x1, x2)))[0]) for p in (1, 2)
        ]
        expected = (
            "equilibrium-candidate" if min(min_eigs) >= 0 else "non-equilibrium-stationary"
        )
        label = None if report.classification is None else report.classification.kind.value
        if label != expected:
            errors.append(
                f"label {label} at ({x1}, {x2}), Hessian eigenvalues say {expected} ({min_eigs})"
            )
        return errors
    if status == "diverged":
        values = [facility_value(p, x1, x2) for p in (1, 2)]
        finite = np.all(np.isfinite(np.concatenate([x1, x2, values])))
        if finite and max(np.max(np.abs(x1)), np.max(np.abs(x2))) <= divergence_radius:
            return [f"diverged at finite ({x1}, {x2}) inside radius {divergence_radius}"]
        return []
    if status == "max-iterations":
        return [] if report.iterations == max_iter else [f"iteration cap hit after {report.iterations}"]
    if status == "line-search-failure":
        res = facility_residual(x1, x2)
        return [] if not _stationary_within(res, grad_tol) else ["line-search failure at a stationary point"]
    return [f"unknown status {status}"]


# ---------------------------------------------------------------------------
# dense quadratic games
# ---------------------------------------------------------------------------


class QuadraticReference:
    """Equilibrium, conditioning and Jacobi spectral radius of a quadratic
    game, from its data alone."""

    def __init__(self, game):
        K = np.block([[game.A1, game.B1], [game.B2, game.A2]])
        c = np.concatenate([game.c1, game.c2])
        self.K, self.c = K, c
        self.x_star = np.linalg.solve(K, c)
        sv = np.linalg.svd(K, compute_uv=False)
        self.sigma_min = float(sv[-1])
        cond = float(sv[0] / sv[-1])
        # forward error of two backward-stable solves of the same system
        self.newton_tol = 16 * K.shape[0] * EPS * cond * max(1.0, np.linalg.norm(self.x_star))
        # exact Jacobi map x1 <- A1^-1 (c1 - B1 x2), x2 <- A2^-1 (c2 - B2 x1);
        # its square has blocks A1^-1 B1 A2^-1 B2 and A2^-1 B2 A1^-1 B1
        M = np.linalg.solve(game.A1, game.B1) @ np.linalg.solve(game.A2, game.B2)
        self.rho = float(np.sqrt(np.max(np.abs(np.linalg.eigvals(M)))))

    def error(self, x1, x2):
        return float(np.linalg.norm(np.concatenate([x1, x2]) - self.x_star))

    def residual(self, x1, x2):
        return float(np.linalg.norm(self.K @ np.concatenate([x1, x2]) - self.c))


def check_quadratic(report, ref, solver, grad_tol):
    """descent-newton and newton-kkt: the equilibrium in one iteration;
    exact-jacobi: converged when rho < 1, diverged when rho > 1."""
    status = report.status.value
    x1 = np.asarray(report.final_x1, dtype=float)
    x2 = np.asarray(report.final_x2, dtype=float)
    if solver == "exact-jacobi" and ref.rho > 1:
        return [] if status == "diverged" else [f"exact-jacobi {status} with rho {ref.rho:.3f} > 1"]
    if status != "converged":
        return [f"{solver} {status}, expected converged (rho {ref.rho:.3f})"]
    errors = []
    if solver == "exact-jacobi":
        tol = grad_tol / ref.sigma_min * (1 + 1e-6) + ref.newton_tol
    else:
        tol = ref.newton_tol
        if report.iterations != 1:
            errors.append(f"{solver} took {report.iterations} iterations, expected 1")
    err = ref.error(x1, x2)
    if not err <= tol:
        errors.append(f"{solver} end point is {err:.3e} from the equilibrium (tolerance {tol:.3e})")
    res = ref.residual(x1, x2)
    if not res <= grad_tol * (1 + 1e-6) + ref.newton_tol * np.linalg.norm(ref.K, 2):
        errors.append(f"{solver} claims convergence with residual {res:.3e}")
    label = None if report.classification is None else report.classification.kind.value
    if label != "equilibrium-candidate":
        errors.append(f"{solver} labels the equilibrium of a strictly convex game {label}")
    return errors


# ---------------------------------------------------------------------------
# the one-dimensional examples and the CLI's output files
# ---------------------------------------------------------------------------

#: closed-form stationary points and the Jacobian of (g1, g2) there
EXAMPLE_POINTS = {
    "examp1": [((2.0, 1.0), [[2.0, 1.0], [-1.0, 3.0]])],
    "examp2": [((4.0 / 7.0, 33.0 / 7.0), [[0.5, 1.0], [-1.0, 1.0 / 3.0]])],
    "examp3": [((3.2, -1.4), [[2.0, 1.0], [-1.0, -3.0]])],
    "examp4": [((0.7, 0.6), [[0.0, 1.0], [-1.0, 0.0]])],
    "examp5": [((0.0, 0.0), [[1.0, 0.0], [0.0, 1.0]]), ((-1.0, -1.0), [[-1.0, -2.0], [-2.0, -1.0]])],
}


def matches_example(problem, point, grad_tol, rounding=0.0):
    """Whether point lies within the distance a residual of grad_tol allows
    (||J^-1|| grad_tol, plus the printed rounding) of a stationary point."""
    for x_star, J in EXAMPLE_POINTS[problem]:
        sigma_min = float(np.linalg.svd(np.asarray(J), compute_uv=False)[-1])
        tol = 1.01 * grad_tol / sigma_min + rounding * np.sqrt(2) + 1e-12
        if np.linalg.norm(np.asarray(point, dtype=float) - np.asarray(x_star)) <= tol:
            return True
    return False


def check_report_json(text, problem):
    """`nepsolve solve` report of examp1 or facility2d."""
    data = json.loads(text)
    if data["status"] != "converged":
        return [f"{problem}: status {data['status']}"]
    grad_tol = data["config"]["grad_tol"]
    x1, x2 = data["final_x1"], data["final_x2"]
    if problem == "facility2d":
        res = facility_residual(np.asarray(x1), np.asarray(x2))
        if not _stationary_within(res, grad_tol):
            return [f"facility2d end point ({x1}, {x2}) has central-difference residual {res:.3e}"]
        return []
    if not matches_example(problem, x1 + x2, grad_tol):
        return [f"{problem} end point ({x1}, {x2}) is not the closed-form point"]
    return []


def check_table1(text, grad_tol):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    errors = []
    if len(rows) != 15:
        errors.append(f"table1.csv has {len(rows)} rows, expected 15")
    for row in rows:
        if row["status"] != "converged":
            continue
        try:
            point = [float(v) for v in row["point"].strip("()").split(",")]
        except ValueError:
            errors.append(f"{row['problem']}/{row['solver']} converged without a point: {row['point']}")
            continue
        if not float(row["grad_norm"]) <= grad_tol:
            errors.append(f"{row['problem']}/{row['solver']} converged with grad_norm {row['grad_norm']}")
        # the table prints the point with five decimals
        if not matches_example(row["problem"], point, grad_tol, rounding=5e-6):
            errors.append(f"{row['problem']}/{row['solver']} converged to {row['point']}, not a stationary point")
    return errors


def check_diagnose_json(text):
    data = json.loads(text)
    errors = []
    if data["status"] != "converged":
        errors.append(f"diagnose: status {data['status']}")
    if not data.get("lemma_report", {}).get("ok", False):
        errors.append("diagnose: lemma report is not OK")
    return errors
