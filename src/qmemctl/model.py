"""Scenario validation and derivation of structure and dynamics matrices.

A memory cell with ``n`` conjugate position/momentum variables coupled to
``m`` external field channels is described by an energy matrix R, a
plant-field coupling M, a plant-actuator coupling N, a static measurement
matrix D acting on the output field, and a selector F of the variables to
be preserved.  Everything the moment-level pipeline needs is derived here:

    Theta = (1/2) I_{n/2} kron [[0,1],[-1,0]]     commutation structure
    J     = I_{m/2} kron [[0,1],[-1,0]]           field Ito structure (imag part)
    A = 2 Theta (R + M' J M),  B = 2 Theta M',  E = 2 Theta N'
    C = 2 D J M,  G = D D'
    Sigma = F' F,  Lambda = [[1,-1],[-1,1]] kron Sigma

together with the augmented matrices sA, sB, sC, sE obtained by freezing a
copy of the initial variables on top of the live ones.  The parameterization
forces the physical-realizability identity A Theta + Theta A' + B J B' = 0,
which is exposed as a residual for self-testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidScenarioError

# Tolerances for validation checks (all relative, see ValidationReport).
SYMMETRY_RTOL = 1e-10
RANK_RTOL = 1e-10
COMMUTATION_RTOL = 1e-10


@dataclass(frozen=True)
class ScenarioSpec:
    """User-supplied physical parameters of a control scenario.

    Dimensions: n plant variables (even), m field channels (even),
    d actuator channels (may be 0), r observation channels (r <= m/2),
    s variables of interest (rank of F).  Matrices are dense float64.
    """

    n: int
    m: int
    d: int
    r: int
    s: int
    R: np.ndarray
    M: np.ndarray
    N: np.ndarray
    D: np.ndarray
    F: np.ndarray
    Pi: np.ndarray
    mean0: np.ndarray
    cov0: np.ndarray
    tau: float
    steps: int

    def __post_init__(self):
        for name in ("R", "M", "N", "D", "F", "Pi", "cov0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "mean0", np.asarray(self.mean0, dtype=float).reshape(-1))


@dataclass(frozen=True)
class SystemMatrices:
    """Structure, dynamics and augmented matrices derived from a scenario."""

    n: int
    m: int
    d: int
    r: int
    s: int
    Theta: np.ndarray
    J: np.ndarray
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    D: np.ndarray
    G: np.ndarray
    Sigma: np.ndarray
    Lambda: np.ndarray
    sA: np.ndarray
    sB: np.ndarray
    sC: np.ndarray
    sE: np.ndarray


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str
    residual: float = float("nan")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_spec; empty violation list means a valid scenario."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"- {v.invariant}: {v.detail}" for v in self.violations)


def build_structure_matrices(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (Theta, J), the plant and field commutation-structure matrices.

    Theta is n x n antisymmetric with +-1/2 entries, J is m x m antisymmetric
    with +-1 entries; both are block diagonal in 2 x 2 blocks pairing each
    position with its conjugate momentum.
    """
    for label, dim in (("n", n), ("m", m)):
        if dim <= 0 or dim % 2 != 0:
            raise DimensionError(f"{label} must be a positive even integer, got {dim}")
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    theta = 0.5 * np.kron(np.eye(n // 2), j2)
    j = np.kron(np.eye(m // 2), j2)
    return theta, j


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def validate_spec(spec: ScenarioSpec) -> ValidationReport:
    """Check every structural invariant of a scenario and report violations.

    Never raises; each problem becomes a report entry with the offending
    quantity and the measured residual.  Checks that depend on a matrix with
    a wrong shape or a non-finite entry are skipped for that matrix.
    """
    bad: list[Violation] = []

    def flag(invariant, detail, residual=float("nan")):
        bad.append(Violation(invariant, detail, float(residual)))

    n, m, d, r, s = spec.n, spec.m, spec.d, spec.r, spec.s
    if n <= 0 or n % 2 != 0:
        flag("n even positive", f"n = {n}")
    if m <= 0 or m % 2 != 0:
        flag("m even positive", f"m = {m}")
    if d < 0:
        flag("d nonnegative", f"d = {d}")
    if not (1 <= r <= m // 2):
        flag("1 <= r <= m/2", f"r = {r}, m = {m}")
    if not (1 <= s <= n):
        flag("1 <= s <= n", f"s = {s}, n = {n}")
    if not np.isfinite(spec.tau):
        flag("tau finite", f"tau = {spec.tau}")
    elif not spec.tau > 0:
        flag("tau positive", f"tau = {spec.tau}")
    if spec.steps < 1:
        flag("steps >= 1", f"steps = {spec.steps}")

    shapes = {
        "R": (n, n),
        "M": (m, n),
        "N": (d, n),
        "D": (r, m),
        "F": (s, n),
        "Pi": (d, d),
        "cov0": (n, n),
        "mean0": (n,),
    }
    # usable: the field has its shape and finite entries, so the checks
    # below that read it can run.
    usable = {}
    for name, shape in shapes.items():
        value = getattr(spec, name)
        usable[name] = value.shape == shape
        if not usable[name]:
            flag(f"{name} shape", f"expected {shape}, got {value.shape}")
        non_finite = int(np.count_nonzero(~np.isfinite(value)))
        if non_finite:
            usable[name] = False
            flag(f"{name} finite", f"{non_finite} non-finite entries")

    if usable["R"]:
        res = _maxabs(spec.R - spec.R.T)
        if res > SYMMETRY_RTOL * max(1.0, _maxabs(spec.R)):
            flag("R symmetric", f"max |R - R'| = {res:.3e}", res)
    if usable["Pi"] and d > 0:
        res = _maxabs(spec.Pi - spec.Pi.T)
        if res > SYMMETRY_RTOL * max(1.0, _maxabs(spec.Pi)):
            flag("Pi symmetric", f"max |Pi - Pi'| = {res:.3e}", res)
        else:
            eigs = np.linalg.eigvalsh(0.5 * (spec.Pi + spec.Pi.T))
            if eigs[0] <= RANK_RTOL * max(eigs[-1], 0.0):
                flag("Pi not positive-definite", f"min eigenvalue = {eigs[0]:.3e}", eigs[0])
    if usable["cov0"]:
        res = _maxabs(spec.cov0 - spec.cov0.T)
        if res > SYMMETRY_RTOL * max(1.0, _maxabs(spec.cov0)):
            flag("cov0 symmetric", f"max |cov0 - cov0'| = {res:.3e}", res)
        else:
            eigs = np.linalg.eigvalsh(0.5 * (spec.cov0 + spec.cov0.T))
            if eigs.size and eigs[0] < -SYMMETRY_RTOL * max(1.0, eigs[-1]):
                flag("cov0 not positive-semidefinite", f"min eigenvalue = {eigs[0]:.3e}", eigs[0])

    for name, rank in (("D", r), ("F", s)):
        if usable[name]:
            sv = np.linalg.svd(getattr(spec, name), compute_uv=False)
            if sv.size == 0 or sv[min(rank, sv.size) - 1] <= RANK_RTOL * sv[0]:
                flag(f"{name} full row rank", f"singular values {sv}", sv[-1] if sv.size else 0.0)

    if usable["D"] and m > 0 and m % 2 == 0:
        _, j = build_structure_matrices(2, m)
        djd = spec.D @ j @ spec.D.T
        scale = float(np.linalg.norm(spec.D, 2)) ** 2 * float(np.linalg.norm(j, 2))
        res = _maxabs(djd)
        if res > COMMUTATION_RTOL * max(1.0, scale):
            flag("DJD' != 0", f"max |D J D'| = {res:.3e}", res)

    return ValidationReport(tuple(bad))


def derive_system_matrices(spec: ScenarioSpec) -> SystemMatrices:
    """Derive all structure, dynamics, observation and augmented matrices.

    Raises InvalidScenarioError when validate_spec reports violations.
    Deterministic: identical scenarios produce bit-identical matrices.
    """
    report = validate_spec(spec)
    if not report.ok:
        raise InvalidScenarioError(report)

    n, m = spec.n, spec.m
    theta, j = build_structure_matrices(n, m)
    a = 2.0 * theta @ (spec.R + spec.M.T @ j @ spec.M)
    b = 2.0 * theta @ spec.M.T
    e = 2.0 * theta @ spec.N.T
    c = 2.0 * spec.D @ j @ spec.M
    g = spec.D @ spec.D.T
    sigma = spec.F.T @ spec.F
    lam = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), sigma)

    z_nn = np.zeros((n, n))
    sa = np.block([[z_nn, z_nn], [z_nn, a]])
    sb = np.vstack([np.zeros((n, m)), b])
    sc = np.hstack([np.zeros((spec.r, n)), c])
    se = np.vstack([np.zeros((n, spec.d)), e])

    return SystemMatrices(
        n=n, m=m, d=spec.d, r=spec.r, s=spec.s,
        Theta=theta, J=j, A=a, B=b, E=e, C=c, D=spec.D.copy(), G=g,
        Sigma=sigma, Lambda=lam, sA=sa, sB=sb, sC=sc, sE=se,
    )


def physical_realizability_residual(sys: SystemMatrices) -> np.ndarray:
    """Return A Theta + Theta A' + B J B'; zero (to round-off) for any valid system."""
    return sys.A @ sys.Theta + sys.Theta @ sys.A.T + sys.B @ sys.J @ sys.B.T
