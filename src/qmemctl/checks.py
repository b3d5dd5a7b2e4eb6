"""The pass/fail gates of a run, with every limit written once.

The pipeline's moments are trusted only through these checks: the
minimum-cost identity, and the Monte Carlo agreement of the terminal
deviation, the error covariance P, the zero cross-correlation E[x e'] and the
zero mean estimation error.  Each gate function returns the entries
{"passed", "value", "limit"} that summary.json writes under "checks"; the
CLI's exit status and the acceptance tests read the same entries.  A value
that is not finite never passes.
"""

from __future__ import annotations

import math

import numpy as np

# Default grid density (steps per unit of tau), at which the identity
# tolerance is pinned.
STEPS_PER_TIME_UNIT = 2000
# The identity residual is pure quadrature error, O(h^2), so the tolerance
# relaxes quadratically on grids coarser than the default.
COST_IDENTITY_RTOL = 1e-6
# z-score limit of every Monte Carlo statistic (delta, x e', e mean).
Z_LIMIT = 3.0
# Relative error of the sampled error covariance against P.
P_REL_LIMIT = 0.05
# Checkpoints of the Monte Carlo comparison; one may miss the x e' limit.
CHECKPOINTS = 10


def default_steps(tau: float) -> int:
    """Grid steps over a horizon `tau` at the default density (rounded up)."""
    return int(math.ceil(STEPS_PER_TIME_UNIT * tau))


def identity_limit(tau: float, steps: int) -> float:
    """The cost-identity tolerance for a `steps`-step grid over `tau`."""
    return COST_IDENTITY_RTOL * max(1.0, (default_steps(tau) / steps) ** 2)


def z_score(diff, se):
    """|diff| / se, elementwise, with one convention for degenerate input.

    A non-finite diff or se gives inf, as does se = 0 with diff != 0;
    diff = se = 0 gives 0.
    """
    diff = np.abs(np.asarray(diff, dtype=float))
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    finite = np.isfinite(diff) & np.isfinite(se)
    return np.where(finite & (se > 0), z, np.where(finite & (diff == 0), 0.0, np.inf))


def _entry(value, limit, passed) -> dict:
    return {"passed": bool(passed), "value": value, "limit": limit}


def cost_identity(phi_tau: float, identity: float, tau: float, steps: int) -> dict:
    """The gate on |Phi(tau) - identity| / (1 + |Phi(tau)|)."""
    residual = abs(phi_tau - identity) / (1.0 + abs(phi_tau))
    limit = identity_limit(tau, steps)
    return {"cost_identity": _entry(residual, limit, residual <= limit)}


def monte_carlo(moments, report, delta_ode: float) -> dict:
    """The five gates on an ensemble (SampleMoments) and its CrossMomentReport.

    `delta_ode` is the pipeline's terminal deviation Delta(tau); the
    ensemble's estimate of it must lie within Z_LIMIT standard errors.  The
    sampled cost, its standard error and the control energy must be finite;
    that gate's value names the statistics that are not.
    """
    delta_z = float(z_score(moments.deviation_mean - delta_ode, moments.deviation_se))
    not_finite = [name for name in ("cost_mean", "cost_se", "control_energy_mean")
                  if not math.isfinite(getattr(moments, name))]
    p_rel = report.max_P_rel_err
    mho_limit = len(report.rows) - 1
    return {
        "mc_delta_within_3se": _entry(delta_z, Z_LIMIT, delta_z <= Z_LIMIT),
        "mc_P_relative_error": _entry(p_rel, P_REL_LIMIT, p_rel <= P_REL_LIMIT),
        "mc_mho_checkpoints": _entry(report.mho_within_3se, mho_limit,
                                     report.mho_within_3se >= mho_limit),
        "mc_e_mean": _entry(report.e_mean_within_3se, True, report.e_mean_within_3se),
        "mc_cost_finite": _entry(not_finite, [], not not_finite),
    }


def failed(checks: dict) -> list[str]:
    """Names of the failed entries, sorted."""
    return sorted(name for name, chk in checks.items() if not chk["passed"])
