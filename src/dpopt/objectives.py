"""Distributed quadratic estimation objectives.

Each agent i holds a sensing matrix M_i and observations z_i and
minimizes the regularized least-squares cost

    f_i(theta) = ||z_i - M_i theta||^2 + reg * ||theta||^2,

while the network objective is the average of the f_i.  The global
minimizer solves the stacked normal equations, which gives the solvers
an exact optimality-gap reference.

The adjacent_variant constructor builds the neighboring problem used in
sensitivity analysis: one agent's gradient field gets a radial
perturbation that vanishes inside a ball around the optimum, so both
problems share the minimizer while the perturbed agent's messages carry
distinguishable gradients away from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, RangeError


@dataclass(frozen=True)
class QuadraticEstimationProblem:
    """Per-agent regularized least-squares estimation data.

    sensing: array of shape (m, s, d), one s x d sensing matrix per agent.
    observations: array of shape (m, s).
    reg: Tikhonov coefficient, nonnegative.
    """

    sensing: np.ndarray
    observations: np.ndarray
    reg: float

    def __post_init__(self):
        if self.sensing.ndim != 3:
            raise ValueError("sensing must have shape (m, s, d)")
        if self.observations.shape != self.sensing.shape[:2]:
            raise ValueError("observations must have shape (m, s)")
        if self.reg < 0:
            raise ValueError("regularization must be nonnegative")

    @property
    def m(self) -> int:
        return self.sensing.shape[0]

    @property
    def dim(self) -> int:
        return self.sensing.shape[2]

    def global_cost(self, theta: np.ndarray):
        """Network cost at theta of shape (d,), as a float, or at every
        row of a (..., d) stack, as an array equal to the row-wise
        floats bit for bit."""
        theta = np.asarray(theta)
        fitted = (self.sensing @ theta[..., None, :, None])[..., 0]
        resid = self.observations - fitted
        sq_norm = (theta[..., None, :] @ theta[..., :, None])[..., 0, 0]
        total = np.sum(resid * resid, axis=(-2, -1)) \
            + self.m * self.reg * sq_norm
        if theta.ndim == 1:
            return float(total) / self.m
        return total / self.m

    def local_gradient(self, agent: int, theta: np.ndarray) -> np.ndarray:
        """Gradient of f_agent at theta of shape (d,), or at every row of
        a (..., d) stack, equal to the one-point gradients bit for bit:
        each point's products are (s, d) @ (d, 1) and (d, s) @ (s, 1)."""
        Mi = self.sensing[agent]
        resid = np.matmul(Mi, theta[..., None])
        resid -= self.observations[agent][:, None]
        return np.matmul(2.0 * Mi.T, resid)[..., 0] + 2.0 * self.reg * theta

    def all_gradients(self, thetas: np.ndarray) -> np.ndarray:
        """Gradient of f_i at thetas[..., i, :] for every agent.

        thetas has shape (m, d) or (R, m, d) for a batch of R runs; a
        batched call equals R single calls bit for bit.
        """
        fitted = np.einsum("isd,...id->...is", self.sensing, thetas)
        resid = fitted - self.observations
        grads = 2.0 * np.einsum("isd,...is->...id", self.sensing, resid)
        return grads + 2.0 * self.reg * thetas

    def affine_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, c) with all_gradients(x).ravel() = H @ x.ravel() - c up
        to rounding, for x of shape (m, d): every local cost is
        quadratic, so H = blockdiag(2 (M_i^T M_i + reg I)) of shape
        (m d, m d) and c = (2 M_i^T z_i)_i of shape (m d,); an entry of c
        past the float range is inf, and the runs diverge on it."""
        m, d = self.m, self.dim
        blocks = 2.0 * (np.einsum("isd,ise->ide", self.sensing, self.sensing)
                        + self.reg * np.eye(d))
        H = np.zeros((m, d, m, d))
        H[np.arange(m), :, np.arange(m), :] = blocks
        with np.errstate(over="ignore"):
            c = 2.0 * np.einsum("isd,is->id", self.sensing,
                                self.observations)
        return H.reshape(m * d, m * d), c.ravel()


def optimal_solution(problem: QuadraticEstimationProblem):
    """Global minimizer and optimal value via the normal equations.

    Raises DegenerateProblemError when the stacked system is singular
    or so ill conditioned that the solution fails the gradient residual
    check.
    """
    M = problem.sensing
    gram = np.einsum("isd,ise->de", M, M)
    lhs = gram + problem.m * problem.reg * np.eye(problem.dim)
    rhs = np.einsum("isd,is->d", M, problem.observations)
    try:
        np.linalg.cholesky(lhs)
        theta_star = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateProblemError(
            "normal equations are singular; add regularization or data"
        ) from exc
    grads = problem.all_gradients(np.tile(theta_star, (problem.m, 1)))
    residual = float(np.linalg.norm(grads.mean(axis=0)))
    if residual > 1e-10:
        raise DegenerateProblemError(
            f"normal equations too ill conditioned (residual {residual:.3e})"
        )
    return theta_star, problem.global_cost(theta_star)


def random_instance(
    seed: int,
    m: int = 5,
    s: int = 3,
    d: int = 2,
    reg: float = 0.01,
    noise_std: float = 1.0,
):
    """Random estimation instance with a known ground-truth parameter.

    Returns (problem, theta_true).  Sensing matrices and theta_true are
    standard normal; observations are M_i theta_true plus Gaussian
    observation noise with the given standard deviation.
    """
    if m < 1 or s < 1 or d < 1:
        raise RangeError("m, s and d must be positive")
    rng = np.random.default_rng(seed)
    theta_true = rng.standard_normal(d)
    sensing = rng.standard_normal((m, s, d))
    observations = sensing @ theta_true
    if noise_std > 0:
        observations = observations + noise_std * rng.standard_normal((m, s))
    problem = QuadraticEstimationProblem(
        sensing=sensing, observations=observations, reg=reg
    )
    return problem, theta_true


@dataclass(frozen=True)
class AdjacentVariant:
    """An adjacent copy of a problem differing only in one agent's data.

    The perturbed agent's gradient field gains a radial push of slope
    eta that switches on outside the ball of radius delta around the
    unperturbed optimum, so the two gradient fields agree exactly near
    the solution and the perturbation magnitude is controlled:

        ||g_diff(theta)||_2 = eta * max(0, ||theta - theta*|| - delta).
    """

    base: QuadraticEstimationProblem
    agent: int
    delta: float
    eta: float
    center: np.ndarray

    def _pull(self, theta: np.ndarray) -> np.ndarray | None:
        """gradient_difference(theta), None inside the ball, where the
        adjacent gradient then subtracts no array of zeros."""
        offset = theta - self.center
        # np.linalg.norm of a 1-D array is sqrt(x.dot(x)).
        radius = math.sqrt(offset.dot(offset))
        ramp = max(0.0, radius - self.delta)
        if ramp == 0.0 or radius == 0.0:
            return None
        return -self.eta * ramp * offset / radius

    def gradient_difference(self, theta: np.ndarray) -> np.ndarray:
        """g_i(theta) - g'_i(theta) for the perturbed agent, at theta of
        shape (d,); zeros inside the ball."""
        pull = self._pull(theta)
        return np.zeros(np.shape(theta)) if pull is None else pull

    def local_gradient(self, agent: int, theta: np.ndarray) -> np.ndarray:
        """Gradient of the adjacent f_agent at theta of shape (d,)."""
        g = self.base.local_gradient(agent, theta)
        pull = self._pull(theta) if agent == self.agent else None
        if pull is not None:
            g -= pull
        return g


def adjacent_variant(
    problem: QuadraticEstimationProblem,
    agent: int,
    delta: float,
    eta: float,
) -> AdjacentVariant:
    """Build the adjacent problem for sensitivity experiments."""
    if not 0 <= agent < problem.m:
        raise RangeError(f"agent {agent} out of range for m={problem.m}")
    if delta <= 0 or eta <= 0:
        raise RangeError("delta and eta must be positive")
    theta_star, _ = optimal_solution(problem)
    return AdjacentVariant(
        base=problem, agent=agent, delta=delta, eta=eta, center=theta_star
    )
