import numpy as np
import pytest

from oracles import local_cost

from dpopt.errors import DegenerateProblemError
from dpopt.objectives import (
    QuadraticEstimationProblem,
    adjacent_variant,
    optimal_solution,
    random_instance,
)


@pytest.fixture(scope="module")
def instance():
    return random_instance(seed=7, m=5, s=3, d=2)


def central_difference(f, theta, h=1e-6):
    d = theta.size
    grad = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad


class TestProblem:
    def test_shapes(self, instance):
        problem, theta_true = instance
        assert problem.m == 5
        assert problem.dim == 2
        assert problem.sensing.shape == (5, 3, 2)
        assert problem.observations.shape == (5, 3)
        assert theta_true.shape == (2,)

    def test_global_cost_is_agent_mean(self, instance):
        problem, _ = instance
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = rng.standard_normal(2)
            locals_ = [local_cost(problem, i, theta) for i in range(problem.m)]
            assert problem.global_cost(theta) == pytest.approx(np.mean(locals_))

    def test_gradient_matches_finite_difference(self, instance):
        problem, _ = instance
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = rng.standard_normal(2) * 3.0
            for agent in range(problem.m):
                analytic = problem.local_gradient(agent, theta)
                numeric = central_difference(
                    lambda t: local_cost(problem, agent, t), theta
                )
                assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_all_gradients_matches_per_agent(self, instance):
        problem, _ = instance
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((problem.m, problem.dim))
        stacked = problem.all_gradients(thetas)
        for agent in range(problem.m):
            assert np.allclose(
                stacked[agent], problem.local_gradient(agent, thetas[agent])
            )

    def test_affine_gradient_matches_all_gradients(self, instance):
        problem, _ = instance
        H, c = problem.affine_gradient()
        m, d = problem.m, problem.dim
        M, z = problem.sensing, problem.observations
        want_H = np.zeros((m * d, m * d))
        for i in range(m):
            want_H[i * d:(i + 1) * d, i * d:(i + 1) * d] = \
                2.0 * (M[i].T @ M[i] + problem.reg * np.eye(d))
        assert np.allclose(H, want_H, rtol=1e-14, atol=0)
        assert np.allclose(c, 2.0 * np.einsum("isd,is->id", M, z).ravel(),
                           rtol=1e-14, atol=0)
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-3, 4, size=(200, 1, 1))
        thetas = scales * rng.standard_normal((200, m, d))
        want = problem.all_gradients(thetas).reshape(200, m * d)
        got = thetas.reshape(200, m * d) @ H.T - c
        err = np.abs(got - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))

    def test_optimum_has_zero_mean_gradient(self, instance):
        problem, _ = instance
        theta_star, _ = optimal_solution(problem)
        mean_grad = problem.all_gradients(
            np.tile(theta_star, (problem.m, 1))
        ).mean(axis=0)
        assert np.linalg.norm(mean_grad) < 1e-9

    def test_optimum_is_a_minimum(self, instance):
        problem, _ = instance
        theta_star, f_star = optimal_solution(problem)
        assert problem.global_cost(theta_star) == pytest.approx(f_star)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert problem.global_cost(theta_star + 0.1 * rng.standard_normal(2)) > f_star

    def test_degenerate_problem_rejected(self):
        sensing = np.zeros((2, 1, 3))
        observations = np.zeros((2, 1))
        problem = QuadraticEstimationProblem(sensing, observations, reg=0.0)
        with pytest.raises(DegenerateProblemError):
            optimal_solution(problem)

    def test_noise_free_instance_recovers_truth(self):
        problem, theta_true = random_instance(seed=3, m=4, s=6, d=3,
                                              reg=0.0, noise_std=0.0)
        theta_star, value = optimal_solution(problem)
        assert np.allclose(theta_star, theta_true, atol=1e-8)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestAdjacentVariant:
    def test_matches_base_inside_ball(self, instance):
        problem, _ = instance
        variant = adjacent_variant(problem, agent=2, delta=0.5, eta=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = variant.center + 0.5 * rng.standard_normal(2) * 0.9 / np.sqrt(2)
            if np.linalg.norm(theta - variant.center) <= 0.5:
                assert np.allclose(variant.gradient_difference(theta), 0.0)

    def test_difference_magnitude_outside_ball(self, instance):
        problem, _ = instance
        delta, eta = 0.5, 2.0
        variant = adjacent_variant(problem, agent=1, delta=delta, eta=eta)
        rng = np.random.default_rng(6)
        for _ in range(20):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            r = delta + rng.uniform(0.1, 3.0)
            theta = variant.center + r * direction
            diff = variant.gradient_difference(theta)
            assert np.linalg.norm(diff) == pytest.approx(eta * (r - delta))
            # The pull points back toward the center.
            assert diff @ direction == pytest.approx(-eta * (r - delta))

    def test_local_gradient_subtracts_difference(self, instance):
        problem, _ = instance
        variant = adjacent_variant(problem, agent=0, delta=0.25, eta=1.5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.standard_normal(2) * 2.0
            expected = problem.local_gradient(0, theta) - variant.gradient_difference(theta)
            assert np.allclose(variant.local_gradient(0, theta), expected)
            # Unperturbed agents keep the base gradient.
            assert np.allclose(
                variant.local_gradient(1, theta), problem.local_gradient(1, theta)
            )

    def test_centered_at_optimum(self, instance):
        problem, _ = instance
        variant = adjacent_variant(problem, agent=0, delta=0.5, eta=1.0)
        theta_star, _ = optimal_solution(problem)
        assert np.allclose(variant.center, theta_star)
