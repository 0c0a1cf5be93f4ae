import random
from fractions import Fraction

import pytest

from repro.core.rl import (
    EligibilityTraces,
    EpsilonGreedy,
    MatrixQ,
    ModelBasedV,
    QuadraticApproxV,
    SarsaLambda,
    TransitionModel,
)
from repro.core.td_learner import ratio_states, step_actions

STATES = ratio_states(Fraction(1, 5))
ACTIONS = step_actions(Fraction(1, 5), max_step=2)


class TestEpsilonGreedy:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            EpsilonGreedy(rng, epsilon_max=0.1, epsilon_min=0.5)
        with pytest.raises(ValueError):
            EpsilonGreedy(rng, epsilon_decay=-1)

    def test_pure_exploit_picks_best(self):
        policy = EpsilonGreedy(random.Random(0), epsilon_max=0.0, epsilon_min=0.0)
        choice = policy.choose({"a": 1.0, "b": 5.0, "c": 3.0})
        assert choice == "b"
        assert policy.exploitations == 1

    def test_pure_explore_is_uniform_ish(self):
        policy = EpsilonGreedy(random.Random(1), epsilon_max=1.0, epsilon_min=1.0)
        picks = [policy.choose({"a": 100.0, "b": 0.0}) for _ in range(500)]
        assert 150 < picks.count("b") < 350

    def test_all_unknown_forces_random(self):
        policy = EpsilonGreedy(random.Random(2), epsilon_max=0.0, epsilon_min=0.0)
        picks = {policy.choose({"a": None, "b": None}) for _ in range(50)}
        assert picks == {"a", "b"}
        assert policy.exploitations == 0

    def test_unknown_ignored_when_known_exists(self):
        policy = EpsilonGreedy(random.Random(3), epsilon_max=0.0, epsilon_min=0.0)
        assert policy.choose({"a": None, "b": -5.0}) == "b"

    def test_decay_to_minimum(self):
        policy = EpsilonGreedy(random.Random(0), epsilon_max=0.5, epsilon_min=0.1, epsilon_decay=0.2)
        policy.step_decay()
        assert policy.epsilon == pytest.approx(0.3)
        policy.step_decay()
        policy.step_decay()
        assert policy.epsilon == 0.1

    def test_empty_actions_rejected(self):
        policy = EpsilonGreedy(random.Random(0))
        with pytest.raises(ValueError):
            policy.choose({})


class TestTraces:
    def test_replacing_resets_to_one(self):
        traces = EligibilityTraces("replacing")
        traces.visit("s", "a")
        traces.decay(0.5, 0.5)
        traces.visit("s", "a")
        assert traces.get("s", "a") == 1.0

    def test_replacing_clears_other_actions_of_state(self):
        traces = EligibilityTraces("replacing")
        traces.visit("s", "a")
        traces.visit("s", "b")
        assert traces.get("s", "a") == 0.0
        assert traces.get("s", "b") == 1.0

    def test_replacing_keeps_other_states(self):
        traces = EligibilityTraces("replacing")
        traces.visit("s1", "a")
        traces.visit("s2", "a")
        assert traces.get("s1", "a") == 1.0

    def test_accumulating_adds(self):
        traces = EligibilityTraces("accumulating")
        traces.visit("s", "a")
        traces.visit("s", "a")
        assert traces.get("s", "a") == 2.0

    def test_decay_scales_and_prunes(self):
        traces = EligibilityTraces("replacing")
        traces.visit("s", "a")
        traces.decay(0.5, 0.5)
        assert traces.get("s", "a") == 0.25
        for _ in range(20):
            traces.decay(0.5, 0.5)
        assert list(traces.items()) == []

    def test_zero_factor_clears(self):
        traces = EligibilityTraces("replacing")
        traces.visit("s", "a")
        traces.decay(0.0, 0.9)
        assert list(traces.items()) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EligibilityTraces("bogus")


class TestMatrixQ:
    def test_unknown_is_none(self):
        q = MatrixQ()
        assert q.value("s", "a") is None
        assert q.estimate("s", "a") == 0.0

    def test_adjust_accumulates(self):
        q = MatrixQ()
        q.adjust("s", "a", 1.5)
        q.adjust("s", "a", -0.5)
        assert q.value("s", "a") == 1.0
        assert len(q._q) == 1

    def test_entries_independent(self):
        q = MatrixQ()
        q.adjust("s", "a", 1.0)
        assert q.value("s", "b") is None


class TestTransitionModel:
    def test_interior_addition(self):
        model = TransitionModel(STATES)
        assert model.next_state(Fraction(0), Fraction(1, 5)) == Fraction(1, 5)

    def test_paper_clamp_formula(self):
        model = TransitionModel(STATES)
        # M(-1, -1/5) = -1 per the paper's example.
        assert model.next_state(Fraction(-1), Fraction(-1, 5)) == Fraction(-1)
        assert model.next_state(Fraction(1), Fraction(2, 5)) == Fraction(1)
        assert model.next_state(Fraction(4, 5), Fraction(2, 5)) == Fraction(1)

    def test_unknown_state_rejected(self):
        model = TransitionModel(STATES)
        with pytest.raises(ValueError):
            model.next_state(Fraction(1, 7), Fraction(1, 5))

    def test_off_grid_action_rejected(self):
        model = TransitionModel(STATES)
        with pytest.raises(ValueError):
            model.next_state(Fraction(0), Fraction(1, 7))


class TestModelBasedV:
    def test_value_shared_across_actions(self):
        model = TransitionModel(STATES)
        v = ModelBasedV(model)
        # Two different (s, a) pairs landing on the same s' share the entry.
        v.adjust(Fraction(0), Fraction(1, 5), 2.0)
        assert v.value(Fraction(2, 5), Fraction(-1, 5)) == 2.0
        assert v._v.get(Fraction(1, 5)) == 2.0
        assert len(v._v) == 1

    def test_unknown_state_none(self):
        v = ModelBasedV(TransitionModel(STATES))
        assert v.value(Fraction(0), Fraction(0)) is None


class TestQuadraticApproxV:
    def test_needs_two_points(self):
        v = QuadraticApproxV(TransitionModel(STATES))
        assert v.value(Fraction(0), Fraction(0)) is None
        v.adjust(Fraction(0), Fraction(0), 5.0)
        assert v.value(Fraction(0), Fraction(1, 5)) is None  # one point only

    def test_linear_extrapolation_with_two_points(self):
        v = QuadraticApproxV(TransitionModel(STATES))
        v.adjust(Fraction(0), Fraction(0), 0.0)  # V(0) = 0
        v.adjust(Fraction(0), Fraction(1, 5), 1.0)  # V(1/5) = 1
        # Line through (0,0), (0.2,1): V(0.4) ~ 2.
        approx = v.value(Fraction(1, 5), Fraction(1, 5))
        assert approx == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_fit_with_three_points(self):
        v = QuadraticApproxV(TransitionModel(STATES))
        # V(s) = 1 - s^2 sampled at -2/5, 0, 2/5.
        for s, val in ((Fraction(-2, 5), 1 - 0.16), (Fraction(0), 1.0), (Fraction(2, 5), 1 - 0.16)):
            v.adjust(s, Fraction(0), val)
        approx = v.value(Fraction(4, 5), Fraction(1, 5))  # V(1) ~ 0
        assert approx == pytest.approx(0.0, abs=1e-6)

    def test_learned_values_never_overridden(self):
        v = QuadraticApproxV(TransitionModel(STATES))
        v.adjust(Fraction(0), Fraction(0), 42.0)
        v.adjust(Fraction(0), Fraction(1, 5), -1.0)
        # V(0) is learned: must return the learned value, not a fit.
        assert v.value(Fraction(0), Fraction(0)) == 42.0


class ToyRatioEnvironment:
    """Reward peaks at signed ratio -1 — a TCP-favouring link with the
    paper's ~10x contrast (TCP ~100 MB/s vs UDT ~10 MB/s)."""

    def reward(self, state: Fraction) -> float:
        return 100.0 - 90.0 * float(state + 1) / 2.0


def run_learner(qfunc, episodes: int, seed: int = 1, eps=(0.5, 0.1, 0.01)):
    env = ToyRatioEnvironment()
    policy = EpsilonGreedy(random.Random(seed), *eps)
    model = TransitionModel(STATES)
    sarsa = SarsaLambda(ACTIONS, qfunc, policy, model.next_state, alpha=0.5, gamma=0.5, lam=0.85)
    state = sarsa.begin(Fraction(0))
    visited = [state]
    for _ in range(episodes):
        reward = env.reward(state)
        state = sarsa.step(reward, state)
        visited.append(state)
    return visited


class TestSarsaEndToEnd:
    def test_model_based_converges_to_best_state(self):
        model = TransitionModel(STATES)
        visited = run_learner(ModelBasedV(model), episodes=150, seed=1)
        tail = visited[-20:]
        assert sum(1 for s in tail if s <= Fraction(-3, 5)) >= 15

    def test_model_based_converges_for_most_seeds(self):
        converged = 0
        for seed in range(1, 7):
            visited = run_learner(ModelBasedV(TransitionModel(STATES)), episodes=150, seed=seed)
            tail = visited[-20:]
            if sum(1 for s in tail if s <= Fraction(-3, 5)) >= 15:
                converged += 1
        assert converged >= 4  # stochastic policy: most but not all runs converge

    def test_approx_converges_no_slower_than_matrix(self):
        def episodes_to_reach(qfunc, seed, target=Fraction(-4, 5), limit=200):
            visited = run_learner(qfunc, episodes=limit, seed=seed)
            for i, s in enumerate(visited):
                if s <= target:
                    return i
            return limit + 1

        approx_total = 0
        matrix_total = 0
        for seed in (5, 11, 13, 17):
            approx_total += episodes_to_reach(QuadraticApproxV(TransitionModel(STATES)), seed)
            matrix_total += episodes_to_reach(MatrixQ(), seed)
        assert approx_total < matrix_total

    def test_step_before_begin_rejected(self):
        model = TransitionModel(STATES)
        sarsa = SarsaLambda(ACTIONS, MatrixQ(), EpsilonGreedy(random.Random(0)), model.next_state)
        with pytest.raises(RuntimeError):
            sarsa.step(1.0, Fraction(0))

    def test_no_actions_rejected(self):
        model = TransitionModel(STATES)
        with pytest.raises(ValueError):
            SarsaLambda([], MatrixQ(), EpsilonGreedy(random.Random(0)), model.next_state)
