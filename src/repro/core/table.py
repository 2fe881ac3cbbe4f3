"""The lookup table ``R(w, c)`` and its Q-learning update.

The table estimates the total discounted reward of choosing configuration
``c`` in load bucket ``w`` (Section 3.1).  The paper implements it as a
Python dictionary for O(1) access (Section 3.7).  Both axes are small and
known before the run starts -- the bucketizer fixes the number of load
buckets and the platform fixes the configuration space -- so here the
table is dense: one row of ``n_actions`` values per state, plus a row of
visit counts.  Every lookup is still O(1), and the dictionary's
semantics carry over exactly:

* a never-updated entry reads as 0, like a missing key (Algorithm 2,
  line 4), and "visited" means "updated at least once";
* ``max_d R(w, d)`` is the row maximum, and ``argmax`` keeps the first
  maximum in the caller's ``tie_break`` order, as a strict ``>`` scan
  over the dictionary's entries would.

The update rule is Algorithm 1's line 16:

    R(w_n, c_n) += alpha * (lambda_n + gamma * max_d R(w_n+1, d) - R(w_n, c_n))

with learning rate ``alpha = 0.6`` and discount ``gamma = 0.9``
(Section 3.4, empirically determined).
"""

from __future__ import annotations

from typing import Iterable

#: Discount factor gamma (Section 3.4).
DEFAULT_GAMMA = 0.9

#: Learning rate alpha (Section 3.4).
DEFAULT_ALPHA = 0.6


class LookupTable:
    """``R(w, c)`` over (load bucket, configuration index).

    ``n_states`` is the number of load buckets (states run from 0 to
    ``n_states - 1``) and ``n_actions`` the size of the configuration
    space; action indices are the caller's concern (Hipster uses the
    index into its enumerated configuration tuple).  Indices outside
    either range raise :class:`ValueError`.
    """

    def __init__(
        self,
        n_actions: int,
        n_states: int,
        alpha: float = DEFAULT_ALPHA,
        gamma: float = DEFAULT_GAMMA,
        alpha_schedule: str = "fixed",
        alpha_min: float = 0.10,
    ) -> None:
        if n_actions <= 0:
            raise ValueError("n_actions must be positive")
        if n_states <= 0:
            raise ValueError("n_states must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be within (0, 1]")
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must be within [0, 1)")
        if alpha_schedule not in ("fixed", "decay"):
            raise ValueError("alpha_schedule must be 'fixed' or 'decay'")
        if not 0.0 < alpha_min <= 1.0:
            raise ValueError("alpha_min must be within (0, 1]")
        self.n_actions = n_actions
        self.n_states = n_states
        self.alpha = alpha
        self.gamma = gamma
        self.alpha_schedule = alpha_schedule
        self.alpha_min = alpha_min
        self._values = [[0.0] * n_actions for _ in range(n_states)]
        self._visits = [[0] * n_actions for _ in range(n_states)]
        #: Per state, how many actions have been updated at least once.
        self._visited_actions = [0] * n_states

    def value(self, state: int, action: int) -> float:
        """``R(w, c)``; unvisited entries are 0 (Algorithm 2, line 4)."""
        self._check(state, action)
        return self._values[state][action]

    def visited(self, state: int, action: int) -> bool:
        """Whether the entry has ever been updated."""
        self._check(state, action)
        return self._visits[state][action] > 0

    def state_visited(self, state: int) -> bool:
        """Whether any action has been tried in this state."""
        self._check_state(state)
        return self._visited_actions[state] > 0

    def best_action(
        self, state: int, *, tie_break: Iterable[int] | None = None
    ) -> tuple[int, float]:
        """``argmax_c R(w, c)`` with its value (Algorithm 2, line 7).

        Unvisited entries count as 0, exactly as in the paper.  Ties are
        broken by ``tie_break`` order (e.g. the heuristic ladder, so equal
        scores prefer lower-power configurations) or by index: the first
        maximum in that order wins.
        """
        self._check_state(state)
        order = range(self.n_actions) if tie_break is None else tuple(tie_break)
        if not order:
            raise ValueError("tie_break must name at least one action")
        if min(order) < 0 or max(order) >= self.n_actions:
            raise ValueError(f"action must be within [0, {self.n_actions})")
        row = self._values[state]
        values = [row[action] for action in order]
        best = max(values)
        return order[values.index(best)], best

    def max_value(self, state: int) -> float:
        """``max_d R(w, d)`` -- the bootstrap term of the update."""
        self._check_state(state)
        return max(self._values[state])

    def update(
        self, state: int, action: int, reward: float, next_state: int
    ) -> float:
        """Apply Algorithm 1's line 16; returns the new ``R(w, c)``."""
        self._check(state, action)
        self._check_state(next_state)
        row = self._values[state]
        old = row[action]
        alpha = self._effective_alpha(state, action)
        new = old + alpha * (reward + self.gamma * max(self._values[next_state]) - old)
        row[action] = new
        visits = self._visits[state]
        if visits[action] == 0:
            self._visited_actions[state] += 1
        visits[action] += 1
        return new

    def _effective_alpha(self, state: int, action: int) -> float:
        """Learning rate for the next update of an entry.

        ``fixed`` is the paper's constant alpha.  ``decay`` uses the
        stochastic-approximation schedule ``1 / (n + 1) ** 0.6`` floored
        at ``alpha_min``: the first visit of an entry jumps directly to
        its bootstrap target (eliminating stale values from earlier in
        the run, when the value scale was still growing), and subsequent
        visits average measurement noise away while the floor preserves
        adaptivity to drift.
        """
        if self.alpha_schedule == "fixed":
            return self.alpha
        n = self._visits[state][action]
        return max(self.alpha_min, 1.0 / (n + 1) ** 0.6)

    def visit_count(self, state: int, action: int) -> int:
        """How many times the entry has been updated."""
        self._check(state, action)
        return self._visits[state][action]

    def __len__(self) -> int:
        return sum(self._visited_actions)

    def snapshot(self) -> dict[tuple[int, int], float]:
        """A copy of the populated entries (for inspection/tests)."""
        return {
            (state, action): self._values[state][action]
            for state, visits in enumerate(self._visits)
            for action, count in enumerate(visits)
            if count
        }

    def _check_state(self, state: int) -> None:
        if state < 0:
            raise ValueError("state must be non-negative")
        if state >= self.n_states:
            raise ValueError(f"state must be below n_states={self.n_states}")

    def _check(self, state: int, action: int) -> None:
        self._check_state(state)
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action must be within [0, {self.n_actions})")
