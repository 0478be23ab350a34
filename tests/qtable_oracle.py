"""A numpy Q-table: the executable oracle for ``repro.core.qtable.QTable``.

This is the dense-matrix implementation the shipping table replaced: a
``(state, mode)`` float64 value matrix and an int64 update-count matrix,
updated in place, with a ``numpy.argmax`` batch lookup and a
``numpy.asarray``-based :meth:`NumpyQTable.from_dict`.  It defines the
semantics the plain-list table must reproduce bit for bit — values,
serialisations, greedy choices, tie-break RNG draws, and the verdict and
message of every payload :meth:`NumpyQTable.from_dict` accepts or
rejects.  ``tests/test_core_differential.py`` runs both side by side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.state import NUM_STATES, CoherenceState
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode, mode_index
from repro.utils.rng import SeededRNG


class NumpyQTable:
    """Q-values for every (state, coherence mode) pair, in numpy matrices."""

    def __init__(self, num_states: int = NUM_STATES, initial_value: float = 0.0) -> None:
        if num_states <= 0:
            raise PolicyError("the Q-table needs at least one state")
        self.num_states = num_states
        self.num_actions = len(COHERENCE_MODES)
        self._values = np.full((num_states, self.num_actions), float(initial_value))
        self._updates = np.zeros((num_states, self.num_actions), dtype=np.int64)

    def _state_index(self, state: "CoherenceState | int") -> int:
        index = state.index if isinstance(state, CoherenceState) else int(state)
        if not 0 <= index < self.num_states:
            raise PolicyError(f"state index {index} out of range")
        return index

    def value(self, state: "CoherenceState | int", mode: CoherenceMode) -> float:
        return float(self._values[self._state_index(state), mode_index(mode)])

    def values_for(self, state: "CoherenceState | int") -> Dict[CoherenceMode, float]:
        row = self._values[self._state_index(state)]
        return {mode: float(row[mode_index(mode)]) for mode in COHERENCE_MODES}

    def update(
        self,
        state: "CoherenceState | int",
        mode: CoherenceMode,
        reward: float,
        alpha: float,
    ) -> float:
        if not 0.0 <= alpha <= 1.0:
            raise PolicyError(f"learning rate must be in [0, 1], got {alpha}")
        s = self._state_index(state)
        a = mode_index(mode)
        new_value = (1.0 - alpha) * self._values[s, a] + alpha * float(reward)
        self._values[s, a] = new_value
        self._updates[s, a] += 1
        return float(new_value)

    def update_batch(
        self,
        states: Sequence["CoherenceState | int"],
        modes: Sequence[CoherenceMode],
        rewards: Sequence[float],
        alphas: Sequence[float],
    ) -> None:
        if not len(states) == len(modes) == len(rewards) == len(alphas):
            raise PolicyError(
                "update_batch requires states, modes, rewards, and alphas "
                "of equal length"
            )
        for state, mode, reward, alpha in zip(states, modes, rewards, alphas):
            self.update(state, mode, reward, alpha)

    def best_mode(
        self,
        state: "CoherenceState | int",
        allowed: Optional[Sequence[CoherenceMode]] = None,
        rng: Optional[SeededRNG] = None,
    ) -> CoherenceMode:
        if allowed is not None and len(allowed) == 0:
            raise PolicyError("no coherence modes available to choose from")
        candidates: Sequence[CoherenceMode] = allowed if allowed else COHERENCE_MODES
        row = self._values[self._state_index(state)]
        values = [float(row[mode_index(mode)]) for mode in candidates]
        best_value = max(values)
        best_candidates = [
            mode for mode, value in zip(candidates, values) if value == best_value
        ]
        if rng is not None and len(best_candidates) > 1:
            return rng.choice(best_candidates)
        return best_candidates[0]

    def best_modes(self, states: Sequence["CoherenceState | int"]) -> List[CoherenceMode]:
        if not states:
            return []
        indices = [self._state_index(state) for state in states]
        winners = np.argmax(self._values[indices], axis=1)
        return [COHERENCE_MODES[int(winner)] for winner in winners]

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    def update_counts(self) -> np.ndarray:
        return self._updates.copy()

    def visited_states(self) -> List[int]:
        # any(), not a row sum: int64 sums of counts near 2**62 wrap to zero.
        return [int(index) for index in np.flatnonzero(self._updates.any(axis=1))]

    def coverage(self) -> float:
        return len(self.visited_states()) / self.num_states

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_states": self.num_states,
            "values": self._values.tolist(),
            "updates": self._updates.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "NumpyQTable":
        for key in ("num_states", "values", "updates"):
            if key not in payload:
                raise PolicyError(f"serialised Q-table is missing the {key!r} field")
        try:
            num_states = int(payload["num_states"])  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table num_states is invalid: {exc}") from exc
        table = cls(num_states=num_states)
        try:
            values = np.asarray(payload["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table values are not numeric: {exc}") from exc
        if values.shape != table._values.shape:
            raise PolicyError(
                f"serialised Q-table values have shape {values.shape}, "
                f"expected {table._values.shape}"
            )
        if not np.isfinite(values).all():
            raise PolicyError("serialised Q-table contains non-finite values")
        try:
            updates_raw = np.asarray(payload["updates"])
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table update counts are invalid: {exc}") from exc
        if updates_raw.shape != table._updates.shape:
            raise PolicyError(
                f"serialised Q-table update counts have shape {updates_raw.shape}, "
                f"expected {table._updates.shape}"
            )
        if not np.issubdtype(updates_raw.dtype, np.number):
            raise PolicyError("serialised Q-table update counts are not numeric")
        if not np.isfinite(np.asarray(updates_raw, dtype=float)).all():
            raise PolicyError("serialised Q-table update counts are non-finite")
        updates = np.asarray(updates_raw, dtype=np.int64)
        if (np.asarray(updates_raw, dtype=float) != updates).any():
            raise PolicyError("serialised Q-table update counts are not integers")
        if (updates < 0).any():
            raise PolicyError("serialised Q-table update counts are negative")
        table._values = values
        table._updates = updates
        return table

    def reset(self, initial_value: float = 0.0) -> None:
        self._values.fill(float(initial_value))
        self._updates.fill(0)
