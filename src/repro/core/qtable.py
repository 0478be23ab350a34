"""Tabular Q-value storage.

The Q-table has one row per discretised state (243) and one column per
action (the four coherence modes), i.e. 972 entries as in the paper.  The
update rule is the one the paper gives::

    Q(s, a) <- (1 - alpha) * Q(s, a) + alpha * R(s, a)

(there is no next-state bootstrap term: each invocation is an independent
decision whose reward arrives before the next decision for that
accelerator, so the problem is treated as a contextual bandit).

The table is stored as plain-float value rows and plain-int update-count
rows, one per state, in canonical mode order.  At this size list indexing
and float arithmetic beat numpy scalar access, and a first-maximum scan
over the rows beats a numpy argmax up to a few dozen states per batch
(most decision requests carry one), so the simulator, the sweep workers
and the policy server never import numpy for it.  Only :attr:`QTable.values` and :meth:`QTable.update_counts`
return numpy arrays, importing numpy on first use.  A numpy
implementation of the same table lives in ``tests/qtable_oracle.py`` as an
executable oracle; ``tests/test_core_differential.py`` holds this one to
bit-identical values, serialisations, tie-break RNG draws, and
:meth:`QTable.from_dict` verdicts against it.

Batched operations (:meth:`QTable.update_batch`,
:meth:`QTable.best_modes`) apply updates **in arrival order** with the
exact scalar recurrence above.  Folding a batch into a closed-form
cumulative product would change the floating-point rounding (summation
order changes results), so the batched path deliberately replays the
sequential recurrence; ``tests/test_qlearning.py`` pins the digest of a
seeded 1k-step episode to keep it that way.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.state import NUM_STATES, CoherenceState
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode, mode_index
from repro.utils.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: The dimension limit of numpy's nested-sequence discovery (numpy >= 2).
_MAX_DIMS = 64

#: The range of a 64-bit signed and unsigned update count.
_INT64 = (-(2**63), 2**63)
_UINT64_END = 2**64


def _check_num_states(num_states: int) -> None:
    if num_states <= 0:
        raise PolicyError("the Q-table needs at least one state")


class QTable:
    """Q-values for every (state, coherence mode) pair."""

    def __init__(self, num_states: int = NUM_STATES, initial_value: float = 0.0) -> None:
        _check_num_states(num_states)
        self.num_states = num_states
        self.num_actions = len(COHERENCE_MODES)
        self.reset(initial_value)

    # ------------------------------------------------------------------
    def _state_index(self, state: "CoherenceState | int") -> int:
        index = state.index if isinstance(state, CoherenceState) else int(state)
        if not 0 <= index < self.num_states:
            raise PolicyError(f"state index {index} out of range")
        return index

    def value(self, state: "CoherenceState | int", mode: CoherenceMode) -> float:
        """Q-value of taking ``mode`` from ``state``."""
        return self._rows[self._state_index(state)][mode_index(mode)]

    def values_for(self, state: "CoherenceState | int") -> Dict[CoherenceMode, float]:
        """All four Q-values of ``state``."""
        row = self._rows[self._state_index(state)]
        return {mode: row[mode_index(mode)] for mode in COHERENCE_MODES}

    def update(
        self,
        state: "CoherenceState | int",
        mode: CoherenceMode,
        reward: float,
        alpha: float,
    ) -> float:
        """Apply the paper's exponential-averaging update; return the new value."""
        if not 0.0 <= alpha <= 1.0:
            raise PolicyError(f"learning rate must be in [0, 1], got {alpha}")
        s = self._state_index(state)
        a = mode_index(mode)
        row = self._rows[s]
        new_value = (1.0 - alpha) * row[a] + alpha * float(reward)
        row[a] = new_value
        self._count_rows[s][a] += 1
        return new_value

    def update_batch(
        self,
        states: Sequence["CoherenceState | int"],
        modes: Sequence[CoherenceMode],
        rewards: Sequence[float],
        alphas: Sequence[float],
    ) -> None:
        """Apply a batch of TD updates **in arrival order**.

        All four sequences must have equal length; element ``i`` is one
        ``update(states[i], modes[i], rewards[i], alphas[i])``.  The batch
        is replayed with the exact scalar recurrence of :meth:`update` —
        never folded into a reordered summation, which would change the
        floating-point results — so a batched training loop is
        bit-identical to the per-step one.  Every state and learning rate
        is validated before the first update, so a rejected batch leaves
        the table untouched.
        """
        if not len(states) == len(modes) == len(rewards) == len(alphas):
            raise PolicyError(
                "update_batch requires states, modes, rewards, and alphas "
                "of equal length"
            )
        pairs = []
        for state, mode, alpha in zip(states, modes, alphas):
            if not 0.0 <= alpha <= 1.0:
                raise PolicyError(f"learning rate must be in [0, 1], got {alpha}")
            pairs.append((self._state_index(state), mode_index(mode)))
        rows = self._rows
        count_rows = self._count_rows
        for (s, a), reward, alpha in zip(pairs, rewards, alphas):
            row = rows[s]
            row[a] = (1.0 - alpha) * row[a] + alpha * float(reward)
            count_rows[s][a] += 1

    def best_mode(
        self,
        state: "CoherenceState | int",
        allowed: Optional[Sequence[CoherenceMode]] = None,
        rng: Optional["SeededRNG"] = None,
    ) -> CoherenceMode:
        """Mode with the highest Q-value in ``state`` (restricted to ``allowed``).

        Ties — in particular the all-zero rows of states that have never
        been visited — are broken uniformly at random when an ``rng`` is
        provided, so the untrained table does not systematically favour the
        first action of the canonical ordering.
        """
        if allowed is not None and len(allowed) == 0:
            raise PolicyError("no coherence modes available to choose from")
        candidates: Sequence[CoherenceMode] = allowed if allowed else COHERENCE_MODES
        row = self._rows[self._state_index(state)]
        if candidates is COHERENCE_MODES:
            # Rows are stored in canonical mode order, so the unrestricted
            # case needs no per-candidate index lookups.
            values: Sequence[float] = row
        else:
            values = [row[mode_index(mode)] for mode in candidates]
        best_value = max(values)
        # Exact equality only: an absolute threshold is scale-dependent —
        # it merges genuinely distinct values once they sit below it, and
        # `best - 1e-12` rounds back to `best` once Q-values grow large —
        # and every value admitted here consumes a tie-break RNG draw,
        # which must not depend on the magnitude the table has reached.
        best_candidates = [
            mode for mode, value in zip(candidates, values) if value == best_value
        ]
        if rng is not None and len(best_candidates) > 1:
            return rng.choice(best_candidates)
        return best_candidates[0]

    def best_modes(self, states: Sequence["CoherenceState | int"]) -> List[CoherenceMode]:
        """Greedy mode for each of ``states`` (deterministic, no tie RNG).

        The batch counterpart of ``best_mode(state, rng=None)``: ties
        resolve to the first mode of the canonical ordering.  ``max``
        returns the first maximal value and ``list.index`` its first
        position, so the scan picks the first maximal mode, as the scalar
        tie rule does (comparisons are exact float equality on both paths).
        """
        rows = self._rows
        winners = []
        for state in states:
            row = rows[self._state_index(state)]
            winners.append(COHERENCE_MODES[row.index(max(row))])
        return winners

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def values(self) -> "np.ndarray":
        """A copy of the full Q-value matrix, as a numpy array."""
        import numpy as np

        return np.array(self._rows, dtype=float)

    def update_counts(self) -> "np.ndarray":
        """Number of updates applied to every entry, as a numpy array."""
        import numpy as np

        return np.array(self._count_rows, dtype=np.int64)

    def visited_states(self) -> List[int]:
        """Indices of states that have received at least one update."""
        return [index for index, counts in enumerate(self._count_rows) if any(counts)]

    def coverage(self) -> float:
        """Fraction of states visited at least once."""
        return len(self.visited_states()) / self.num_states

    def to_dict(self) -> Dict[str, object]:
        """Serialise the table (e.g. to persist a trained model)."""
        return {
            "num_states": self.num_states,
            "values": [list(row) for row in self._rows],
            "updates": [list(row) for row in self._count_rows],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QTable":
        """Restore a table serialised with :meth:`to_dict`.

        Both matrices are validated — shape, element type, and value
        domain — so a corrupt or hand-edited payload fails loudly here
        instead of corrupting :meth:`visited_states`/:meth:`coverage` or
        blowing up deep inside a simulation:

        * ``values`` must be a ``(num_states, num_actions)`` matrix of
          finite numbers (NaN/inf Q-values would poison every later
          comparison in :meth:`best_mode`);
        * ``updates`` must be a same-shaped matrix of non-negative
          integers (update *counts*; a float or negative payload is
          corrupt, not coercible).

        The checks, their order, and their messages follow
        ``numpy.asarray``, so a JSON-decoded payload gets the verdict the
        numpy oracle in ``tests/qtable_oracle.py`` gives it: shapes and ragged
        nesting are reported as numpy discovers them, values convert like
        ``float`` (``None`` reads as NaN), and the counts' element types
        promote like numpy's ``int64``/``uint64``/``float64``, so
        booleans alone, strings, and integers outside 64 bits are not
        numeric.
        """
        for key in ("num_states", "values", "updates"):
            if key not in payload:
                raise PolicyError(f"serialised Q-table is missing the {key!r} field")
        try:
            num_states = int(payload["num_states"])  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table num_states is invalid: {exc}") from exc
        _check_num_states(num_states)
        shape = (num_states, len(COHERENCE_MODES))
        values = _validated_values(payload["values"], shape)
        counts = _validated_counts(payload["updates"], shape)
        table = cls(num_states=num_states)
        width = shape[1]
        table._rows = [values[i : i + width] for i in range(0, len(values), width)]
        table._count_rows = [counts[i : i + width] for i in range(0, len(counts), width)]
        return table

    def reset(self, initial_value: float = 0.0) -> None:
        """Reset all entries (the paper initialises the table to zero)."""
        value = float(initial_value)
        self._rows: List[List[float]] = [
            [value] * self.num_actions for _ in range(self.num_states)
        ]
        self._count_rows: List[List[int]] = [
            [0] * self.num_actions for _ in range(self.num_states)
        ]


# ----------------------------------------------------------------------
# Payload validation
# ----------------------------------------------------------------------

def _nested_shape(obj: object) -> Tuple[int, ...]:
    """The shape ``numpy.asarray`` gives a nested-list payload.

    A port of numpy's depth-first shape discovery, in which lists and
    tuples are sequences and everything else a scalar; a ragged payload
    raises numpy's ``ValueError`` with numpy's message.
    """
    shape: List[int] = []
    max_dims = _MAX_DIMS
    reached = False  # a scalar or an empty sequence has fixed the depth
    ragged = False

    def walk(item: object, depth: int) -> None:
        nonlocal max_dims, reached, ragged
        is_sequence = isinstance(item, (list, tuple))
        if depth == max_dims or not is_sequence:
            if depth != max_dims:
                max_dims = depth
                ragged = ragged or reached
            reached = True
            ragged = ragged or is_sequence
            return
        size = len(item)  # type: ignore[arg-type]
        if not reached:
            shape.append(size)
        elif size != shape[depth]:
            ragged = True
            max_dims = depth
            return
        if size == 0:
            reached = True
            return
        for child in item:  # type: ignore[union-attr]
            walk(child, depth + 1)

    walk(obj, 0)
    if ragged:
        if max_dims == _MAX_DIMS:
            raise ValueError(
                "setting an array element with a sequence. The requested array "
                f"would exceed the maximum number of dimension of {_MAX_DIMS}."
            )
        raise ValueError(
            "setting an array element with a sequence. The requested array has "
            f"an inhomogeneous shape after {max_dims} dimensions. The detected "
            f"shape was {tuple(shape[:max_dims])} + inhomogeneous part."
        )
    return tuple(shape)


def _leaves(obj: object) -> Iterator[object]:
    """The scalars of a nested-list payload, in row-major order."""
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _validated_values(raw: object, shape: Tuple[int, int]) -> List[float]:
    """The Q-values of a payload, flattened row-major, or a ``PolicyError``."""
    try:
        found = _nested_shape(raw)
        values = [math.nan if leaf is None else float(leaf) for leaf in _leaves(raw)]  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise PolicyError(f"serialised Q-table values are not numeric: {exc}") from exc
    if found != shape:
        raise PolicyError(f"serialised Q-table values have shape {found}, expected {shape}")
    if not all(map(math.isfinite, values)):
        raise PolicyError("serialised Q-table contains non-finite values")
    return values


def _count_kind(leaf: object) -> str:
    """numpy's dtype kind for one count: bool, int64, uint64, float, or "O".

    "O" (strings, ``None``, integers beyond 64 bits, anything else) makes
    the whole matrix a string or object array, which is not numeric.
    """
    if isinstance(leaf, bool):
        return "b"
    if isinstance(leaf, int):
        if _INT64[0] <= leaf < _INT64[1]:
            return "i"
        return "u" if _INT64[1] <= leaf < _UINT64_END else "O"
    return "f" if isinstance(leaf, float) else "O"


def _validated_counts(raw: object, shape: Tuple[int, int]) -> List[int]:
    """The update counts of a payload, flattened row-major, or a ``PolicyError``."""
    try:
        found = _nested_shape(raw)
    except ValueError as exc:
        raise PolicyError(f"serialised Q-table update counts are invalid: {exc}") from exc
    if found != shape:
        raise PolicyError(
            f"serialised Q-table update counts have shape {found}, expected {shape}"
        )
    leaves = list(_leaves(raw))
    kinds = {_count_kind(leaf) for leaf in leaves}
    if "O" in kinds or kinds == {"b"}:
        raise PolicyError("serialised Q-table update counts are not numeric")
    if "f" in kinds:
        # Counts promote to float64; an integral float inside int64 is a count.
        floats = [float(leaf) for leaf in leaves]  # type: ignore[arg-type]
        if not all(map(math.isfinite, floats)):
            raise PolicyError("serialised Q-table update counts are non-finite")
        if not all(v.is_integer() and _INT64[0] <= v < _INT64[1] for v in floats):
            raise PolicyError("serialised Q-table update counts are not integers")
        counts = [int(v) for v in floats]
    elif "u" in kinds:
        # Past int64 a count is either promoted to a float beyond int64
        # (beside an int64) or wraps negative when narrowed to int64.
        raise PolicyError("serialised Q-table update counts are not integers")
    else:
        counts = [int(leaf) for leaf in leaves]  # type: ignore[call-overload]
    if any(count < 0 for count in counts):
        raise PolicyError("serialised Q-table update counts are negative")
    return counts
