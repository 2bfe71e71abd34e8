"""A constant-state protocol given by explicit tables, for engine tests.

Registered protocols cover six state slots; the engines must also run
protocols with many states, arbitrary beeping and leader sets, and
transitions whose primary probability is 0, 1 or anything in between.
:class:`TableProtocol` builds such a protocol from plain lists, and
:func:`ring_protocol` is one fixed many-state instance.
"""

from typing import Dict, Sequence, Tuple

from repro.core.protocol import BeepingProtocol, TransitionTable

#: One transition row: ``(first, second, p)`` moves to ``first`` with
#: probability ``p`` and to ``second`` otherwise.
Row = Tuple[int, int, float]


def distribution(row: Row) -> Dict[int, float]:
    """The successor distribution of one ``(first, second, p)`` row."""
    first, second, p = row
    if first == second:
        return {first: 1.0}
    return {first: p, second: 1.0 - p}


class TableProtocol(BeepingProtocol):
    """States ``0 .. num_states - 1`` with tabulated transitions.

    ``silent[s]`` and ``heard[s]`` are the ``(first, second, p)`` rows of
    state ``s``; beeping states need no silent row (a beeping node always
    hears its own beep), so theirs is ignored.
    """

    def __init__(
        self,
        beeping: Sequence[bool],
        leader: Sequence[bool],
        silent: Sequence[Row],
        heard: Sequence[Row],
        initial: int = 0,
        name: str = "table",
    ) -> None:
        self.name = name
        self._beeping = tuple(bool(b) for b in beeping)
        self._leader = tuple(bool(b) for b in leader)
        self._silent = tuple(silent)
        self._heard = tuple(heard)
        self._initial = initial

    @property
    def initial_state(self) -> int:
        return self._initial

    def states(self) -> Tuple[int, ...]:
        return tuple(range(len(self._beeping)))

    def is_beeping(self, state) -> bool:
        return self._beeping[state]

    def is_leader(self, state) -> bool:
        return self._leader[state]

    def transition_table(self) -> TransitionTable:
        return TransitionTable(
            silent={
                s: distribution(self._silent[s])
                for s in self.states()
                if not self._beeping[s]
            },
            heard={s: distribution(self._heard[s]) for s in self.states()},
        )


def ring_protocol(num_states: int, p: float = 0.3) -> TableProtocol:
    """A fixed ``num_states``-state protocol whose runs keep changing.

    Every third state beeps and every fourth leads; silent nodes step
    around the ring by a coin, hearing nodes jump deterministically.
    """
    states = range(num_states)
    jumps = [(3 * s + 2) % num_states for s in states]
    return TableProtocol(
        beeping=[s % 3 == 1 for s in states],
        leader=[s % 4 == 0 for s in states],
        silent=[((s + 1) % num_states, (s + 5) % num_states, p) for s in states],
        heard=[(jump, jump, 1.0) for jump in jumps],
        name=f"ring-{num_states}",
    )
