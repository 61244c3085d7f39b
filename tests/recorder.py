"""The one way the tests keep a game's moves: a per-fire check of
``stabilize_labeled`` that records each fire as a ``Move``. A game keeps
no log of its own."""
from starchip import Move, SequenceLog, stabilize_labeled
from starchip.core import _board


class Moves(list):
    """A per-fire check that appends each fire of a game on ``params`` to
    itself as a Move, in order."""

    def __init__(self, params):
        super().__init__()
        self.vertex = _board(params).vertex

    def fire(self, s, chips):
        self.append(Move(self.vertex[s], chips))


def played(params, strategy):
    """Play ``stabilize_labeled(params, strategy)`` and record its moves;
    return the outcome and a SequenceLog of the moves, as many as the fires
    the driver counted."""
    moves = Moves(params)
    outcome, fires = stabilize_labeled(params, strategy, moves.fire)
    assert fires == len(moves)
    return outcome, SequenceLog(params, tuple(moves))
