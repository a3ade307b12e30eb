"""Three-stage agent model: attention, selection, collapse.

An agent facing alternatives builds a superposition whose Born weights are
the normalized priorities (attention), picks the norm-optimal admissible
alternative (selection), then forces the collapse onto the choice. The
outcome is deterministic given the norm, yet constrained to the Born
support: an alternative with zero priority can never be chosen. The
contrast case is a robot that simply computes the argmax over all
alternatives, with no superposition and no admissibility filter; the two
produce identical outcomes but structurally different traces.

An episode reads word 0 of its trial's stream for the mixing draw (only
when mixing < 1) and the next word for its branch, and never the word of
the Forced collapse, whose outcome is certain. Both branches search one
table stack over all labels, where a zero-priority label has zero mass.
act_trials reads each word as one column of a block's words; it makes no
Lemire draw, so no block is ever redrawn one trial at a time, and act
leaves the caller's stream just past the words it read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    AllZeroPriorities,
    BadParameter,
    LengthMismatch,
    NoAdmissibleAlternative,
)
from .quantum import ProbabilityDistribution, StateVector, _built, _frozen, born_weights, make_state
from .rng import TrialStreams, cumulative, run_blocks, sample_index, sample_indices


@dataclass(frozen=True)
class AlternativeSet:
    """Labelled alternatives with non-negative priorities (not all zero)."""

    labels: tuple[str, ...]
    priorities: tuple[float, ...]

    def __post_init__(self) -> None:
        labels = tuple(map(str, self.labels))
        priorities = tuple(map(float, self.priorities))
        if len(labels) != len(priorities):
            raise LengthMismatch(
                f"{len(labels)} labels for {len(priorities)} priorities"
            )
        if len(set(labels)) != len(labels):
            raise BadParameter("labels must be distinct")
        if any(p < 0 for p in priorities):
            raise BadParameter("priorities must be non-negative")
        if not all(map(math.isfinite, priorities)):
            raise BadParameter("priorities must be finite")
        if not any(p > 0 for p in priorities):
            raise AllZeroPriorities("at least one priority must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "priorities", priorities)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def born(self) -> ProbabilityDistribution:
        """The Born row, born_weights of the priorities: built once, not checked again."""
        return _built(ProbabilityDistribution, probs=_frozen(born_weights(self.priorities)))


@dataclass(frozen=True)
class NormFunction:
    """Value assigned to each alternative label; higher is better.

    The binary moral case uses {0, 1} for {bad, good}.
    """

    values: Mapping[str, float]

    def value(self, label: str) -> float:
        if label not in self.values:
            raise BadParameter(f"norm is undefined on label {label!r}")
        return float(self.values[label])


@dataclass(frozen=True)
class AttentionStage:
    tick: int
    state: StateVector


@dataclass(frozen=True)
class SelectionStage:
    tick: int
    chosen: int
    tie_broken: bool


@dataclass(frozen=True)
class CollapseStage:
    tick: int
    outcome: int


@dataclass(frozen=True)
class ComputeStage:
    tick: int
    chosen: int


StageRecord = Union[AttentionStage, SelectionStage, CollapseStage, ComputeStage]


@dataclass(frozen=True)
class AgentTrace:
    """Ordered stage records of one decision episode.

    kind "collapse" traces have attention -> selection -> collapse at ticks
    t1 < t2 < t3; kind "compute" traces have a single compute record.
    """

    kind: str
    labels: tuple[str, ...]
    stages: tuple[StageRecord, ...]

    @property
    def final_outcome(self) -> int:
        last = self.stages[-1]
        if isinstance(last, CollapseStage):
            return last.outcome
        if isinstance(last, ComputeStage):
            return last.chosen
        raise BadParameter("trace is incomplete")

    @property
    def stage_shape(self) -> tuple[str, ...]:
        return tuple(type(stage).__name__ for stage in self.stages)


#: the stage_shape of every trace act returns
COLLAPSE_STAGE_SHAPE = tuple(
    stage.__name__ for stage in (AttentionStage, SelectionStage, CollapseStage)
)


def attention(alternatives: AlternativeSet) -> StateVector:
    """Superpose the alternatives with amplitudes sqrt(priority / total), the
    square roots of their Born row."""
    return make_state(np.sqrt(alternatives.born.probs))


def _choices(
    born: ProbabilityDistribution, alternatives: AlternativeSet, norm: NormFunction
) -> list[int]:
    """The tied set: the norm-optimal admissible alternatives, in order."""
    admissible = sorted(born.support())
    if not admissible:
        raise NoAdmissibleAlternative("no alternative has nonzero amplitude")
    scores = {j: norm.value(alternatives.labels[j]) for j in admissible}
    best = max(scores.values())
    return [j for j in admissible if scores[j] == best]


def selection(
    state: StateVector,
    alternatives: AlternativeSet,
    norm: NormFunction,
    rng: TrialStreams,
) -> tuple[int, bool]:
    """Pick the norm-optimal admissible alternative.

    Ties are broken by Born-renormalized sampling over the tied set (a
    random subroutine), and flagged as such.
    """
    born = ProbabilityDistribution(born_weights(np.abs(state.amplitudes) ** 2))
    tied = _choices(born, alternatives, norm)
    if len(tied) == 1:
        return tied[0], False
    return tied[sample_index(rng, born.probs[tied])], True


def act(
    alternatives: AlternativeSet,
    norm: NormFunction,
    rng: TrialStreams,
    mixing: float = 1.0,
) -> AgentTrace:
    """Run the full attention -> selection -> collapse pipeline.

    `mixing` blends selection modes: 1.0 (default) always follows the norm
    argmax; 0.0 ignores the norm and samples the admissible set with Born
    weights; intermediate values choose between the two at random. This
    knob is an extension beyond the basic model. This is act_trials' block
    code at one row, on rng's stream as it stands: on trial_rng(seed, t) it
    reads word 0 for the mixing draw (only when mixing < 1) and the next
    word for the branch (only when taken: a tie-break at the optimum, or
    the Born branch), never the Forced collapse's word, whose outcome is
    certain. It leaves rng just past the words it read.
    """
    row = _act_block(alternatives, norm, mixing)(rng, np.zeros(1, dtype=np.uint64))
    chosen, tie_broken = int(row.chosen[0]), bool(row.tie_broken[0])
    return AgentTrace(
        kind="collapse",
        labels=alternatives.labels,
        stages=(
            AttentionStage(tick=1, state=attention(alternatives)),
            SelectionStage(tick=2, chosen=chosen, tie_broken=tie_broken),
            CollapseStage(tick=3, outcome=chosen),
        ),
    )


def robot_act(alternatives: AlternativeSet, norm: NormFunction) -> AgentTrace:
    """Deterministic argmax over all alternatives; lowest index wins ties."""
    scores = [norm.value(label) for label in alternatives.labels]
    chosen = int(np.argmax(scores))
    return AgentTrace(
        kind="compute",
        labels=alternatives.labels,
        stages=(ComputeStage(tick=1, chosen=chosen),),
    )


def born_reference(alternatives: AlternativeSet) -> ProbabilityDistribution:
    """The zero-control baseline: the priorities over their total (born_weights)."""
    return alternatives.born


class ActBlock(NamedTuple):
    """A block of decision episodes, one array entry per trial."""

    trial: np.ndarray
    chosen: np.ndarray
    tie_broken: np.ndarray


def act_trials(
    alternatives: AlternativeSet,
    norm: NormFunction,
    seed: int,
    trials: int,
    mixing: float = 1.0,
) -> Iterator[ActBlock]:
    """act(alternatives, norm, trial_rng(seed, t), mixing) for trials
    0..trials-1, TRIAL_BLOCK trials at a time: trial t reads Philox counter
    [t, 0, 0, block], one TrialStreams per block. Each chosen outcome and
    tie flag is act's, whose stage_shape is COLLAPSE_STAGE_SHAPE."""
    block = _act_block(alternatives, norm, mixing)
    return run_blocks(seed, (), trials, block)


def _act_block(
    alternatives: AlternativeSet, norm: NormFunction, mixing: float
) -> Callable[[TrialStreams, np.ndarray], ActBlock]:
    """The block code of act and act_trials.

    The Born row (alternatives.born), the tied set and one stack of two
    cumulative tables over all labels are computed once: row 0 the tie-break
    (Born weight on the tied set), row 1 the Born branch (cumulative zeroes
    each inadmissible label). A choice is admissible, so its Forced collapse
    needs no check. block(streams, t) reads whole columns, one word per row
    each: word 0 is the mixing draw when mixing < 1, and the next word, read
    only when some row takes a branch, searches row 0 where a row follows the
    norm and row 1 elsewhere. The Forced collapse's word is never read, and
    no draw is a Lemire draw, so the block never raises rng.Diverged.
    """
    if not 0.0 <= mixing <= 1.0:
        raise BadParameter("mixing must lie in [0, 1]")
    born = alternatives.born
    tied = _choices(born, alternatives, norm)
    tie_break = np.zeros(len(born))
    tie_break[tied] = born.probs[tied]
    cums = cumulative([tie_break, born.probs])

    def block(streams: TrialStreams, t: np.ndarray) -> ActBlock:
        follow = np.ones(t.size, dtype=bool) if mixing >= 1.0 else streams.random() < mixing
        if not follow.all():  # row 0 where a row follows the norm, row 1 elsewhere
            chosen = sample_indices(streams.random(), cums, (~follow).astype(np.intp))
        elif len(tied) > 1:  # row 0 alone, by the one-table search
            chosen = sample_indices(streams.random(), cums[0])
        else:  # no row draws a branch
            chosen = np.full(t.size, tied[0])
        return ActBlock(t, chosen, follow if len(tied) > 1 else np.zeros(t.size, dtype=bool))

    return block
