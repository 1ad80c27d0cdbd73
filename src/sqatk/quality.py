"""Five-dimensional quality score record shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass

TASKS = ("mos", "col", "dis", "loud", "noi")
TASK_DISPLAY = {"mos": "MOS", "col": "Col", "dis": "Dis", "loud": "Loud", "noi": "Noi"}

SCORE_MIN = 1.0
SCORE_MAX = 5.0


def clip_score(value: float) -> float:
    """Clamp a raw head output onto the reporting scale [1, 5]."""
    return min(max(float(value), SCORE_MIN), SCORE_MAX)


@dataclass
class QualityScores:
    """Per-sample scores for MOS and the four perceptual dimensions.

    A field of None means the dimension is absent (unlabeled). Present
    values are expected to lie in [1, 5]; model outputs are clipped to
    that range before being stored here.
    """

    mos: float | None = None
    col: float | None = None
    dis: float | None = None
    loud: float | None = None
    noi: float | None = None

    def get(self, task: str) -> float | None:
        if task not in TASKS:
            raise KeyError(f"unknown quality dimension: {task!r}")
        return getattr(self, task)

    def present(self, task: str) -> bool:
        return self.get(task) is not None
