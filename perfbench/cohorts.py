"""Seeded synthetic cohorts for the benchmark, written with the stdlib only.

The generator draws nothing but ``random.Random(seed).random()`` and does its
own arithmetic on top, so the same seed gives the same CSV bytes on every
commit of the package and on every Python that keeps the Mersenne Twister
seeding.  It deliberately does not use ``unihet.synth``: a change to the
package must not be able to shift a workload's input.

Scores are written with one decimal (``repr(round(x, 1))``), which is how the
package writes an observed score back, so an untouched score survives a
load/save cycle byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

HEADER = "university_id,form,basis,score"
FORMS = ("state_funded", "tuition_based")

_OBSERVED_BASES = (
    ("competition", 0.85),
    ("out_of_competition", 0.05),
    ("targeted", 0.05),
    ("benefit", 0.03),
    ("other", 0.02),
)
_GAP_BASES = (("olympiad", 0.5), ("targeted", 0.2), ("benefit", 0.15), ("other", 0.15))


@dataclass(frozen=True)
class Shape:
    """Size and gap profile of one cohort.

    ``n_small`` universities get fewer students than the 15-student floor and
    ``n_gappy`` get 30 % of their scores blanked, so that the exclusion rule
    removes both kinds.  They are spread evenly among the regular ones.
    """

    n_universities: int
    students: tuple[int, int]
    gap_frac: float
    tuition_frac: float
    n_small: int = 0
    n_gappy: int = 0


class _Draw:
    """Every random quantity comes from ``rng.random()`` through this class."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def unit(self) -> float:
        return self._rng.random()

    def between(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + min(int(self._rng.random() * (hi - lo + 1)), hi - lo)

    def gauss(self) -> float:
        # Box-Muller, one value per call; 1 - u keeps the log argument positive.
        u1, u2 = 1.0 - self._rng.random(), self._rng.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def pick(self, table: tuple[tuple[str, float], ...]) -> str:
        x = self._rng.random()
        for name, weight in table:
            if x < weight:
                return name
            x -= weight
        return table[-1][0]


def _kind_of(u: int, shape: Shape) -> str:
    """'small', 'gappy' or 'regular' for university index u (0-based)."""
    n_odd = shape.n_small + shape.n_gappy
    if n_odd == 0:
        return "regular"
    stride = shape.n_universities // n_odd
    if u % stride != stride // 2 or u // stride >= n_odd:
        return "regular"
    return "small" if (u // stride) < shape.n_small else "gappy"


def generate(shape: Shape, seed: int) -> str:
    """The cohort's student CSV as one string, deterministic in ``seed``."""
    draw = _Draw(seed)
    width = len(str(shape.n_universities))
    lines = [HEADER]
    for u in range(shape.n_universities):
        uid = f"U{u + 1:0{width}d}"
        kind = _kind_of(u, shape)
        n = draw.integer(5, 14) if kind == "small" else draw.integer(*shape.students)
        mean = draw.between(45.0, 85.0)
        sd = draw.between(4.0, 12.0)
        forms = [FORMS[draw.unit() < shape.tuition_frac] for _ in range(n)]
        if kind == "gappy":
            n_gap = math.ceil(0.3 * n)
            missing = [i < n_gap for i in range(n)]
        else:
            missing = [draw.unit() < shape.gap_frac for _ in range(n)]
        # every form that has a gap keeps at least one observed score
        for form in FORMS:
            idx = [i for i in range(n) if forms[i] == form]
            if idx and all(missing[i] for i in idx):
                missing[idx[-1]] = False
        for form, gap in zip(forms, missing):
            if gap:
                lines.append(f"{uid},{form},{draw.pick(_GAP_BASES)},")
            else:
                score = min(max(round(mean + sd * draw.gauss(), 1), 1.0), 100.0)
                lines.append(f"{uid},{form},{draw.pick(_OBSERVED_BASES)},{score!r}")
    return "\n".join(lines) + "\n"


def write(shape: Shape, seed: int, path: str) -> str:
    """Write the cohort to ``path`` and return the sha256 of its bytes."""
    data = generate(shape, seed).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
