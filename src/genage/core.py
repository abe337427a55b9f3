"""Core domain types: samples, datasets, threshold ladders, models.

Conventions used throughout the package:

* gender is encoded as +1 (male) / -1 (female);
* age ranks are contiguous integers 1..K;
* all arrays are float64 / int64 and frozen after construction, so every
  type here can be shared across threads read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadGenderLabel,
    DimensionMismatch,
    LadderOrderError,
    NonFiniteFeature,
    RankOutOfRange,
)

MALE = 1
FEMALE = -1


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class Variant(str, Enum):
    """Training variants: gender-blind, sequential, coupled-shared, coupled-split."""

    DIRECT = "direct"
    TWO_STEP = "2step"
    ST = "st"
    TT = "tt"

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            names = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {text!r}, expected one of: {names}") from None


@dataclass(frozen=True)
class Sample:
    """One observation: a feature vector, a gender label and an age rank."""

    features: np.ndarray
    gender: int
    age_rank: int

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen_array(self.features))


class Dataset:
    """A column-major view of samples: features (N, d), gender (N,), age_rank (N,).

    ``num_ranks`` declares K; ``rank_to_year`` optionally maps rank k to the
    raw year it was compacted from (index k-1).
    """

    __slots__ = ("features", "gender", "age_rank", "num_ranks", "rank_to_year")

    def __init__(self, features, gender, age_rank, num_ranks=None, rank_to_year=None):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        gender = np.asarray(gender, dtype=int)
        age_rank = np.asarray(age_rank, dtype=int)
        if features.shape[0] != gender.shape[0] or features.shape[0] != age_rank.shape[0]:
            raise DimensionMismatch(
                f"features ({features.shape[0]} rows), gender ({gender.shape[0]}) and "
                f"age_rank ({age_rank.shape[0]}) must have equal lengths"
            )
        if num_ranks is None:
            num_ranks = int(age_rank.max()) if age_rank.size else 2
        if num_ranks < 2:
            raise RankOutOfRange(0, num_ranks, "declared num_ranks must be >= 2")
        self.features = _frozen_array(features)
        self.gender = _frozen_array(gender, dtype=int)
        self.age_rank = _frozen_array(age_rank, dtype=int)
        self.num_ranks = int(num_ranks)
        self.rank_to_year = tuple(rank_to_year) if rank_to_year is not None else None

    @classmethod
    def from_samples(cls, samples, num_ranks=None, rank_to_year=None):
        features = np.stack([np.asarray(s.features, dtype=float) for s in samples])
        gender = [s.gender for s in samples]
        rank = [s.age_rank for s in samples]
        return cls(features, gender, rank, num_ranks=num_ranks, rank_to_year=rank_to_year)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def samples(self):
        return [
            Sample(self.features[i], int(self.gender[i]), int(self.age_rank[i]))
            for i in range(self.n)
        ]

    def counts(self):
        """Per-gender, per-rank sample counts as a dict {(gender, rank): count}."""
        out = {}
        for g in (MALE, FEMALE):
            mask = self.gender == g
            for k in range(1, self.num_ranks + 1):
                out[(g, k)] = int(np.sum(mask & (self.age_rank == k)))
        return out

    def subset(self, indices):
        """A new dataset holding the given rows; keeps K and the year map."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.features[idx],
            self.gender[idx],
            self.age_rank[idx],
            num_ranks=self.num_ranks,
            rank_to_year=self.rank_to_year,
        )

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_ranks == other.num_ranks
            and self.rank_to_year == other.rank_to_year
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.gender, other.gender)
            and np.array_equal(self.age_rank, other.age_rank)
        )


def validate_dataset(ds):
    """Check every dataset invariant; return the dataset unchanged if all hold.

    Raises :class:`NonFiniteFeature`, :class:`BadGenderLabel` or
    :class:`RankOutOfRange`, each naming the first offending sample index.
    Idempotent: validating a validated dataset returns the same object.
    """
    finite = np.isfinite(ds.features).all(axis=1)
    if not finite.all():
        raise NonFiniteFeature(int(np.argmin(finite)))
    good_gender = np.isin(ds.gender, (MALE, FEMALE))
    if not good_gender.all():
        i = int(np.argmin(good_gender))
        raise BadGenderLabel(i, int(ds.gender[i]))
    good_rank = (ds.age_rank >= 1) & (ds.age_rank <= ds.num_ranks)
    if not good_rank.all():
        i = int(np.argmin(good_rank))
        raise RankOutOfRange(i, int(ds.age_rank[i]), ds.num_ranks)
    return ds


@dataclass(frozen=True)
class ThresholdLadder:
    """K-1 non-decreasing cut points splitting the score line into K rank bins."""

    cuts: np.ndarray

    def __post_init__(self):
        cuts = _frozen_array(np.atleast_1d(self.cuts))
        if cuts.ndim != 1:
            raise LadderOrderError("cuts must be a flat sequence")
        if not np.isfinite(cuts).all():
            raise LadderOrderError("cuts must be finite")
        if np.any(np.diff(cuts) < 0):
            raise LadderOrderError(f"cuts must be non-decreasing, got {cuts.tolist()}")
        object.__setattr__(self, "cuts", cuts)

    @property
    def num_ranks(self):
        return self.cuts.shape[0] + 1

    @property
    def spread(self):
        """Range of the cut points, max - min."""
        return float(self.cuts.max() - self.cuts.min())

    def __eq__(self, other):
        if not isinstance(other, ThresholdLadder):
            return NotImplemented
        return np.array_equal(self.cuts, other.cuts)


@dataclass(frozen=True)
class HyperParams:
    """Trade-off weights and solver settings for the joint estimator.

    lambda1 weighs the gender hinge loss, lambda2 the ordinal slack sum,
    lambda3 the squared inner-product coupling between the two directions.
    """

    lambda1: float = 10.0
    lambda2: float = 10.0
    lambda3: float = 1000.0
    t_max: int = 2
    variant: Variant = Variant.TT
    tol: float = 1e-6

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda3 < 0:
            raise ValueError("all trade-off weights must be nonnegative")
        if self.t_max < 1:
            raise ValueError("t_max must be a positive integer")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "variant", Variant.parse(self.variant))

    def replace(self, **changes):
        from dataclasses import replace

        return replace(self, **changes)


@dataclass(frozen=True)
class TrainConfig:
    """Everything :func:`genage.train.fit` needs besides the data."""

    hyper: HyperParams = field(default_factory=HyperParams)
    record_trace: bool = True


@dataclass(frozen=True)
class GenAgeModel:
    """Fitted joint model: gender hyperplane, aging direction, two ladders.

    For the DIRECT and ST variants both ladder fields hold the same shared
    ladder. ``objective_trace`` records the full joint objective after
    initialization and after each half-step of the alternating solver.
    """

    w_g: np.ndarray
    b_g: float
    w_a: np.ndarray
    ladder_male: ThresholdLadder
    ladder_female: ThresholdLadder
    variant: Variant
    objective_trace: tuple = ()

    def __post_init__(self):
        w_g = _frozen_array(np.atleast_1d(self.w_g))
        w_a = _frozen_array(np.atleast_1d(self.w_a))
        if w_g.shape != w_a.shape:
            raise DimensionMismatch("w_g and w_a must share a dimension")
        if self.ladder_male.num_ranks != self.ladder_female.num_ranks:
            raise DimensionMismatch("both ladders must have the same number of cuts")
        variant = Variant.parse(self.variant)
        if variant in (Variant.DIRECT, Variant.ST) and not np.array_equal(
            self.ladder_male.cuts, self.ladder_female.cuts
        ):
            raise LadderOrderError(f"variant {variant.value} requires one shared ladder")
        object.__setattr__(self, "w_g", w_g)
        object.__setattr__(self, "w_a", w_a)
        object.__setattr__(self, "b_g", float(self.b_g))
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))

    @property
    def dim(self):
        return self.w_g.shape[0]

    @property
    def num_ranks(self):
        return self.ladder_male.num_ranks
