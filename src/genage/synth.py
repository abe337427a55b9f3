"""Synthetic gender-discrepant aging datasets with known ground truth.

Each sample is built as

    (+-gender_gap/2) * g  +  age_position * a  +  sigma * noise,

where g and a are orthonormal directions, the age position is drawn
uniformly inside the gender's rank bin, and the female bins are the male
ones shifted by ``discrepancy`` along the aging axis.  The per-(rank, slot)
uniform and Gaussian draws are shared between the genders (common random
numbers), so setting discrepancy to zero makes the two subpopulations exact
mirrors of each other across the gender axis; with zero noise the gender
contrast is then purely the gap term.  All remaining dimensions carry only
noise and act as distractors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import FEMALE, MALE, Dataset, validate_dataset
from .errors import BadConfig

_BIN_INSET = 0.05   # keep age positions strictly inside their bin
_OUTER_MARGIN = 2.0  # width of the two unbounded outer bins


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 10
    num_ranks: int = 5
    samples_per_cell: int = 40
    gender_gap: float = 4.0
    male_cut_centers: tuple = (-3.0, -1.0, 1.0, 3.0)
    discrepancy: float = 0.0
    noise_sigma: float = 0.5
    seed: int = 42

    def __post_init__(self):
        # each field takes the type of its default; a bool is no number here
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is int:
                ok, name = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
            elif kind is float:
                ok, name = _is_real(value), "a number"
            else:
                ok = (isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim == 1) \
                    and all(map(_is_real, value))
                name = "a sequence of numbers"
            if not ok:
                raise BadConfig(f"synth config field {f.name!r} must be {name}, got {value!r}")

    def replace(self, **changes):
        from dataclasses import replace

        return replace(self, **changes)


def _is_real(value):
    """Whether ``value`` is a real number, not a bool, that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:  # an integer too large
        return False
    return True


def true_directions(cfg: SynthConfig):
    """The (gender, aging) ground-truth directions: the first two unit vectors.

    The noise is isotropic, so any other orthonormal pair would give the
    same distribution up to a rotation of the features.
    """
    g, a = np.zeros(cfg.dim), np.zeros(cfg.dim)
    g[0] = a[1] = 1.0
    return g, a


def effective_cuts(cfg: SynthConfig):
    """Male and female cut positions actually used for binning."""
    male = np.asarray(cfg.male_cut_centers, dtype=float)
    return male, male + cfg.discrepancy


def _check(cfg):
    if cfg.dim < 2:
        raise BadConfig("dim must be at least 2")
    if cfg.num_ranks < 2:
        raise BadConfig("num_ranks must be at least 2")
    if cfg.samples_per_cell < 1:
        raise BadConfig("samples_per_cell must be positive")
    if not cfg.gender_gap > 0:
        raise BadConfig("gender_gap must be positive")
    if cfg.noise_sigma < 0 or cfg.discrepancy < 0:
        raise BadConfig("noise_sigma and discrepancy must be nonnegative")
    male, _ = effective_cuts(cfg)
    if male.shape != (cfg.num_ranks - 1,):
        raise BadConfig("cut centers must have length num_ranks - 1")
    if np.any(np.diff(male) < 0):
        raise BadConfig("cut centers must be non-decreasing")


def _bins(cuts):
    lows = np.concatenate(([cuts[0] - _OUTER_MARGIN], cuts))
    highs = np.concatenate((cuts, [cuts[-1] + _OUTER_MARGIN]))
    return lows, highs


@np.errstate(over="ignore", invalid="ignore")  # a non-finite feature raises NonFiniteFeature at the end
def generate(cfg: SynthConfig) -> Dataset:
    """Draw the configured dataset; bit-identical for identical configs."""
    _check(cfg)
    g_dir, a_dir = true_directions(cfg)
    cuts_m, cuts_f = effective_cuts(cfg)
    lows_m, highs_m = _bins(cuts_m)
    lows_f, highs_f = _bins(cuts_f)
    rng = np.random.default_rng(cfg.seed)

    m = cfg.samples_per_cell
    half = cfg.num_ranks * m
    half_gap = 0.5 * cfg.gender_gap
    # males fill the first half and females the second, cells in rank order;
    # each cell is built in its slice (outer product, plus the gender shift,
    # plus the noise), so no copy of the features is made along the way
    features = np.empty((2 * half, cfg.dim))
    # one (uniform, noise) draw per rank/slot, applied to both genders
    for k in range(cfg.num_ranks):
        u = rng.uniform(size=m)
        noise = cfg.noise_sigma * rng.standard_normal(size=(m, cfg.dim))
        frac = _BIN_INSET + (1.0 - 2.0 * _BIN_INSET) * u
        for offset, lows, highs, shift in ((0, lows_m, highs_m, half_gap * g_dir),
                                           (half, lows_f, highs_f, -half_gap * g_dir)):
            cell = features[offset + k * m: offset + (k + 1) * m]
            np.outer(lows[k] + (highs[k] - lows[k]) * frac, a_dir, out=cell)
            cell += shift
            cell += noise

    ranks = np.tile(np.repeat(np.arange(1, cfg.num_ranks + 1), m), 2)
    genders = np.repeat((MALE, FEMALE), half)
    return validate_dataset(Dataset._adopt(features, genders, ranks, num_ranks=cfg.num_ranks))
