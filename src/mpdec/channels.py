"""Channel models (BSC, binary-input AWGN) and LLR computation.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1; LLRs are natural-log
ratios log P(y|0)/P(y|1), so a positive LLR favours bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability p in (0, 0.5)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"crossover probability must be in (0, 0.5), got {self.p}")


@dataclass(frozen=True)
class Biawgn:
    """Binary-input AWGN channel with finite noise standard deviation sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


ChannelModel = Bsc | Biawgn


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def transmit(x, channel: ChannelModel, rng) -> np.ndarray:
    """Send codeword bits through the channel; deterministic per rng seed."""
    x = np.asarray(x, dtype=np.uint8)
    gen = _as_rng(rng)
    if isinstance(channel, Bsc):
        flips = gen.random(x.shape[0]) < channel.p
        return (x ^ flips.astype(np.uint8)).astype(np.uint8)
    return (1.0 - 2.0 * x) + channel.sigma * gen.standard_normal(x.shape[0])


def llr(y, channel: ChannelModel) -> np.ndarray:
    """Per-bit log-likelihood ratios log P(y|0)/P(y|1) for the observation."""
    y = np.asarray(y, dtype=float)
    if isinstance(channel, Bsc):
        mag = math.log((1.0 - channel.p) / channel.p)
        return np.where(y > 0.5, -mag, mag)
    return 2.0 * y / channel.sigma ** 2


def checked_llrs(lam, n: int) -> np.ndarray:
    """The n LLRs as floats; ValueError unless there are n, all finite."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        got = lam.size if lam.ndim == 1 else f"shape {lam.shape}"
        raise ValueError(f"expected {n} LLR values, got {got}")
    if not np.isfinite(lam).all():
        raise ValueError("LLRs must be finite")
    return lam


def hard_decision(lam) -> np.ndarray:
    """Bit 1 where the LLR is negative, bit 0 otherwise (zero resolves to 0)."""
    lam = np.asarray(lam, dtype=float)
    return (lam < 0).astype(np.uint8)


def ebn0_db_to_sigma(ebn0_db: float, rate: float) -> float:
    """Noise sigma for a given Eb/N0 in dB: sigma^2 = 1 / (2 R 10^(dB/10))."""
    if rate <= 0:
        raise ValueError("code rate must be positive")
    try:
        return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))
    except (ZeroDivisionError, OverflowError):  # -inf dB, or far out of range
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no noise sigma") from None


def trial_rng(master_seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    """Independent PCG64 stream for one simulation trial."""
    return np.random.default_rng((master_seed, point_index, trial_index))
