"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

from emlab.grid import GridSpec


def random_field(grid: GridSpec, seed: int, band: int | None = None, amp: float = 1.0) -> np.ndarray:
    """Random real field; if band is given, keep only modes with |index| <= band."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if band is not None:
        f = grid.inverse(grid.transform(f) * grid.band_mask(band))
    scale = np.abs(f).max()
    return amp * f / scale if scale > 0 else f


def gaussian_bump(grid: GridSpec, width: float, amp: float = 1.0) -> np.ndarray:
    """amp * exp(-|x - c|^2 / width^2) centered in the box."""
    return amp * np.exp(-(grid.radius**2) / width**2)
