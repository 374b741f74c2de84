"""Feature scaling utilities.

The feature map requires every feature to lie in the open interval
``(0, 2)`` (paper section II-A).  :class:`FeatureScaler` implements the
standard fit-on-train / transform-both pattern: per-feature min/max are
learned on the training split and applied to the test split, with values
clipped into the target interval so that unseen extreme values cannot push
angles outside the encoding range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..exceptions import DataError

__all__ = ["FeatureScaler", "scale_to_interval"]


def scale_to_interval(
    X: np.ndarray,
    lower: float = 0.0,
    upper: float = 2.0,
) -> np.ndarray:
    """One-shot per-feature min-max scaling of a matrix into ``[lower, upper]``.

    Constant features map to the interval midpoint.  Prefer
    :class:`FeatureScaler` when a train/test split is involved.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D feature matrix, got shape {X.shape}")
    mins = X.min(axis=0)
    maxs = X.max(axis=0)
    span = maxs - mins
    mid = (lower + upper) / 2.0
    out = np.full_like(X, mid)
    nonconst = span > 0
    out[:, nonconst] = lower + (X[:, nonconst] - mins[nonconst]) / span[nonconst] * (
        upper - lower
    )
    return out


@dataclass
class FeatureScaler:
    """Per-feature min-max scaler with clipping, fit on the training split.

    Parameters
    ----------
    lower, upper:
        Target interval; defaults to the paper's ``(0, 2)``.
    margin:
        Small inset applied to the target interval so scaled training values
        land strictly inside ``(lower, upper)`` (the feature map divides by
        ``1 - x`` style expressions only implicitly, but keeping values off
        the boundary avoids degenerate zero-angle gates for the extreme
        samples).
    """

    lower: float = 0.0
    upper: float = 2.0
    margin: float = 1e-3
    _mins: np.ndarray | None = field(default=None, repr=False)
    _maxs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise DataError(
                f"upper ({self.upper}) must be greater than lower ({self.lower})"
            )
        if self.margin < 0 or self.margin >= (self.upper - self.lower) / 2:
            raise DataError(f"margin {self.margin} out of range")

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._mins is not None

    def fit(self, X: np.ndarray) -> "FeatureScaler":
        """Learn per-feature minima and maxima from the training matrix."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError(f"expected a non-empty 2-D matrix, got shape {X.shape}")
        self._mins = X.min(axis=0)
        self._maxs = X.max(axis=0)
        self.__dict__.pop("_affine_cache", None)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Scale a matrix with the fitted statistics, clipping to the interval."""
        if not self.is_fitted:
            raise DataError("FeatureScaler.transform called before fit")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError(f"expected a 2-D matrix, got shape {X.shape}")
        assert self._mins is not None
        if X.shape[1] != self._mins.shape[0]:
            raise DataError(
                f"feature count mismatch: fitted {self._mins.shape[0]}, got {X.shape[1]}"
            )
        lo, hi, mid, cols, mins, span = self._affine()
        out = np.full_like(X, mid, dtype=float)
        out[:, cols] = lo + (X[:, cols] - mins) / span * (hi - lo)
        return np.clip(out, lo, hi)

    def _affine(self) -> tuple:
        """``(lo, hi, mid, cols, mins, span)`` of the fitted statistics.

        ``cols`` selects the non-constant features (a plain slice when all
        are), ``mins`` and ``span`` their statistics.  Derived on first use
        after each :meth:`fit` and kept outside the dataclass fields
        (:meth:`__getstate__` drops it), so equality, repr and pickle bytes
        are those of the fitted statistics alone.
        """
        affine = self.__dict__.get("_affine_cache")
        if affine is None:
            assert self._mins is not None and self._maxs is not None
            lo = self.lower + self.margin
            hi = self.upper - self.margin
            span = self._maxs - self._mins
            nonconst = span > 0
            cols = slice(None) if nonconst.all() else nonconst
            affine = (lo, hi, (lo + hi) / 2.0, cols, self._mins[cols], span[cols])
            self._affine_cache = affine
        return affine

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_affine_cache"}

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` then transform it."""
        return self.fit(X).transform(X)

    def interval(self) -> Tuple[float, float]:
        """The effective output interval after applying the margin."""
        return (self.lower + self.margin, self.upper - self.margin)
