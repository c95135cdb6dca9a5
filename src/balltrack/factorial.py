"""Replicated two-level full factorial design over six binary factors.

Configurations are the 64 vertices of the factor hypercube, indexed so that
factor A is the least significant bit and F the most significant
(row = 32F + 16E + 8D + 4C + 2B + A), with labels like ``A1B0C1D0E0F0``.
The design table is built once, at import: a :class:`FactorConfig` is its
row, and a label resolves through one lookup (surrounding whitespace
ignored).

:class:`ResponseTable` holds the responses as one ``(64, replicates,
metrics)`` float array indexed by design row, with replicates and metrics
kept sorted.  Only finite values get in, so NaN marks every cell that lacks
a metric.  ``from_columns`` scatters a whole results table into it at once,
from the columns that ``tracker.metrics_columns_from_csv`` parses;
``from_rows`` unzips rows into it.  Gaps, a metric's response matrix and the
enc_avg / dec_avg aggregates are NaN tests and slices of that array, and a
fault names the first cell in design order (config row, then replicate).

Effects use {-1, +1} contrast coding: the estimate for a term (any
non-empty subset of factors) is the mean response where the term's contrast
is +1 minus the mean where it is -1, so a negative effect means the high
level reduces the response.  With n replicates each main effect averages
over n * 32 runs at either level.  In this balanced design
:func:`compute_all_effects` gets all 63 as one product, S^T ybar / 32, where
S is the 64 x 63 matrix of +-1 contrasts (column = term, row = configuration)
and ybar the 64 cell means over replicates (Yates 1937).

Two aggregate responses summarize the B, H and P errors at the scales of
``tracker.SCALES``: the encoder average (mean of the three at the coarsest
scale) and the decoder average (mean of the six at the finer ones).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .tracker import SCALES

__all__ = [
    "FACTORS",
    "FactorConfig",
    "ResponseTable",
    "MissingCellsError",
    "enumerate_configs",
    "contrast_sign",
    "all_terms",
    "compute_all_effects",
    "aggregate_responses",
    "rank_effects",
    "ENCODER_METRICS",
    "DECODER_METRICS",
]

FACTORS = "ABCDEF"
N_CONFIGS = 1 << len(FACTORS)

ENCODER_METRICS = tuple(f"{name}{SCALES[0]}" for name in "BHP")
DECODER_METRICS = tuple(f"{name}{s}" for name in "BHP" for s in SCALES[1:])
_NINE = ENCODER_METRICS + DECODER_METRICS
_AGGREGATES = ("enc_avg", "dec_avg")


class MissingCellsError(ValueError):
    """Raised when the design grid has absent (config, replicate) cells."""

    def __init__(self, metric: str, missing: list[tuple[str, int]]):
        self.metric = metric
        self.missing = missing
        preview = ", ".join(f"({c}, r{r})" for c, r in missing[:8])
        if len(missing) > 8:
            preview += f", ... {len(missing) - 8} more"
        super().__init__(f"metric {metric!r} missing {len(missing)} cells: {preview}")


# the design, once: bit f of row r is the level of factor f, and its
# contrast is +1 at the high level and -1 at the low one
_BITS = (np.arange(N_CONFIGS)[:, None] >> np.arange(len(FACTORS))) & 1
_SIGNS = 2 * _BITS - 1
_LABELS = ["".join(f"{f}{b}" for f, b in zip(FACTORS, bits)) for bits in _BITS]
_ROW = {label: row for row, label in enumerate(_LABELS)}


def _row(config: FactorConfig | str) -> int:
    """Design row of a config or of its label; surrounding whitespace is ignored."""
    if not isinstance(config, str):
        return config.index
    try:
        return _ROW[config.strip()]
    except KeyError:
        raise ValueError(f"bad config label {config.strip()!r}") from None


@dataclass(frozen=True)
class FactorConfig:
    """One vertex of the 2^6 design, held as its row index."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index < N_CONFIGS:
            raise ValueError(f"config index {self.index} out of range")

    @property
    def label(self) -> str:
        return _LABELS[self.index]

    @classmethod
    def from_label(cls, label: str) -> "FactorConfig":
        return cls(_row(label))

    def __getitem__(self, factor: str) -> bool:
        return bool(_BITS[self.index, FACTORS.index(factor)])


def enumerate_configs() -> list[FactorConfig]:
    """All 64 configurations in stable row-index order."""
    return [FactorConfig(i) for i in range(N_CONFIGS)]


def contrast_sign(config: FactorConfig, term: str) -> int:
    """Product of per-factor contrasts (+1 high, -1 low) over the term."""
    if not term:
        raise ValueError("term must name at least one factor")
    return int(np.prod(_SIGNS[config.index, [FACTORS.index(f) for f in term]]))


def all_terms() -> list[str]:
    """The 63 non-empty factor subsets, as sorted letter strings."""
    return ["".join(c) for k in range(1, len(FACTORS) + 1) for c in combinations(FACTORS, k)]


# S (64 x 63): column k is the contrast of all_terms()[k] over the design rows
_TERMS = all_terms()
_IN_TERM = np.array([[f in term for f in FACTORS] for term in _TERMS])
_CONTRASTS = np.where(_IN_TERM, _SIGNS[:, None, :], 1).prod(axis=2)


def _cell_error(problem: str, row: int, replicate: int, metric: str) -> ValueError:
    return ValueError(f"{problem} ({_LABELS[row]}, r{replicate}, {metric})")


def _codes(column, code: dict) -> np.ndarray:
    """``code[entry]`` for each entry of ``column``, as one integer array."""
    return np.fromiter(map(code.__getitem__, column), int, len(column))


class ResponseTable:
    """The design's responses as one ``(64, replicates, metrics)`` float
    array, NaN wherever a cell lacks the metric.  Only finite values get in,
    so NaN is never a response.  Replicates and metrics are held sorted, so
    every slice is already in the order the methods return."""

    def __init__(self):
        self._reps: list[int] = []
        self._metrics: list[str] = []
        self._values = np.empty((N_CONFIGS, 0, 0))

    def _slot(self, keys: list, key, axis: int) -> int:
        """Index of ``key`` in the sorted ``keys``; a new key gets a NaN slice on ``axis``."""
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            keys.insert(i, key)
            self._values = np.insert(self._values, i, np.nan, axis)
        return i

    def add(self, config: FactorConfig | str, replicate: int, metric: str, value: float) -> None:
        """Store one value under the canonical label; a NaN or +-inf value,
        an integer too large for a float or a repeated cell raises
        ``ValueError`` naming the cell."""
        row = _row(config)
        try:
            value = float(value)
        except OverflowError:
            raise _cell_error("value too large for a float in cell", row, replicate, metric) from None
        if not np.isfinite(value):
            raise _cell_error(f"value {value!r} is not finite in cell", row, replicate, metric)
        at = row, self._slot(self._reps, replicate, 1), self._slot(self._metrics, metric, 2)
        if not np.isnan(self._values[at]):
            raise _cell_error("duplicate cell", row, replicate, metric)
        self._values[at] = value

    @classmethod
    def from_rows(cls, rows) -> "ResponseTable":
        """Table of ``(config, replicate, metric, value)`` rows: their columns
        through :meth:`from_columns`.  A row of another length is replayed
        through :meth:`add` instead, which raises at the first fault."""
        rows = list(rows)
        if not rows or set(map(len, rows)) != {4}:  # nothing to place, or a row to reject
            return cls()._replay(rows)
        return cls.from_columns(*zip(*rows))

    @classmethod
    def from_columns(cls, configs, replicates, metrics, values) -> "ResponseTable":
        """Table of equal-length columns, row i being ``(configs[i],
        replicates[i], metrics[i], values[i])``, scattered into a NaN-filled
        array at once; a float64 array of values is taken as it is.  When a
        label or value is bad, a value is not finite or too large for a
        float, or a cell repeats, the rows are replayed through :meth:`add`
        instead, which raises at the first one."""
        n = len(configs)
        if not len(replicates) == len(metrics) == len(values) == n:
            raise ValueError(f"columns of unequal length: {n}, {len(replicates)}, "
                             f"{len(metrics)}, {len(values)}")
        rows = zip(configs, replicates, metrics, values)
        try:
            row_of = {c: _row(c) for c in set(configs)}
            if not (isinstance(values, np.ndarray) and values.dtype == float and values.ndim == 1):
                values = np.fromiter(map(float, values), float, n)
        except (TypeError, ValueError, OverflowError):  # a bad label or value
            return cls()._replay(rows)
        table = cls()
        table._reps, table._metrics = sorted(set(replicates)), sorted(set(metrics))
        table._values = np.full((N_CONFIGS, len(table._reps), len(table._metrics)), np.nan)
        table._values[_codes(configs, row_of),
                      _codes(replicates, {r: i for i, r in enumerate(table._reps)}),
                      _codes(metrics, {m: i for i, m in enumerate(table._metrics)})] = values
        # one finite entry per row unless a value is not finite or a cell repeats
        if np.count_nonzero(np.isfinite(table._values)) < n:
            return cls()._replay(rows)
        return table

    def _replay(self, rows) -> "ResponseTable":
        for config, replicate, metric, value in rows:
            self.add(config, replicate, metric, value)
        return self

    @property
    def replicates(self) -> list[int]:
        return list(self._reps)

    def metrics(self) -> list[str]:
        return list(self._metrics)

    def _column(self, metric: str) -> np.ndarray:
        """(64, n_replicates) values of one metric; all NaN for one never stored."""
        if metric in self._metrics:
            return self._values[:, :, self._metrics.index(metric)]
        return np.full(self._values.shape[:2], np.nan)

    def value(self, label: FactorConfig | str, replicate: int, metric: str) -> float:
        """One stored value, its config given as :meth:`add` takes it;
        ``KeyError`` for a cell that does not hold the metric."""
        try:
            at = _row(label), self._reps.index(replicate), self._metrics.index(metric)
        except ValueError:  # a bad label, or a replicate or metric never stored
            raise KeyError((label, replicate, metric)) from None
        if np.isnan(self._values[at]):
            raise KeyError((label, replicate, metric))
        return float(self._values[at])

    def missing_cells(self, metric: str) -> list[tuple[str, int]]:
        rows, reps = np.nonzero(np.isnan(self._column(metric)))
        return [(_LABELS[i], self._reps[r]) for i, r in zip(rows.tolist(), reps.tolist())]

    def responses(self, metric: str) -> np.ndarray:
        """(64, n_replicates) response matrix in row-index order."""
        return self._stack([metric])[:, :, 0]

    def _stack(self, metrics: list[str]) -> np.ndarray:
        """(64, n_replicates, n_metrics) responses, a new C-contiguous array;
        raises on the first metric with gaps."""
        for metric in metrics:
            if metric not in self._metrics or np.isnan(self._column(metric)).any():
                raise MissingCellsError(metric, self.missing_cells(metric))
        # a list index on the last axis gives a transposed array; its mean and
        # contrast product would round unlike those of the C-ordered stack
        return np.ascontiguousarray(self._values[:, :, [self._metrics.index(m) for m in metrics]])

    def add_aggregates(self) -> None:
        """Derive enc_avg / dec_avg for every cell that has all nine metrics,
        by :func:`aggregate_responses`'s arithmetic; a cell that already holds
        either raises :meth:`add`'s ``ValueError`` (the first such cell in
        design order) and nothing is added."""
        nine = np.stack([self._column(m) for m in _NINE], axis=-1)
        rows, reps = np.nonzero(~np.isnan(nine).any(axis=-1))
        if not rows.size:
            return
        held = ~np.isnan(np.stack([self._column(m)[rows, reps] for m in _AGGREGATES], axis=-1))
        if held.any():
            i, k = np.argwhere(held)[0]
            raise _cell_error("duplicate cell", rows[i], self._reps[reps[i]], _AGGREGATES[k])
        for metric, values in zip(_AGGREGATES, _aggregates(nine[rows, reps])):
            at = rows, reps, self._slot(self._metrics, metric, 2)  # may replace self._values
            self._values[at] = values


def _aggregates(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encoder and decoder averages of ``(runs, 9)`` values in ``_NINE``
    order: one mean over each row's 3 and one over its 6, in np.mean's order."""
    return runs[:, :3].mean(axis=-1), runs[:, 3:].mean(axis=-1)


def aggregate_responses(metrics: dict[str, float]) -> tuple[float, float]:
    """Encoder and decoder aggregate responses from one run's nine metrics."""
    missing = [m for m in _NINE if m not in metrics]
    if missing:
        raise ValueError(f"missing metrics: {', '.join(missing)}")
    (enc,), (dec,) = _aggregates(np.array([[metrics[m] for m in _NINE]]))
    return float(enc), float(dec)


def rank_effects(effects: dict[str, dict[str, float]], group: tuple[str, ...]) -> list[tuple[str, float]]:
    """Rank terms by |mean effect| over a metric group, descending.

    ``effects`` maps term -> metric -> effect value.  Ties break by term
    in lexicographic order.  Returns (term, group-average effect) pairs.
    """
    values = np.array([[per_metric[m] for m in group] for per_metric in effects.values()])
    means = values.reshape(len(effects), len(group)).mean(axis=-1).tolist()
    return sorted(zip(effects, means), key=lambda tv: (-abs(tv[1]), tv[0]))


def compute_all_effects(table: ResponseTable, metrics: list[str]) -> dict[str, dict[str, float]]:
    """Effect values for all 63 terms on each requested metric: S^T ybar / 32."""
    effects = _CONTRASTS.T @ table._stack(metrics).mean(axis=1) / (N_CONFIGS // 2)
    return {term: dict(zip(metrics, row)) for term, row in zip(_TERMS, effects.tolist())}
