"""Replicated two-level full factorial design over six binary factors.

Configurations are the 64 vertices of the factor hypercube, indexed so that
factor A is the least significant bit and F the most significant
(row = 32F + 16E + 8D + 4C + 2B + A), with labels like ``A1B0C1D0E0F0``.
The design table is built once, at import: a :class:`FactorConfig` is its
row, a label resolves through one lookup (surrounding whitespace ignored),
and :class:`ResponseTable` keys each cell by the canonical label and rejects
a repeated (config, replicate, metric).

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


def _row(label: str) -> int:
    """Design row of a label; surrounding whitespace is ignored."""
    try:
        return _ROW[label.strip()]
    except KeyError:
        raise ValueError(f"bad config label {label.strip()!r}") from None


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


def _duplicate_cell(label: str, replicate: int, metric: str) -> ValueError:
    return ValueError(f"duplicate cell ({label}, r{replicate}, {metric})")


class ResponseTable:
    """(config, replicate) -> {metric: value} storage for the design."""

    def __init__(self):
        self._cells: dict[tuple[str, int], dict[str, float]] = {}

    def add(self, config: FactorConfig | str, replicate: int, metric: str, value: float) -> None:
        """Store one value under the canonical label; a repeated cell raises ``ValueError``."""
        label = _LABELS[_row(config) if isinstance(config, str) else config.index]
        cell = self._cells.setdefault((label, replicate), {})
        if metric in cell:
            raise _duplicate_cell(label, replicate, metric)
        cell[metric] = float(value)

    @classmethod
    def from_rows(cls, rows) -> "ResponseTable":
        table = cls()
        for config, replicate, metric, value in rows:
            table.add(config, replicate, metric, value)
        return table

    @property
    def replicates(self) -> list[int]:
        return sorted({r for _, r in self._cells})

    def metrics(self) -> list[str]:
        names: set[str] = set()
        for cell in self._cells.values():
            names.update(cell)
        return sorted(names)

    def value(self, label: str, replicate: int, metric: str) -> float:
        return self._cells[(label, replicate)][metric]

    def missing_cells(self, metric: str) -> list[tuple[str, int]]:
        reps = self.replicates
        return [(label, rep) for label in _LABELS for rep in reps
                if metric not in self._cells.get((label, rep), ())]

    def responses(self, metric: str) -> np.ndarray:
        """(64, n_replicates) response matrix in row-index order."""
        return self._stack([metric])[:, :, 0]

    def _stack(self, metrics: list[str]) -> np.ndarray:
        """(64, n_replicates, n_metrics) responses; raises on the first metric with gaps."""
        for metric in metrics:
            missing = self.missing_cells(metric)
            if missing:
                raise MissingCellsError(metric, missing)
        reps = self.replicates
        values = [self._cells[(label, r)][m] for label in _LABELS for r in reps for m in metrics]
        return np.array(values, dtype=float).reshape(N_CONFIGS, len(reps), len(metrics))

    def add_aggregates(self) -> None:
        """Derive enc_avg / dec_avg for every cell that has all nine metrics,
        by :func:`aggregate_responses`'s arithmetic; a cell that already holds
        either raises :meth:`add`'s ``ValueError`` and nothing is added."""
        cells = {key: cell for key, cell in self._cells.items()
                 if all(m in cell for m in ENCODER_METRICS + DECODER_METRICS)}
        for key, cell in cells.items():
            for metric in ("enc_avg", "dec_avg"):
                if metric in cell:
                    raise _duplicate_cell(*key, metric)
        for cell, e, d in zip(cells.values(), *_aggregates(list(cells.values()))):
            cell.update(enc_avg=e, dec_avg=d)


def _aggregates(runs: list[dict[str, float]]) -> tuple[list[float], list[float]]:
    """Encoder and decoder averages of runs holding all nine metrics: one
    (runs, 3) and one (runs, 6) mean, each row summed in np.mean's order."""
    return tuple(np.mean(np.array([[run[m] for m in group] for run in runs])
                         .reshape(len(runs), len(group)), axis=-1).tolist()
                 for group in (ENCODER_METRICS, DECODER_METRICS))


def aggregate_responses(metrics: dict[str, float]) -> tuple[float, float]:
    """Encoder and decoder aggregate responses from one run's nine metrics."""
    missing = [m for m in ENCODER_METRICS + DECODER_METRICS if m not in metrics]
    if missing:
        raise MissingCellsError("aggregate", [(m, -1) for m in missing])
    (enc,), (dec,) = _aggregates([metrics])
    return enc, dec


def rank_effects(effects: dict[str, dict[str, float]], group: tuple[str, ...]) -> list[tuple[str, float]]:
    """Rank terms by |mean effect| over a metric group, descending.

    ``effects`` maps term -> metric -> effect value.  Ties break by term
    in lexicographic order.  Returns (term, group-average effect) pairs.
    """
    rows = [(term, float(np.mean([per_metric[m] for m in group])))
            for term, per_metric in effects.items()]
    return sorted(rows, key=lambda tv: (-abs(tv[1]), tv[0]))


def compute_all_effects(table: ResponseTable, metrics: list[str]) -> dict[str, dict[str, float]]:
    """Effect values for all 63 terms on each requested metric: S^T ybar / 32."""
    effects = _CONTRASTS.T @ table._stack(metrics).mean(axis=1) / (N_CONFIGS // 2)
    return {term: dict(zip(metrics, map(float, row))) for term, row in zip(_TERMS, effects)}
