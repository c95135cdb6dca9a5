import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrack.factorial import (
    DECODER_METRICS,
    ENCODER_METRICS,
    FactorConfig,
    MissingCellsError,
    ResponseTable,
    aggregate_responses,
    all_terms,
    compute_all_effects,
    contrast_sign,
    enumerate_configs,
    rank_effects,
)
from balltrack.factorial import _CONTRASTS


def _planted_table(n_reps=4, coefficients=None, intercept=3.0):
    """Responses from a known linear model in contrast units, zero noise."""
    coefficients = coefficients or {"A": 2.0, "BC": -1.0}
    table = ResponseTable()
    for config in enumerate_configs():
        y = intercept
        for term, coef in coefficients.items():
            y += coef * contrast_sign(config, term)
        for rep in range(n_reps):
            table.add(config, rep, "err", y)
    return table


class TestConfigs:
    def test_sixty_four_configs(self):
        assert len(enumerate_configs()) == 64

    def test_row_zero_all_low(self):
        assert enumerate_configs()[0].label == "A0B0C0D0E0F0"

    def test_row_sixty_three_all_high(self):
        assert enumerate_configs()[63].label == "A1B1C1D1E1F1"

    def test_row_index_bit_layout(self):
        # row = 32F + 16E + 8D + 4C + 2B + A
        assert FactorConfig(44).label == "A0B0C1D1E0F1"
        assert FactorConfig(12).label == "A0B0C1D1E0F0"
        assert FactorConfig(7).label == "A1B1C1D0E0F0"

    def test_label_round_trip(self):
        for config in enumerate_configs():
            assert FactorConfig.from_label(config.label) == config
            assert FactorConfig.from_label(config.label).index == config.index

    def test_bad_labels_rejected(self):
        for label in ("A0B0C1D1E0", "Z0B0C1D1E0F1", "A2B0C1D1E0F1"):
            with pytest.raises(ValueError):
                FactorConfig.from_label(label)

    def test_padded_label_resolves_to_its_row(self):
        config = FactorConfig.from_label(" A1B0C0D0E0F1\t")
        assert config == FactorConfig(33)
        assert config.label == "A1B0C0D0E0F1"
        assert config["A"] and config["F"] and not config["B"]

    @pytest.mark.parametrize("index", [-1, 64])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="out of range"):
            FactorConfig(index)


class TestContrasts:
    def test_single_factor_sign(self):
        high = FactorConfig.from_label("A0B0C1D0E0F0")
        assert contrast_sign(high, "C") == 1
        assert contrast_sign(high, "A") == -1

    def test_interaction_product_rule(self):
        config = FactorConfig.from_label("A1B0C0D0E0F0")
        assert contrast_sign(config, "AB") == -1
        all_high = FactorConfig.from_label("A1B1C1D1E1F1")
        assert contrast_sign(all_high, "ABC") == 1

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            contrast_sign(enumerate_configs()[0], "")

    def test_all_63_terms(self):
        terms = all_terms()
        assert len(terms) == 63
        assert "A" in terms and "ABCDEF" in terms
        assert len(set(terms)) == 63

    def test_contrast_vectors_pairwise_orthogonal(self):
        configs = enumerate_configs()
        vectors = {t: np.array([contrast_sign(c, t) for c in configs]) for t in all_terms()}
        terms = all_terms()
        for i, a in enumerate(terms):
            for b in terms[i + 1:]:
                assert int(vectors[a] @ vectors[b]) == 0


class TestEffectEstimate:
    def test_pure_indicator_response(self):
        table = ResponseTable()
        for config in enumerate_configs():
            table.add(config, 0, "err", 1.0 if config["C"] else -1.0)
        assert compute_all_effects(table, ["err"])["C"]["err"] == pytest.approx(2.0)

    def test_constant_response_all_effects_zero(self):
        table = ResponseTable()
        for config in enumerate_configs():
            for rep in range(2):
                table.add(config, rep, "err", 5.5)
        effects = compute_all_effects(table, ["err"])
        for term in ("A", "F", "ABC", "ABCDEF"):
            assert effects[term]["err"] == 0.0

    def test_planted_model_recovered_exactly(self):
        table = _planted_table(coefficients={"A": 2.0, "BC": -1.0})
        effects = compute_all_effects(table, ["err"])
        assert effects["A"]["err"] == pytest.approx(4.0, abs=1e-12)
        assert effects["BC"]["err"] == pytest.approx(-2.0, abs=1e-12)
        for term, vals in effects.items():
            if term not in ("A", "BC"):
                assert abs(vals["err"]) < 1e-12

    def test_estimator_linearity(self):
        t1 = _planted_table(coefficients={"D": 1.5})
        t2 = _planted_table(coefficients={"D": -0.5, "EF": 2.0})
        combined = ResponseTable()
        for config in enumerate_configs():
            for rep in range(4):
                y = t1.value(config.label, rep, "err") + t2.value(config.label, rep, "err")
                combined.add(config, rep, "err", y)
        e1, e2, both = (compute_all_effects(t, ["err"]) for t in (t1, t2, combined))
        for term in ("D", "EF", "A"):
            s = e1[term]["err"] + e2[term]["err"]
            assert both[term]["err"] == pytest.approx(s, abs=1e-12)

    def test_matches_contrast_sum_formula(self):
        # definition check: (1 / (n 2^{k-1})) sum_ij x_iK y_ij
        table = _planted_table(coefficients={"AB": 0.7, "C": -0.3}, n_reps=3)
        y = table.responses("err")
        signs = np.array([contrast_sign(c, "AB") for c in enumerate_configs()])
        n = y.shape[1]
        direct = float((signs[:, None] * y).sum() / (n * 32))
        assert compute_all_effects(table, ["err"])["AB"]["err"] == pytest.approx(direct, abs=1e-12)

    def test_missing_cells_reported_by_name(self):
        # a two-replicate grid with one cell never written
        table = ResponseTable.from_rows((c.label, rep, "err", 1.0) for c in enumerate_configs()
                                        for rep in range(2) if (c.index, rep) != (0, 1))
        with pytest.raises(MissingCellsError) as err:
            compute_all_effects(table, ["err"])
        assert "A0B0C0D0E0F0" in str(err.value)
        assert err.value.missing == [("A0B0C0D0E0F0", 1)]

    def test_many_missing_cells_previewed(self):
        # replicate 1 never written for configs 0..9: ten gaps, eight named
        table = ResponseTable.from_rows((c.label, rep, "err", 1.0) for c in enumerate_configs()
                                        for rep in range(2) if rep == 0 or c.index >= 10)
        with pytest.raises(MissingCellsError) as err:
            compute_all_effects(table, ["err"])
        named = ", ".join(f"({c.label}, r1)" for c in enumerate_configs()[:8])
        assert str(err.value) == f"metric 'err' missing 10 cells: {named}, ... 2 more"
        assert len(err.value.missing) == 10


def _loop_effect(table, term, metric):
    """Per-term reference: mean response at the high contrast minus at the low."""
    configs = enumerate_configs()
    y = np.array([[table.value(c.label, r, metric) for r in table.replicates] for c in configs])
    signs = np.array([contrast_sign(c, term) for c in configs])
    return y[signs == 1].mean() - y[signs == -1].mean()


class TestContrastProduct:
    def test_matches_per_term_loop_on_random_table(self):
        rng = np.random.default_rng(2604)
        metrics = ["m0", "m1", "m2", "m3"]
        table = ResponseTable()
        for config in enumerate_configs():
            for rep in range(3):
                for m in metrics:
                    table.add(config, rep, m, rng.normal(2.0, 5.0))
        effects = compute_all_effects(table, metrics)
        assert list(effects) == all_terms()
        for term in all_terms():
            assert list(effects[term]) == metrics
            for m in metrics:
                assert abs(effects[term][m] - _loop_effect(table, term, m)) <= 1e-12

    def test_responses_and_effect_estimate_are_views(self):
        table = _planted_table(n_reps=3, coefficients={"AB": 0.7, "F": -0.3})
        y = table.responses("err")
        assert y.shape == (64, 3)
        for config in enumerate_configs():
            for rep in range(3):
                assert y[config.index, rep] == table.value(config.label, rep, "err")
        ybar = y.mean(axis=1)
        effects = compute_all_effects(table, ["err"])
        for term in ("AB", "F", "CDE"):
            signs = np.array([contrast_sign(c, term) for c in enumerate_configs()])
            assert effects[term]["err"] == pytest.approx(signs @ ybar / 32, abs=1e-12)

    def test_first_incomplete_metric_in_request_order_named(self):
        gaps = {("A1B0C0D0E0F0", 0, "b"), ("A0B1C0D0E0F0", 1, "c"), ("A1B1C1D1E1F1", 0, "c")}
        table = ResponseTable()
        for config in enumerate_configs():
            for rep in range(2):
                for m in ("a", "b", "c"):
                    if (config.label, rep, m) not in gaps:
                        table.add(config, rep, m, 1.0)
        with pytest.raises(MissingCellsError) as err:
            compute_all_effects(table, ["a", "c", "b"])
        assert err.value.metric == "c"
        assert err.value.missing == [("A0B1C0D0E0F0", 1), ("A1B1C1D1E1F1", 0)]
        with pytest.raises(MissingCellsError) as err:
            compute_all_effects(table, ["a", "b", "c"])
        assert err.value.metric == "b"
        assert err.value.missing == [("A1B0C0D0E0F0", 0)]


class TestEffectBits:
    """The effects keep the bits of the product over a C-ordered stack."""

    METRICS = ["m3", "m0", "m2", "m1", "m4"]  # requested out of the table's sorted order

    def _rows_and_stack(self, n_reps):
        rng = np.random.default_rng(1937 + n_reps)
        y = np.empty((64, n_reps, len(self.METRICS)))  # C-ordered, filled by a plain loop
        rows = []
        for config in enumerate_configs():
            for rep in range(n_reps):
                for k, m in enumerate(self.METRICS):
                    y[config.index, rep, k] = float(rng.lognormal(0.0, 3.0)) * rng.choice([-1, 1])
                    rows.append((config.label, rep, m, y[config.index, rep, k]))
        rng.shuffle(rows)
        return rows, y

    @pytest.mark.parametrize("n_reps", [1, 3, 4])
    def test_effects_are_the_contrast_product_of_the_stack(self, n_reps):
        rows, y = self._rows_and_stack(n_reps)
        assert y.flags.c_contiguous
        want = _CONTRASTS.T @ y.mean(axis=1) / 32
        effects = compute_all_effects(ResponseTable.from_rows(rows), self.METRICS)
        got = np.array([[effects[t][m] for m in self.METRICS] for t in all_terms()])
        assert got.tobytes() == want.tobytes()

    def test_rank_effects_is_the_per_term_mean(self):
        rows, _ = self._rows_and_stack(3)
        effects = compute_all_effects(ResponseTable.from_rows(rows), self.METRICS)
        for group in (("m0",), ("m2", "m0", "m4"), tuple(self.METRICS)):
            want = sorted(((t, float(np.mean([effects[t][m] for m in group]))) for t in all_terms()),
                          key=lambda tv: (-abs(tv[1]), tv[0]))
            got = rank_effects(effects, group)
            assert [(t, v.hex()) for t, v in got] == [(t, v.hex()) for t, v in want]


class TestResponseTable:
    def test_padded_label_lands_in_the_canonical_cell(self):
        table = ResponseTable()
        table.add(" A1B0C0D0E0F0 ", 0, "err", 1.5)
        assert (table.replicates, table.metrics()) == ([0], ["err"])
        assert table.missing_cells("err") == [(c.label, 0) for c in enumerate_configs() if c.index != 1]
        assert table.value("A1B0C0D0E0F0", 0, "err") == 1.5
        assert ("A1B0C0D0E0F0", 0) not in table.missing_cells("err")

    @staticmethod
    def _outcome(build):
        """The error text of ``build()``, or the table's keys and held values."""
        try:
            table = build()
        except ValueError as err:
            return str(err)
        held = {(c.label, r, m): table.value(c.label, r, m) for m in "ab" for c in enumerate_configs()
                for r in table.replicates if (c.label, r) not in table.missing_cells(m)}
        return table.replicates, table.metrics(), held

    @staticmethod
    def _by_row(rows):
        table = ResponseTable()
        for config, replicate, metric, value in rows:
            table.add(config, replicate, metric, value)
        return table

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["A0B0C0D0E0F0", " A1B0C0D0E0F0", "ZZ"]),
                                   st.integers(0, 2), st.sampled_from(["b", "a"]),
                                   st.one_of(st.floats(), st.just("x"))), max_size=12))
    def test_from_rows_matches_add_on_any_rows(self, rows):
        columns = tuple(zip(*rows)) or ((),) * 4
        want = self._outcome(lambda: self._by_row(rows))
        assert self._outcome(lambda: ResponseTable.from_rows(rows)) == want
        assert self._outcome(lambda: ResponseTable.from_columns(*columns)) == want

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["A0B0C0D0E0F0", " A1B0C0D0E0F0"]), st.integers(0, 2),
                                   st.sampled_from(["b", "a"]), st.floats()), min_size=1, max_size=12))
    def test_float_array_of_values_matches_their_list(self, rows):
        configs, reps, metrics, values = zip(*rows)
        as_array = np.array(values, dtype=np.float64)
        assert self._outcome(lambda: ResponseTable.from_columns(configs, reps, metrics, as_array)) == \
               self._outcome(lambda: ResponseTable.from_columns(configs, reps, metrics, values))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=r"^columns of unequal length: 2, 2, 1, 2$"):
            ResponseTable.from_columns(["A0B0C0D0E0F0"] * 2, [0, 1], ["a"], np.ones(2))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["A0B0C0D0E0F0", " A1B0C0D0E0F0"]), st.integers(0, 2),
                                   st.sampled_from(["b", "a"]), st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=12),
           bad=st.sampled_from([math.nan, math.inf, -math.inf, 10**400]), data=st.data())
    def test_from_rows_is_adding_row_by_row(self, rows, bad, data):
        # a clean row list with one value made NaN, +-inf or too large for a
        # float: both paths raise at the first fault in row order, the bad value
        # or a repeated cell before it, and name its cell
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at] = (*rows[at][:3], bad)
        seen, want = set(), None
        for config, replicate, metric, value in rows:
            cell = f"({config.strip()}, r{replicate}, {metric})"
            if value is bad:
                want = (f"value too large for a float in cell {cell}" if isinstance(bad, int)
                        else f"value {bad!r} is not finite in cell {cell}")
            elif cell in seen:
                want = f"duplicate cell {cell}"
            seen.add(cell)
            if want:
                break
        assert self._outcome(lambda: ResponseTable.from_rows(rows)) == want
        assert self._outcome(lambda: ResponseTable.from_columns(*zip(*rows))) == want
        assert self._outcome(lambda: self._by_row(rows)) == want

    def test_too_large_integer_raises_and_names_the_cell(self):
        # float(10**400) overflows; the error is add's ValueError naming the cell
        cell = r"value too large for a float in cell \(A0B0C0D0E0F0, r0, a\)"
        with pytest.raises(ValueError, match=cell):
            ResponseTable().add("A0B0C0D0E0F0", 0, "a", 10**400)
        with pytest.raises(ValueError, match=cell):
            ResponseTable.from_rows([("A0B0C0D0E0F0", 0, "a", 10**400)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_and_names_the_cell(self, value):
        cell = rf"value {value!r} is not finite in cell \(A1B0C0D0E0F0, r2, err\)"
        table = ResponseTable()
        with pytest.raises(ValueError, match=cell):
            table.add(" A1B0C0D0E0F0", 2, "err", value)
        rows = [(c.label, 2, "err", value if c.index == 1 else 1.0) for c in enumerate_configs()]
        with pytest.raises(ValueError, match=cell):
            ResponseTable.from_rows(rows)

    def test_clean_rows_are_scattered_without_add(self, monkeypatch):
        rows = [(f" {c.label}" if c.index % 2 else c, rep, m, float(c.index + rep))
                for c in enumerate_configs() for rep in (2, 0) for m in ("b", "a")]

        def refuse(*args):
            raise AssertionError("a clean row went through add")

        monkeypatch.setattr(ResponseTable, "add", refuse)
        configs, reps, metrics, values = zip(*rows)
        for table in (ResponseTable.from_rows(rows),
                      ResponseTable.from_columns(configs, reps, metrics, np.array(values))):
            assert (table.replicates, table.metrics()) == ([0, 2], ["a", "b"])
            assert table.responses("a").tolist() == [[float(i), float(i + 2)] for i in range(64)]

    @pytest.mark.parametrize("config", [" A1B0C0D0E0F0", FactorConfig(1)], ids=["padded", "config"])
    def test_value_resolves_its_config_as_add_does(self, config):
        table = ResponseTable()
        table.add(config, 0, "err", 1.5)
        assert table.value(config, 0, "err") == table.value("A1B0C0D0E0F0", 0, "err") == 1.5
        for key in ((config, 0, "other"), (config, 1, "err"), ("A0B0C0D0E0F0", 0, "err"), ("ZZ", 0, "err")):
            with pytest.raises(KeyError) as err:
                table.value(*key)
            assert err.value.args == (key,)

    def test_padded_labels_fill_the_grid(self):
        rows = [(f" {c.label}", 0, "err", float(c.index)) for c in enumerate_configs()]
        table = ResponseTable.from_rows(rows)
        assert table.missing_cells("err") == []
        assert list(table.responses("err")[:, 0]) == [float(i) for i in range(64)]

    @pytest.mark.parametrize("again", ["A1B0C0D0E0F0", " A1B0C0D0E0F0", FactorConfig(1)],
                             ids=["label", "padded", "config"])
    def test_duplicate_cell_raises_and_names_it(self, again):
        table = ResponseTable()
        table.add("A1B0C0D0E0F0", 2, "err", 1.0)
        with pytest.raises(ValueError, match=r"duplicate cell \(A1B0C0D0E0F0, r2, err\)"):
            table.add(again, 2, "err", 2.0)
        assert table.value("A1B0C0D0E0F0", 2, "err") == 1.0

    def test_same_cell_other_metric_or_replicate_accepted(self):
        table = ResponseTable()
        table.add("A1B0C0D0E0F0", 0, "err", 1.0)
        table.add("A1B0C0D0E0F0", 0, "other", 2.0)
        table.add("A1B0C0D0E0F0", 1, "err", 3.0)
        assert table.value("A1B0C0D0E0F0", 1, "err") == 3.0


class TestAggregates:
    def test_encoder_average_of_equal_metrics(self):
        metrics = {m: 1.14 for m in ENCODER_METRICS}
        metrics.update({m: 0.5 for m in DECODER_METRICS})
        enc, dec = aggregate_responses(metrics)
        assert enc == pytest.approx(1.14)
        assert dec == pytest.approx(0.5)

    def test_simple_mean(self):
        metrics = {"B56": 0.0, "H56": 3.0, "P56": 6.0}
        metrics.update({m: 1.0 for m in DECODER_METRICS})
        enc, _ = aggregate_responses(metrics)
        assert enc == 3.0

    def test_missing_metric_rejected(self):
        with pytest.raises(ValueError, match=r"^missing metrics: H56, P56, B112, B224, H112, H224, "
                                             r"P112, P224$"):
            aggregate_responses({"B56": 1.0})

    def test_add_aggregates_to_table(self):
        table = ResponseTable()
        for config in enumerate_configs():
            for m in ENCODER_METRICS:
                table.add(config, 0, m, 2.0)
            for m in DECODER_METRICS:
                table.add(config, 0, m, 4.0)
        table.add_aggregates()
        assert table.value("A0B0C0D0E0F0", 0, "enc_avg") == 2.0
        assert table.value("A0B0C0D0E0F0", 0, "dec_avg") == 4.0

    @pytest.mark.parametrize("supplied", ["enc_avg", "dec_avg"])
    def test_supplied_aggregate_is_a_duplicate_cell(self, supplied):
        table = ResponseTable()
        for m in ENCODER_METRICS + DECODER_METRICS:
            table.add("A1B0C0D0E0F0", 3, m, 1.0)
        table.add("A1B0C0D0E0F0", 3, supplied, 99.0)
        with pytest.raises(ValueError, match=rf"duplicate cell \(A1B0C0D0E0F0, r3, {supplied}\)"):
            table.add_aggregates()
        assert table.value("A1B0C0D0E0F0", 3, supplied) == 99.0

    # cells listed against design order: (row 2, r0) first, (row 1, r1) last; the first
    # offending cell in design order (config row, then replicate) is (row 1, r1)
    _CELLS = [("A0B1C0D0E0F0", 0), ("A1B0C0D0E0F0", 0), ("A1B0C0D0E0F0", 1)]
    _ROWS = [(label, rep, m, 1.0) for label, rep in _CELLS for m in ENCODER_METRICS + DECODER_METRICS]
    _ROWS += [("A0B1C0D0E0F0", 0, "enc_avg", 5.0), ("A1B0C0D0E0F0", 1, "dec_avg", 6.0)]

    def test_first_duplicate_in_cell_order_is_raised(self):
        table = ResponseTable()
        for row in self._ROWS:
            table.add(*row)
        with pytest.raises(ValueError, match=r"duplicate cell \(A1B0C0D0E0F0, r1, dec_avg\)"):
            table.add_aggregates()

    def test_first_duplicate_in_row_order_from_rows(self):
        with pytest.raises(ValueError, match=r"duplicate cell \(A1B0C0D0E0F0, r1, dec_avg\)"):
            ResponseTable.from_rows(self._ROWS).add_aggregates()

    def test_table_aggregates_are_bitwise_per_cell_means(self):
        rng = np.random.default_rng(64)
        table = ResponseTable()
        for config in enumerate_configs():
            for rep in range(3):
                for m in ENCODER_METRICS + DECODER_METRICS:
                    table.add(config, rep, m, float(rng.lognormal(0.0, 2.0)))
        table.add(FactorConfig(0), 3, "B56", 1.0)  # incomplete: left alone
        table.add_aggregates()
        for config in enumerate_configs():
            for rep in range(3):
                cell = {m: table.value(config.label, rep, m) for m in ENCODER_METRICS + DECODER_METRICS}
                enc, dec = aggregate_responses(cell)
                assert type(table.value(config.label, rep, "enc_avg")) is float
                assert table.value(config.label, rep, "enc_avg").hex() == enc.hex()
                assert table.value(config.label, rep, "dec_avg").hex() == dec.hex()
        assert table.missing_cells("enc_avg") == [(c.label, 3) for c in enumerate_configs()]


class TestRanking:
    def test_planted_dominant_effect_ranks_first(self):
        table = ResponseTable()
        for config in enumerate_configs():
            y = 10.0 * contrast_sign(config, "E") + 0.5 * contrast_sign(config, "AB")
            for m in ENCODER_METRICS:
                table.add(config, 0, m, y)
        effects = compute_all_effects(table, list(ENCODER_METRICS))
        ranked = rank_effects(effects, ENCODER_METRICS)
        assert ranked[0][0] == "E"
        assert ranked[0][1] == pytest.approx(20.0)
        assert len(ranked) == 63

    def test_tie_breaks_lexicographically(self):
        effects = {t: {"m": 0.0} for t in all_terms()}
        effects["B"]["m"] = 1.0
        effects["AC"]["m"] = -1.0
        ranked = rank_effects(effects, ("m",))
        assert [t for t, _ in ranked[:2]] == ["AC", "B"]

