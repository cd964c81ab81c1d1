import math

import numpy as np
import pytest

from tcmicro import (
    AnonymizedTable,
    AttributeSpec,
    Role,
    SynthConfig,
    Table,
    achieved_correlation,
    load_anonymized_csv,
    load_csv,
    minmax_params,
    normalized_qi,
    synth_generate,
    write_csv,
)
from tcmicro.dataset import NormalizationParams

ROLES = [
    AttributeSpec("age", Role.QUASI_IDENTIFIER),
    AttributeSpec("zip", Role.QUASI_IDENTIFIER),
    AttributeSpec("income", Role.CONFIDENTIAL),
]


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTableInvariants:
    def test_requires_confidential(self):
        specs = (AttributeSpec("a", Role.QUASI_IDENTIFIER),)
        with pytest.raises(ValueError, match="confidential"):
            Table(specs, np.array([[1.0]]))

    def test_requires_qi(self):
        specs = (AttributeSpec("a", Role.CONFIDENTIAL),)
        with pytest.raises(ValueError, match="quasi-identifier"):
            Table(specs, np.array([[1.0]]))

    def test_rejects_empty(self):
        specs = (
            AttributeSpec("a", Role.QUASI_IDENTIFIER),
            AttributeSpec("b", Role.CONFIDENTIAL),
        )
        with pytest.raises(ValueError, match="at least one record"):
            Table(specs, np.empty((0, 2)))

    def test_rejects_nan(self):
        specs = (
            AttributeSpec("a", Role.QUASI_IDENTIFIER),
            AttributeSpec("b", Role.CONFIDENTIAL),
        )
        with pytest.raises(ValueError, match="missing"):
            Table(specs, np.array([[1.0, np.nan]]))

    def test_rows_are_immutable(self):
        specs = (
            AttributeSpec("a", Role.QUASI_IDENTIFIER),
            AttributeSpec("b", Role.CONFIDENTIAL),
        )
        t = Table(specs, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            t.rows[0, 0] = 9.0


class TestLoadCsv:
    def test_all_numeric(self, tmp_path):
        path = write(tmp_path, "age,zip,income\n30,100,50\n40,200,60\n50,300,70\n")
        t = load_csv(path, ROLES)
        assert t.n == 3
        assert [s.name for s in t.specs] == ["age", "zip", "income"]
        assert t.rows[1, 2] == 60.0

    def test_blank_cell_dropped(self, tmp_path):
        path = write(tmp_path, "age,zip,income\n30,100,50\n40,,60\n50,300,70\n")
        t = load_csv(path, ROLES, drop_missing=True)
        assert t.n == 2
        assert list(t.rows[:, 0]) == [30.0, 50.0]

    def test_blank_cell_error_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "age,zip,income\n30,100,50\n40,,60\n50,300,70\n")
        with pytest.raises(ValueError, match=r"row 2, column 'zip'"):
            load_csv(path, ROLES)

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity", "1e400"])
    def test_non_finite_cell_is_missing(self, tmp_path, cell):
        path = write(tmp_path, f"age,zip,income\n30,100,50\n40,200,{cell}\n50,300,70\n")
        with pytest.raises(ValueError, match=r"row 2, column 'income'"):
            load_csv(path, ROLES)
        t = load_csv(path, ROLES, drop_missing=True)
        assert t.rows[:, 0].tolist() == [30.0, 50.0]

    def test_unknown_column(self, tmp_path):
        path = write(tmp_path, "age,zip,height\n30,100,50\n")
        with pytest.raises(ValueError, match="unknown column 'height'"):
            load_csv(path, ROLES)

    def test_declared_column_missing(self, tmp_path):
        path = write(tmp_path, "age,income\n30,50\n")
        with pytest.raises(ValueError, match="missing from file"):
            load_csv(path, ROLES)

    def test_zero_surviving_rows(self, tmp_path):
        path = write(tmp_path, "age,zip,income\n30,,50\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(path, ROLES, drop_missing=True)

    def test_cells_stripped_like_str_strip(self, tmp_path):
        # float() rejects the \x1c-\x1f separators that str.strip removes;
        # a row of whitespace-only cells is skipped like an empty line
        path = write(tmp_path, "age,zip,income\n 30 ,\x1f100\x1c,50\n \t, ,\x1c\n\n")
        t = load_csv(path, ROLES)
        assert t.rows.tolist() == [[30.0, 100.0, 50.0]]

    def test_column_order_follows_file(self, tmp_path):
        path = write(tmp_path, "income,age,zip\n50,30,100\n60,40,200\n")
        t = load_csv(path, ROLES)
        assert t.confidential_index == 0
        assert t.qi_indices == (1, 2)


class TestMinmaxParams:
    def test_single_column(self):
        t = Table(ROLES, np.array([[0.0, 5.0, 1.0], [10.0, 5.0, 2.0]]))
        p = minmax_params(t)
        assert p.mins[0] == 0.0 and p.maxs[0] == 10.0

    def test_degenerate_column_normalizes_to_zero(self):
        t = Table(ROLES, np.array([[0.0, 5.0, 1.0], [10.0, 5.0, 2.0], [4.0, 5.0, 3.0]]))
        p = minmax_params(t)
        x = normalized_qi(t, p)
        assert np.all(x[:, 1] == 0.0)

    def test_independent_per_column(self):
        t = Table(ROLES, np.array([[0.0, -3.0, 1.0], [10.0, 7.0, 2.0]]))
        p = minmax_params(t)
        assert list(p.mins) == [0.0, -3.0]
        assert list(p.maxs) == [10.0, 7.0]

    def test_normalized_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        t = Table(ROLES, rng.uniform(-100, 100, size=(40, 3)))
        x = normalized_qi(t, minmax_params(t))
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_scaled_divides_by_span_and_zeroes_constant_column(self):
        p = NormalizationParams(np.array([0.0, 5.0, -3.0]), np.array([3.0, 5.0, 0.7]))
        values = np.random.default_rng(2).uniform(-9, 9, size=(6, 3))
        out = p.scaled(values)
        assert np.all(out[:, 1] == 0.0)
        spans = p.maxs - p.mins
        for j in (0, 2):
            assert np.array_equal(out[:, j], values[:, j] / spans[j])


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        t = Table(ROLES, rng.uniform(-1e6, 1e6, size=(25, 3)))
        path = tmp_path / "out.csv"
        write_csv(t, path)
        back = load_csv(path, ROLES)
        assert np.allclose(back.rows, t.rows, atol=1e-9, rtol=0)
        assert back.specs == t.specs

    def test_anonymized_round_trip_keeps_cluster_ids(self, tmp_path):
        t = Table(ROLES, np.arange(12, dtype=float).reshape(4, 3))
        anon = AnonymizedTable(t, np.array([0, 0, 1, 1]))
        path = tmp_path / "anon.csv"
        write_csv(anon, path)
        back = load_anonymized_csv(path, ROLES)
        assert list(back.cluster_ids) == [0, 0, 1, 1]
        assert np.allclose(back.table.rows, t.rows, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("text, roles, message", [
        ("age,zip,income,cluster_id\n1,2,3,0\n4,x,6,0\n", ROLES, r"row 2, column 'zip'"),
        ("age,zip,income,cluster_id\n1,2,3,0.5\n", ROLES, r"row 1, column 'cluster_id'"),
        ("age,zip,income,cluster_id\n1,2,3,3.0\n", ROLES, r"row 1, column 'cluster_id'"),
        ("age,zip,income,cluster_id\n1,2,3,\n", ROLES, r"row 1, column 'cluster_id'"),
        ("age,income,cluster_id\n1,3,0\n", ROLES, "declared columns missing from file"),
        ("age,zip,income,cluster_id\n1,2,3,0\n", ROLES + ROLES[:1], "duplicate attribute"),
        ("age,zip,income\n1,2,3\n", ROLES, "trailing cluster_id column"),
        ("age,zip,income,cluster_id\n1,2,3,0\n1,2,4,99999999999999999999\n", ROLES,
         r"row 2, column 'cluster_id'"),
        ("age,age,income,cluster_id\n1,2,3,0\n", [ROLES[0], ROLES[2]],
         "duplicate column 'age' in file header"),
    ], ids=["bad-cell", "fractional-id", "integral-float-id", "empty-id", "missing-column",
            "duplicate-role", "no-cluster-id", "oversized-id", "duplicate-column"])
    def test_bad_release_rejected(self, tmp_path, text, roles, message):
        path = write(tmp_path, text)
        with pytest.raises(ValueError, match=message):
            load_anonymized_csv(path, roles)


class TestSynth:
    def test_target_correlation_mcd(self):
        cfg = SynthConfig(n=1080, qi_count=2, target_correlation=0.52, seed=7)
        t = synth_generate(cfg)
        assert 0.47 <= achieved_correlation(t) <= 0.57

    def test_zero_correlation(self):
        t = synth_generate(SynthConfig(n=500, qi_count=3, target_correlation=0.0, seed=3))
        assert abs(achieved_correlation(t)) <= 0.05

    def test_deterministic(self):
        cfg = SynthConfig(n=200, qi_count=2, target_correlation=0.3, seed=99)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert np.array_equal(a.rows, b.rows)

    def test_rho_out_of_range(self):
        for rho in (1.5, math.nan):
            with pytest.raises(ValueError, match=r"correlation must lie in \[-1, 1\]"):
                SynthConfig(n=10, qi_count=1, target_correlation=rho, seed=0)

    def test_high_correlation_with_skew(self):
        t = synth_generate(SynthConfig(n=1080, qi_count=2, target_correlation=0.92, seed=1))
        assert 0.87 <= achieved_correlation(t) <= 0.97
