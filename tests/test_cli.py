import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import becphase
from becphase import Table, emit, parse_config, run_scenario, validation_report
from becphase import cli, geomphase
from becphase.density import PATH_CHUNK_POINTS, BlockEntries, Scenario
from becphase.entanglement import macro_phase_relation, special_point_intensity
from becphase.geomphase import weak_coupling_phase, weak_coupling_phase_limit
from becphase.cli import _fmt, main
from oracles import emit_rowwise

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.001, "alpha": 1.0, "eta0": 0.3}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports becphase from this source tree."""
    src = str(Path(becphase.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


def cfg_text(**overrides) -> str:
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(cfg_text())
        assert cfg.n_steps == 256
        assert cfg.phase_tol == 1e-7
        assert cfg.degeneracy_tol == 1e-9
        assert cfg.params.j_vdw == 0.0

    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match="unknown configuration keys: blah, zeta"):
            parse_config(cfg_text(blah=1, zeta=2))

    def test_missing_mandatory_named(self):
        doc = dict(MINIMAL)
        del doc["eta0"]
        with pytest.raises(ValueError, match="missing: eta0"):
            parse_config(json.dumps(doc))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            parse_config(cfg_text(scenario="bogus"))

    def test_coefficient_norm_rejected_with_value(self):
        doc = {
            "scenario": "general",
            "omega": 1.0,
            "lambda_c": 0.01,
            "alpha": 1.0,
            "coefficients": [[0.3, 0.0], [0.9, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(ValueError, match=r"sum \|c_i\|\^2 = 1.*0.9"):
            parse_config(json.dumps(doc))

    def test_complex_alpha_forms(self):
        cfg = parse_config(cfg_text(alpha=[1.0, 0.5]))
        assert cfg.params.alpha == complex(1.0, 0.5)
        cfg = parse_config(cfg_text(alpha=2))
        assert cfg.params.alpha == complex(2.0)

    def test_sweep_block(self):
        cfg = parse_config(
            cfg_text(sweep={"variable": "concurrence", "start": 0.0, "stop": 0.99, "count": 50})
        )
        assert cfg.sweep.count == 50
        assert cfg.sweep.variable == "concurrence"

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="sweep variable"):
            parse_config(cfg_text(sweep={"variable": "zeta", "start": 0, "stop": 1, "count": 5}))
        with pytest.raises(ValueError, match="sweep requires"):
            parse_config(cfg_text(sweep={"variable": "concurrence"}))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            parse_config(cfg_text(grid={"n_steps": 7}))
        with pytest.raises(ValueError, match="unknown grid keys"):
            parse_config(cfg_text(grid={"nstep": 8}))

    def test_grid_bound_is_the_finest_default_grid(self):
        # the finest start grid that converge_phase can still double
        cfg = parse_config(cfg_text(grid={"n_steps": geomphase.MAX_STEPS // 2}))
        assert cfg.n_steps == 1_048_576
        with pytest.raises(ValueError, match="n_steps must be at most 1048576"):
            replace(cfg, n_steps=geomphase.MAX_STEPS // 2 + 2)
        with pytest.raises(geomphase.ConvergenceError, match="no doubling"):
            geomphase.converge_phase(lambda n: None, n_start=geomphase.MAX_STEPS // 2 + 2)

    def test_not_json(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_config("scenario: micro")

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            parse_config(path.read_text())


SWEEP = {"variable": "concurrence", "start": 0.0, "stop": 0.5, "count": 3}

# Every key that parse_config reads as a number, as a path into the document.
NUMERIC_KEYS = (
    ("omega",), ("j_vdw",), ("omega_b",), ("chi",), ("lambda_c",), ("alpha",), ("eta0",),
    ("phase",), ("grid", "n_steps"), ("grid", "phase_tol"), ("grid", "degeneracy_tol"),
    ("sweep", "start"), ("sweep", "stop"), ("sweep", "count"),
)


def doc_with(path: tuple[str, ...], value) -> dict:
    doc = dict(MINIMAL, grid={}, sweep=dict(SWEEP))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=5) | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(NUMERIC_KEYS), value=JSON_VALUES)
def test_any_json_value_in_a_numeric_key_parses_or_is_a_value_error(path, value):
    try:
        parse_config(json.dumps(doc_with(path, value)))
    except ValueError:
        pass


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"omega": None}, "omega"),
        ({"eta0": None}, "eta0"),
        ({"eta0": math.nan}, "eta0"),
        ({"grid": {"n_steps": None}}, "n_steps"),
        ({"grid": {"n_steps": 2.5}}, "n_steps"),
        ({"sweep": dict(SWEEP, count=None)}, "count"),
        ({"output": {"path": 5}}, "unknown configuration keys: output"),
        ({"grid": {"phase_tol": -1}}, "grid.phase_tol"),
        ({"grid": {"phase_tol": 0}}, "grid.phase_tol"),
        ({"grid": {"degeneracy_tol": -1e-9}}, "grid.degeneracy_tol"),
        ({"grid": {"tail_tol": 1e-12}}, "unknown grid keys: tail_tol"),
    ],
    ids=["omega-null", "eta0-null", "eta0-nan", "n_steps-null", "n_steps-2.5", "count-null",
         "path-5", "phase_tol-negative", "phase_tol-zero", "degeneracy_tol-negative",
         "tail_tol-removed"],
)
def test_malformed_number_exits_1_naming_the_key(tmp_path, capsys, overrides, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(cfg_text(**overrides))
    assert main(["phase", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["phase", "validate"])
def test_deeply_nested_config_exits_1_with_one_line(tmp_path, capsys, verb):
    # json.loads runs out of recursion depth on 1,000 nested lists
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": "micro_micro", "alpha": ' + "[" * 1000 + "]" * 1000 + "}")
    assert main([verb, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: configuration is not valid JSON: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 2.0**-1074, -7.25e17, math.nan, math.inf])
def test_fmt_float_fast_path_matches_numpy_scalars(value):
    assert _fmt(np.float64(value)) == _fmt(value) == f"{value:.17g}"


class TestEmit:
    def test_three_rows_make_four_lines(self):
        table = Table({"a[1]": np.array([1.0, 3.0, 5.0]), "b[1]": np.array([2.0, 4.0, 6.0])})
        text = emit(table, "csv")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 4

    def test_empty_table_errors(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            emit(Table({"a": []}), "csv", str(out))
        assert not out.exists()

    def test_seventeen_digit_round_trip(self):
        values = [math.pi, 1 / 3, 2e-17, 123456.789012345678, -math.e]
        table = Table({"v[1]": np.array(values)})
        text = emit(table, "csv")
        parsed = [float(line) for line in text.splitlines()[1:]]
        assert parsed == values

    def test_tsv(self):
        table = Table({"a[1]": [1.0], "b[1]": [2.0]})
        assert "\t" in emit(table, "tsv")

    def test_bad_format(self):
        with pytest.raises(ValueError):
            emit(Table({"a": [1.0]}), "xml")

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_columns_render_as_rows_do(self, fmt):
        # float, mixed and string columns; cells that need quoting in either format
        # and cells holding % conversions, which must stay arguments of the row format
        strings = [
            "", "plain", "a,b", "tab\there", 'say "x"', "two\nlines", "cr\r", " pad ",
            "100%", "%s", "%(x)d",
        ]
        mixed = [1.5, "", None, 7, np.int64(-3), np.float64(2.5), True, math.nan, "%%", "%.17g", -2.0]
        t = np.arange(len(strings)) * 0.1
        t[0] = -0.0
        t[1] = math.inf
        table = Table({"t[1]": t, "mixed": mixed, "text": strings, "warnings": "w; x, y"})
        assert emit(table, fmt) == emit_rowwise(table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_float_array_renders_as_its_floats_do(self, fmt):
        values = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 2.0**-1074, 1e-300, -7.25e17, 1 / 3]
        table = Table({"v[1]": np.array(values), "w[1]": np.array(values[::-1])})
        floats = Table({"v[1]": values, "w[1]": values[::-1]})
        assert emit(table, fmt) == emit(floats, fmt) == emit_rowwise(floats, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize(
        "text", ["", "100%", "%s", "%(x)d", "a,b", "a\tb", 'say "x"', "two\nlines", "w; x, y"]
    )
    @pytest.mark.parametrize("n_rows", [3, PATH_CHUNK_POINTS + 2], ids=["3", "two-chunks"])
    @pytest.mark.parametrize("with_list", [True, False], ids=["cells", "bytes"])
    def test_repeated_string_renders_as_rows_do(self, fmt, text, n_rows, with_list):
        # the string's % signs must stay text and its quoting must be the
        # writer's; without the list column the table is built as bytes, in
        # density.point_chunks chunks
        t = np.resize([0.5, -1.0, 2.0], n_rows) * np.arange(1, n_rows + 1)
        table = Table({"t[1]": t, "warnings": text})
        if with_list:
            table.columns["n[1]"] = list(range(1, n_rows + 1))
        # compared as lists of lines: a failing comparison of 2,050 lines as
        # one string takes pytest minutes to report
        assert emit(table, fmt).split("\n") == emit_rowwise(table, fmt).split("\n")

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("n_rows", [3, PATH_CHUNK_POINTS + 2], ids=["3", "two-chunks"])
    def test_strings_at_every_position_render_as_rows_do(self, fmt, n_rows):
        # a string opens each row, strings sit between float columns (none,
        # one or two of them) and close it; each float cell carries the text
        # up to the next one, and 11 of these texts are longer than its 3
        # spare bytes, more than the 7 one-byte marks
        t = np.resize([0.5, -1.0, 2.0, math.nan], n_rows) * np.arange(1, n_rows + 1)
        strings = ["w; x, y", "", "a\tb", 'say "x"', "%s", "two\nlines", "é", "100%", "y", "a,b",
                   "%(x)d", "zz", "last"]
        columns = {"opens": "first, 100%"}
        for k, text in enumerate(strings):
            columns[f"f{k}[1]"] = t * (k + 1)
            columns[f"s{k}"] = text
            if k % 4 == 3:
                columns[f"g{k}[1]"] = -t
        table = Table(columns)
        texts = [",%s," % text for text in strings]
        assert sum(len(text.encode()) > 3 for text in texts) >= 8
        assert emit(table, fmt).split("\n") == emit_rowwise(table, fmt).split("\n")

    def test_more_long_texts_than_marks_are_refused(self):
        # three spare bytes hold a mark of at most three of the 7 mark bytes
        columns = {}
        for k in range(7**3 + 1):
            columns[f"f{k}[1]"] = np.zeros(1)
            columns[f"s{k}"] = f"text {k}"
        with pytest.raises(ValueError, match="at most 343 texts"):
            emit(Table(columns))
        del columns["f343[1]"], columns["s343"]
        assert emit(Table(columns)) == emit_rowwise(Table(columns), "csv")

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("cells", [
        ["", "x"], [""], ["", "", ""], [None, 1.5, ""], ['say "x"', "", "a,b", "a\tb"],
    ])
    def test_one_column_renders_as_rows_do(self, fmt, cells):
        # a row of one empty field is "" to the writer, not a blank line
        assert emit(Table({"a": cells}), fmt) == emit_rowwise(Table({"a": cells}), fmt)

    def test_one_repeated_string_is_refused(self):
        # a repeated string alone has no length, so no row: both renderers refuse it
        for render in (emit, emit_rowwise):
            with pytest.raises(ValueError, match="one length"):
                render(Table({"a": ""}), "csv")

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="one length"):
            emit(Table({"a[1]": np.zeros(2), "b[1]": [1.0]}))
        with pytest.raises(ValueError, match="one length"):
            emit(Table({"warnings": "only a repeated string"}))

    @pytest.mark.parametrize("verb", ["evolve", "phase", "sweep", "witness"])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_pipeline_tables_render_as_rows_do(self, verb, fmt):
        names = {
            "evolve": ["micro_micro", "macro_both", "macro_single", "general"],
            "phase": ["micro_micro", "macro_both", "macro_single", "general"],
            "sweep": ["sweep_entanglement_micro", "sweep_entanglement_macro"],
            "witness": ["micro_micro"],
        }[verb]
        for name in names:
            doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            doc["grid"] = {"n_steps": 64}
            if verb == "sweep":
                doc["sweep"]["count"] = 3
            if verb == "witness":
                doc["phase"] = 0.005
            table = run_scenario(parse_config(json.dumps(doc)), verb)
            if "warnings" in table.columns:
                warnings = table.columns["warnings"]
                comma = "branch-ambiguity: gap, with comma"
                table.columns["warnings"] = comma if isinstance(warnings, str) else [comma, *warnings[1:]]
            assert emit(table, fmt) == emit_rowwise(table, fmt), name


def g17_text(values) -> list[str]:
    """The kernel's rows for values, each with its pad bytes deleted."""
    rows = cli._g17(np.asarray(values, dtype=np.float64)).tobytes()
    return [rows[i : i + 48].translate(None, b"\xff").decode() for i in range(0, len(rows), 48)]


def assert_prints_as_cpython(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    wrong = [
        (v, got, want)
        for v, got, want in zip(values.tolist(), g17_text(values), ["%.17g" % v for v in values.tolist()])
        if got != want
    ]
    assert not wrong, wrong[:5]


def odd_multiples(rng, low: int, high: int, size: int) -> np.ndarray:
    return rng.integers(low // 2, high // 2, size) * 2 + 1


def near_ties() -> list[float]:
    """Doubles x whose scaled value x 10**(16 - k) lies within 2**-44 of a
    half-integer without being one, where the kernel's product is inexact:
    x = m 2**-75 and m 2**-76 (scales 10**23 and 10**24: exact double-doubles,
    whose product with x rounds in its last sum), and x near 1e36 to 1e39
    (scales 10**-20 to 10**-22, inexact powers). Built with int arithmetic."""
    values = []
    for e in (23, 24):
        # 10**e x = m 5**e / 2**52: the fractional part is (m 5**e mod 2**52) / 2**52
        inverse = pow(5**e, -1, 2**52)
        for delta in (-3, -2, -1, 1, 2, 3):
            m = (2**51 + delta) * inverse % 2**52 + 2**52
            if 1e16 <= m * 5**e / 2**52 < 1e17:
                values.append(math.ldexp(m, -52 - e))
    for e in (20, 21, 22):
        # x = m 2**(e + t), x / 10**e = m 2**t / 5**e: (m 2**t mod 5**e) / 5**e
        t = math.ceil(math.log2(1e16 * 5**e / 2**52))
        inverse = pow(2**t, -1, 5**e)
        for residue in (5**e // 2 - 1, 5**e // 2, 5**e // 2 + 1, 5**e // 2 + 2):
            m = residue * inverse % 5**e
            m += -(-(2**52 - m) // 5**e) * 5**e
            if 1e16 <= m * 2**t / 5**e < 1e17:
                values.append(math.ldexp(m, e + t))
    return values


def exact_ties() -> np.ndarray:
    """Doubles whose scaled value is a half-integer: odd multiples of 1/4
    and 1/8 with 17 digits before the point."""
    rng = np.random.default_rng(24)
    return np.concatenate([
        odd_multiples(rng, 4 * 10**15, 9 * 10**15, 50_000) / 4,
        odd_multiples(rng, 8 * 10**14, 72 * 10**14, 50_000) / 8,
    ])


class TestG17:
    """The 17-digit kernel of emit against CPython's "%.17g", byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert_prints_as_cpython(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        for _ in range(8):
            assert_prints_as_cpython(rng.integers(0, 2**64, 125_000, dtype=np.uint64).view(np.float64))

    def test_doubles_within_8_ulps_of_powers_of_ten(self):
        bits = np.array([np.float64(f"1e{k}").view(np.int64) for k in range(-323, 309)])
        near = np.unique(np.maximum(bits[:, None] + np.arange(-8, 9), 0)).view(np.float64)
        assert near.min() == 0.0 and near.max() > 1e308
        assert_prints_as_cpython(np.concatenate([near, -near]))

    def test_notation_boundaries(self):
        for bound in (1e-5, 1e-4, 1e16, 1e17):
            near = np.nextafter(bound, np.array([0.0, np.inf])[:, None], dtype=np.float64)
            values = [bound, *near.ravel()]
            for _ in range(3):
                values += [np.nextafter(values[-2], 0.0), np.nextafter(values[-1], np.inf)]
            assert_prints_as_cpython(values + [-v for v in values])

    def test_scaled_value_rounding_onto_a_bound(self):
        # the double nearest 1e-274: its product with 10**290 rounds to
        # 1e16, but the exact scaled value lies below it
        assert g17_text([9.9999999999999997e-275, -9.9999999999999997e-275]) == [
            "9.9999999999999997e-275", "-9.9999999999999997e-275"
        ]

    def test_exact_ties_are_left_to_cpython(self):
        ties = exact_ties()
        assert_prints_as_cpython(np.concatenate([ties, -ties]))
        digits, k, decided = cli._decimal17(ties)
        assert not decided.any()
        # the kernel's own rounding already is CPython's, half to even
        want = ["%.16e" % v for v in ties.tolist()]
        assert [f"{d // 10**16}.{d % 10**16:016d}e{e:+03d}" for d, e in zip(digits.tolist(), k.tolist())] == want

    def test_signed_zeros_are_decided(self):
        # a column of zeros (macro_single's concurrence) prints from the
        # kernel's own tables, not cell by cell through CPython
        values = np.array([0.0, -0.0, 0.0, 1.0, -0.0])
        digits, k, decided = cli._decimal17(values)
        assert decided.all()
        assert np.array_equal(digits[[0, 1, 2, 4]], [0] * 4) and np.array_equal(k[[0, 1, 2, 4]], [0] * 4)
        assert g17_text(values) == ["%.17g" % v for v in values.tolist()] == ["0", "-0", "0", "1", "-0"]

    def test_near_ties_are_left_to_cpython(self):
        values = near_ties()
        assert len(values) >= 20
        assert_prints_as_cpython(values + [-v for v in values])
        assert not cli._decimal17(np.array(values))[2].any()

    @pytest.mark.parametrize("band", [2.0**-44, 2.0**-30, 2.0**-10])
    def test_half_band_is_a_speed_knob(self, monkeypatch, band):
        # any band of at least 2**-45 gives the same text; a wider one only
        # sends more values to CPython
        rng = np.random.default_rng(20261021)
        ties = np.concatenate([near_ties(), exact_ties()])
        values = np.concatenate([ties, -ties, rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)])
        want = g17_text(values)
        monkeypatch.setattr(cli, "_HALF_BAND", band)
        assert g17_text(values) == want


# ---------------------------------------------------------------------------
# Sweeps against the phase runs of their points.
# ---------------------------------------------------------------------------

# converge_phase stops at this grid in the sweep and in each point's run, so
# that a point whose phase needs a finer one ends both in one
# ConvergenceError, cheaply.
SWEEP_MAX_STEPS = 2**12


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it exits with."""
    try:
        return fn(*args)
    except (ValueError, geomphase.ConvergenceError) as exc:
        return type(exc), str(exc)


def sweep_point(doc: dict, value: float) -> dict:
    """The phase config of a sweep's point at value: the swept key set to
    it, or, for a concurrence, the eta0 (micro_micro) or the special point
    (hybrids) that it sets."""
    point = {key: item for key, item in doc.items() if key != "sweep"}
    variable = doc["sweep"]["variable"]
    if variable != "concurrence":
        return dict(point, **{variable: value})
    if doc["scenario"] == "micro_micro":
        return dict(point, eta0=0.5 * math.asin(value))
    return dict(point, lambda_c=doc["omega"] / 8.0, eta0=math.pi / 4,
                alpha=math.sqrt(special_point_intensity(value)))


def assert_sweep_rows_equal_phases(doc: dict) -> None:
    """Each row of the sweep of doc equals the phase run of its point, bit
    for bit; a sweep that fails ends with the error of its first point
    whose phase run fails."""
    spec, scenario = doc["sweep"], doc["scenario"]
    sweep = outcome(run_scenario, parse_config(json.dumps(doc)), "sweep")
    for k, value in enumerate(np.linspace(spec["start"], spec["stop"], spec["count"]).tolist()):
        point = parse_config(json.dumps(sweep_point(doc, value)))
        phase = outcome(run_scenario, point, "phase")
        if isinstance(phase, tuple):
            assert sweep == phase
            return
        assert not isinstance(sweep, tuple), sweep
        row = {name: column[k] for name, column in sweep.columns.items()}
        ref = {name: column[0] for name, column in phase.columns.items()}
        assert row[f"{spec['variable']}[1]"] == value
        assert row["phase_kinematic[rad]"] == ref["phase_unwrapped[rad]"]
        assert row["phase_principal[rad]"] == ref["phase_principal[rad]"]
        assert row["warnings"] == ref["warnings"]
        if scenario == "micro_micro":
            assert row["phase_closed_form[rad]"] == ref["phase_closed_form[rad]"]
            # a swept C sets the weak laws itself; |sin 2 eta0| need not round back to it
            weak = ([weak_coupling_phase(value, point.params), weak_coupling_phase_limit(value)]
                    if spec["variable"] == "concurrence"
                    else [ref["phase_weak_law[rad]"], ref["phase_weak_limit[rad]"]])
            assert [row["phase_weak_law[rad]"], row["phase_weak_limit[rad]"]] == weak
        elif spec["variable"] == "concurrence":
            assert row["phase_relation[rad]"] == macro_phase_relation(value, Scenario(scenario), point.params)
        else:
            assert row["phase_relation[rad]"] == row["witness_roundtrip[1]"] == ""
    assert len(sweep) == spec["count"]


def draw_sweeps(seed: int, count: int) -> list[dict]:
    """count sweep configs: the named scenarios and the sweep variables in
    turn, random physics with |alpha| up to 3, real and complex alpha, 2 to
    40 points from 16, 64 or 256 steps."""
    rng = np.random.default_rng(seed)
    ranges = {
        "concurrence": lambda: rng.uniform(0.0, 0.99, 2),
        "alpha": lambda: rng.uniform(0.0, 3.0, 2),
        "lambda_c": lambda: 10.0 ** rng.uniform(-4.0, -0.5, 2),
        "eta0": lambda: rng.uniform(-math.pi, math.pi, 2),
    }
    docs = []
    for k in range(count):
        scenario = ("micro_micro", "macro_both", "macro_single")[k % 3]
        variable = list(ranges)[(k // 3) % len(ranges)]
        mod, arg = rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi) if k % 2 else 0.0
        start, stop = sorted(ranges[variable]().tolist())
        docs.append({
            "scenario": scenario, "omega": rng.uniform(0.5, 2.0), "j_vdw": rng.uniform(-0.3, 0.3),
            "omega_b": rng.uniform(0.0, 2.0), "chi": rng.uniform(-0.05, 0.05),
            "lambda_c": 10.0 ** rng.uniform(-4.0, -0.5),
            "alpha": [mod * math.cos(arg), mod * math.sin(arg)], "eta0": rng.uniform(0.0, math.pi / 2),
            "grid": {"n_steps": int(rng.choice([16, 64, 256]))},
            "sweep": {"variable": variable, "start": start, "stop": stop,
                      "count": int(rng.integers(2, 41))},
        })
    return docs


def check_sweep_draw(seed: int, count: int) -> None:
    """assert_sweep_rows_equal_phases on draw_sweeps(seed, count), with
    converge_phase stopped at SWEEP_MAX_STEPS; prints a summary."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geomphase, "MAX_STEPS", SWEEP_MAX_STEPS)
        for doc in draw_sweeps(seed, count):
            try:
                assert_sweep_rows_equal_phases(doc)
            except AssertionError:
                print(json.dumps(doc))
                raise
    print(f"{count} sweeps: every row equals the phase run of its point")


class TestRunScenario:
    def test_phase_row(self):
        cfg = parse_config(cfg_text(grid={"n_steps": 512}))
        table = run_scenario(cfg, "phase")
        assert len(table) == 1
        assert table.columns["phase_unwrapped[rad]"][0] == pytest.approx(
            table.columns["phase_closed_form[rad]"][0], abs=1e-5
        )

    def test_evolve_rows_and_invariants(self):
        cfg = parse_config(cfg_text(grid={"n_steps": 64}))
        table = run_scenario(cfg, "evolve")
        assert len(table) == 65
        eps1 = table.columns["eps1[1]"]
        eps2 = table.columns["eps2[1]"]
        np.testing.assert_allclose(eps1 + eps2, 1.0, atol=1e-10)
        assert np.all(eps1 >= -1e-10)
        purity = table.columns["purity[1]"]
        assert np.all(purity > 0.5 - 1e-10)
        assert np.all(purity < 1.0 + 1e-10)

    def test_evolve_purity_never_exceeds_one(self):
        # the exact path gives Tr rho^2 = 1 + 2.2e-16 at t = 0 for some eta0;
        # the grid includes eta0 = pi/4
        docs = [dict(MINIMAL, eta0=eta0) for eta0 in np.linspace(0.0, math.pi / 2, 41)]
        docs.append(json.loads((CONFIG_DIR / "general.json").read_text()))
        for doc in docs:
            doc["grid"] = {"n_steps": 256}
            table = run_scenario(parse_config(json.dumps(doc, default=float)), "evolve")
            assert max(table.columns["purity[1]"]) <= 1.0

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
    def test_evolve_concurrence_equals_a_fresh_decomposition(self, name):
        # run_evolve reuses the phase path's eigen-decomposition; the column
        # must equal the concurrence of the same matrices decomposed anew
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        table = run_scenario(cfg, "evolve")
        times = np.linspace(0.0, cli.quasicycle_period(cfg.params), cfg.n_steps + 1)
        rhos = cli.coherent_rho_path(cli.initial_branches(cfg), times, cfg.params)
        assert table.columns["concurrence[1]"].tolist() == cli.concurrence_wootters(rhos).tolist()

    def test_evolve_refuses_purity_beyond_rounding(self, monkeypatch):
        # micro_micro's path is its block's entries; every entry is scaled
        def scaled(*args):
            a, d, b, block = exact(*args)
            return BlockEntries(a * (1.0 + 1e-11), d * (1.0 + 1e-11), b * (1.0 + 1e-11), block)

        exact = cli.coherent_block_path
        monkeypatch.setattr(cli, "coherent_block_path", scaled)
        with pytest.raises(ValueError, match="purity"):
            run_scenario(parse_config(cfg_text(grid={"n_steps": 64})), "evolve")

    def test_above_one_is_rounding_up_to_its_tolerance(self):
        # 1 + 5e-13 is rounding, clipped to 1; 1 + 2e-12 is an error naming its column
        values = np.array([0.25, 1.0 + 5e-13])
        assert cli._at_most_one(values, "purity").tolist() == [0.25, 1.0]
        with pytest.raises(ValueError, match="concurrence must not exceed 1"):
            cli._at_most_one(np.array([0.25, 1.0 + 2e-12]), "concurrence")

    def test_witness_requires_phase(self):
        cfg = parse_config(cfg_text())
        with pytest.raises(ValueError, match="phase"):
            run_scenario(cfg, "witness")

    def test_witness_row(self):
        cfg = parse_config(cfg_text(phase=0.002))
        table = run_scenario(cfg, "witness")
        assert 0.0 < table.columns["concurrence_consistent[1]"][0] <= 1.0

    def test_sweep_requires_block(self):
        cfg = parse_config(cfg_text())
        with pytest.raises(ValueError, match="sweep"):
            run_scenario(cfg, "sweep")

    def test_micro_sweep_monotone_and_round_trip(self):
        cfg = parse_config(
            cfg_text(
                lambda_c=1e-4 / (2 * math.pi),
                grid={"n_steps": 1024},
                sweep={"variable": "concurrence", "start": 0.0, "stop": 0.9, "count": 6},
            )
        )
        table = run_scenario(cfg, "sweep")
        conc = table.columns["concurrence[1]"]
        kin = table.columns["phase_kinematic[rad]"]
        law = table.columns["phase_weak_law[rad]"]
        wit = table.columns["witness_from_law[1]"]
        assert np.all(np.diff(kin) > 0)
        assert np.all(np.diff(law) > 0)
        np.testing.assert_allclose(wit, conc, atol=1e-10)

    def test_macro_sweep_round_trip(self):
        cfg = parse_config(
            json.dumps(
                {
                    "scenario": "macro_both",
                    "omega": 1.0,
                    "lambda_c": 0.125,
                    "alpha": 1.0,
                    "eta0": math.pi / 4,
                    "grid": {"n_steps": 512},
                    "sweep": {"variable": "concurrence", "start": 0.0, "stop": 0.9, "count": 5},
                }
            )
        )
        table = run_scenario(cfg, "sweep")
        conc = table.columns["concurrence[1]"]
        rel = table.columns["phase_relation[rad]"]
        wit = table.columns["witness_roundtrip[1]"]
        assert np.all(np.diff(rel) > 0)
        np.testing.assert_allclose(wit, conc, atol=1e-10)

    @pytest.mark.parametrize("scenario", ["micro_micro", "macro_both", "macro_single"])
    @pytest.mark.parametrize("alpha", [1.0, [0.6, -0.8]], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "variable, start, stop, count",
        [
            ("alpha", 0.5, 1.5, 2),
            ("lambda_c", 0.005, 0.05, 2),
            ("eta0", 0.2, 0.7, 2),
            # one batch and a second one: at 64 steps a batch holds 15 first paths
            ("concurrence", 0.0, 0.95, 17),
            ("eta0", 0.0, 1.5, 17),
            # a lone state, then one whose second population rounds to 0
            ("eta0", 0.0, 5e-324, 2),
            ("eta0", math.pi / 4 - 1e-9, math.pi / 4 + 1e-9, 2),
        ],
    )
    def test_sweep_rows_equal_the_phase_of_each_point(self, scenario, alpha, variable, start, stop, count):
        # each row is the phase run of the config with the swept key set to its
        # value, or, for a concurrence, of the point that it sets
        doc = json.loads((CONFIG_DIR / f"{scenario}.json").read_text())
        doc.update(grid={"n_steps": 64}, alpha=alpha,
                   sweep={"variable": variable, "start": start, "stop": stop, "count": count})
        assert_sweep_rows_equal_phases(doc)

    def test_seeded_sweeps_equal_the_phase_of_each_point(self):
        check_sweep_draw(27, 12)

    def test_sweep_shares_its_closed_form_grid_and_first_paths(self, monkeypatch):
        # 17 micro_micro points at 64 steps: one closed-form call; the lone
        # state at C = 0 alone, then a batch of 15 first paths and a batch of
        # one, which builds its first path as a phase run does; every first
        # path still passes through cli.eigen_path
        calls = {"closed": [], "batches": [], "eigen": []}

        def spy(name, fn, record):
            def wrapped(*args, **kwargs):
                calls[name].append(record(args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, fn.__name__, wrapped)

        spy("closed", cli.phase_micro_micro_closed, lambda a: np.size(a[0]))
        spy("batches", cli.first_paths, lambda a: len(a[0]))
        spy("eigen", cli.eigen_path, lambda a: len(a[0]))
        cfg = parse_config(cfg_text(grid={"n_steps": 64},
                                    sweep={"variable": "concurrence", "start": 0.0, "stop": 0.9, "count": 17}))
        assert len(run_scenario(cfg, "sweep")) == 17
        assert calls["closed"] == [17]
        assert calls["batches"] == [15]
        assert calls["eigen"].count(129) == 17

    @pytest.mark.parametrize("phase_tol, code, message", [
        # no refinement and no tolerance that a first path meets: point 0
        # fails to converge before point 2 is refused
        (1e-30, 2, None),
        (1e-7, 1, "non-finite coherence"),
    ], ids=["convergence-first", "refusal"])
    def test_sweep_errors_come_in_point_order(self, tmp_path, capsys, monkeypatch, phase_tol, code, message):
        # point 2's coherences are damaged, in its batch and alone; a
        # sequential sweep meets point 0's error first, if it has one, else
        # point 2's own
        eta0s = np.linspace(0.2, 0.7, 4).tolist()
        def damaged(exact, rows):
            def build(states, times, p):
                entries = exact(states, times, p)
                coherences = entries.b.reshape(len(rows(states)), -1)  # a view: one row per state
                for k, state in enumerate(rows(states)):
                    if state.coeffs[1] == math.sin(eta0s[2]):
                        coherences[k, 1] = np.nan
                return entries
            return build

        monkeypatch.setattr(cli, "coherent_block_path", damaged(cli.coherent_block_path, lambda s: [s]))
        monkeypatch.setattr(cli, "coherent_block_paths", damaged(cli.coherent_block_paths, list))
        if message is None:
            monkeypatch.setattr(geomphase, "MAX_STEPS", 128)
        doc = json.loads(cfg_text(grid={"n_steps": 64, "phase_tol": phase_tol}))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(doc, sweep={"variable": "eta0", "start": 0.2, "stop": 0.7,
                                                    "count": 4})))
        assert main(["sweep", "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if message is None:
            path.write_text(json.dumps(dict(doc, eta0=eta0s[0])))
            assert main(["phase", "--config", str(path)]) == code
            message = capsys.readouterr().err
            assert "did not converge" in message
        assert message in captured.err and captured.err.count("\n") == 1

    def test_alpha_sweep_errors_come_in_point_order(self, tmp_path, capsys, monkeypatch):
        # point 2's alpha is beyond the Fock basis; with MAX_STEPS at the first
        # grid, point 0 fails to converge first
        path = tmp_path / "c.json"
        doc = json.loads(cfg_text(grid={"n_steps": 64, "phase_tol": 1e-30}))
        path.write_text(json.dumps(dict(doc, sweep={"variable": "alpha", "start": 1.0, "stop": 40.0,
                                                    "count": 3})))
        monkeypatch.setattr(geomphase, "MAX_STEPS", 128)
        assert main(["sweep", "--config", str(path)]) == 2
        assert "did not converge" in capsys.readouterr().err
        monkeypatch.setattr(geomphase, "MAX_STEPS", 2**21)
        path.write_text(json.dumps(dict(doc, grid={"n_steps": 64}, sweep={
            "variable": "alpha", "start": 1.0, "stop": 40.0, "count": 3})))
        assert main(["sweep", "--config", str(path)]) == 1
        assert "alpha = (40+0j) is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, start, stop", [("alpha", 0.0, 1.0), ("lambda_c", -0.001, 0.001)])
    def test_micro_sweep_through_zero_coupling(self, tmp_path, capsys, variable, start, stop):
        # where lambda |alpha|^2 <= 0 the weak law has no inverse: its witness
        # cell is empty, and every row is still the phase of its point
        doc = json.loads((CONFIG_DIR / "micro_micro.json").read_text())
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(doc, sweep={"variable": variable, "start": start,
                                                    "stop": stop, "count": 3})))
        assert main(["sweep", "--config", str(path)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        for row in rows:
            point = dict(doc, **{variable: float(row[f"{variable}[1]"])})
            path.write_text(json.dumps(point))
            assert main(["phase", "--config", str(path)]) == 0
            ref = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert row["phase_kinematic[rad]"] == ref["phase_unwrapped[rad]"]
            for key in ("phase_principal[rad]", "phase_closed_form[rad]", "phase_weak_law[rad]",
                        "phase_weak_limit[rad]", "warnings"):
                assert row[key] == ref[key], key
            coupling = point["lambda_c"] * point["alpha"] ** 2
            assert (row["witness_from_law[1]"] == "") == (coupling <= 0.0)

    @pytest.mark.parametrize("name", ["sweep_entanglement_micro", "sweep_entanglement_macro"])
    def test_shipped_sweeps_print_no_signed_zero(self, name):
        text = emit(run_scenario(parse_config((CONFIG_DIR / f"{name}.json").read_text()), "sweep"))
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 51
        assert not [cell for row in rows for cell in row if cell.startswith("-0") and float(cell) == 0.0]

    def test_sweep_starts_no_thread(self, monkeypatch):
        # A thread would get its own malloc arena, a few MB of peak RSS.
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = parse_config(
            cfg_text(
                grid={"n_steps": 256},
                sweep={"variable": "concurrence", "start": 0.1, "stop": 0.8, "count": 3},
            )
        )
        assert len(run_scenario(cfg, "sweep")) == 3
        assert started == []


class TestMainEntry:
    def test_phase_verb_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 512}))
        assert main(["phase", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tau[time]")
        assert out.endswith("\n")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            cfg_text(
                grid={"n_steps": 256},
                sweep={"variable": "concurrence", "start": 0.0, "stop": 0.8, "count": 4},
            )
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "micro_micro", "omega": 1.0}))
        assert main(["phase", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        # every start refines up to MAX_STEPS; a small limit keeps this run
        # off the ~1.5 GB that the real one reaches at 2,097,152 steps
        monkeypatch.setattr(geomphase, "MAX_STEPS", 1024)
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 2, "phase_tol": 1e-30}))
        assert main(["phase", "--config", str(cfg)]) == 2
        assert "did not converge to 1e-30 within 9 doublings" in capsys.readouterr().err

    def test_steps_override_validation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text())
        assert main(["phase", "--config", str(cfg), "--steps", "7"]) == 1

    def test_odd_steps_rejected_by_evolve(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text())
        assert main(["evolve", "--config", str(cfg), "--steps", "3"]) == 1
        assert "n_steps must be an even integer >= 2, got 3" in capsys.readouterr().err

    def test_sweep_has_no_workers_option_and_prints_rows_in_order(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            cfg_text(
                grid={"n_steps": 256},
                sweep={"variable": "concurrence", "start": 0.1, "stop": 0.8, "count": 3},
            )
        )
        # a usage error exits 1; 2 means non-convergence
        assert main(["sweep", "--config", str(cfg), "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("concurrence[1],")
        assert [line.split(",")[0] for line in lines[1:]] == [
            "%.17g" % v for v in np.linspace(0.1, 0.8, 3)
        ]

    @pytest.mark.parametrize(
        "argv, overrides, key",
        [
            (["phase", "--steps", str(2**50)], {}, "n_steps"),
            (["evolve", "--steps", str(2**50)], {}, "n_steps"),
            (["evolve", "--steps", str(2**17 + 2)], {}, "n_steps"),
            (["phase"], {"grid": {"n_steps": 2**50}}, "n_steps"),
            (
                ["sweep"],
                {"sweep": {"variable": "concurrence", "start": 0.1, "stop": 0.8, "count": 2**50}},
                "sweep.count",
            ),
            # a start grid that converge_phase cannot double
            (["phase", "--steps", str(2**21)], {}, "n_steps"),
        ],
    )
    def test_unbounded_grids_and_sweeps_exit_1_naming_the_key(
        self, tmp_path, capsys, argv, overrides, key
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(**overrides))
        start = time.perf_counter()
        assert main([*argv, "--config", str(cfg)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"{key} must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, config, overrides, message",
        [
            ("sweep", "general", {"sweep": {"variable": "alpha", "start": 0.5, "stop": 1.0, "count": 2}},
             "sweeps are defined for the three named scenarios"),
            ("witness", "general", {"phase": 0.1},
             "witness inversions exist for the three named scenarios only"),
            ("sweep", "micro_micro",
             {"sweep": {"variable": "concurrence", "start": 0.5, "stop": 1.0, "count": 3}},
             "concurrence sweep values must lie in [0, 1)"),
            ("sweep", "macro_both",
             {"sweep": {"variable": "concurrence", "start": 0.5, "stop": 1.0, "count": 3}},
             "concurrence sweep values must lie in [0, 1)"),
        ],
    )
    def test_refused_sweeps_and_witnesses_exit_1_with_their_message(
        self, tmp_path, capsys, verb, config, overrides, message
    ):
        doc = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(doc, **overrides)))
        assert main([verb, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, code",
        [([], 1), (["phase"], 1), (["bogus"], 1), (["--help"], 0), (["sweep", "--help"], 0)],
    )
    def test_usage_errors_exit_1_and_help_exits_0(self, capsys, argv, code):
        assert main(argv) == code
        assert ("usage: becphase" in capsys.readouterr().err) == (code == 1)

    def test_evolve_at_its_step_bound_is_accepted(self, monkeypatch, tmp_path):
        # refused above cli.MAX_EVOLVE_STEPS only; the bound itself runs
        monkeypatch.setattr(cli, "MAX_EVOLVE_STEPS", 256)
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text())
        assert main(["evolve", "--config", str(cfg), "--steps", "256", "--output", str(tmp_path / "o.csv")]) == 0
        assert main(["evolve", "--config", str(cfg), "--steps", "258"]) == 1

    def test_alpha_beyond_the_fock_basis_exits_1_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        for alpha in (40, 1e5, 1e200):
            cfg.write_text(cfg_text(alpha=alpha))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                assert main(["phase", "--config", str(cfg)]) == 1
                assert time.perf_counter() - start < 1.0
            assert caught == []
            assert "alpha" in capsys.readouterr().err
        cfg.write_text(cfg_text(alpha=30, grid={"n_steps": 256}))
        assert main(["phase", "--config", str(cfg)]) == 0

    def test_verbs_run_on_the_exact_path(self, tmp_path, monkeypatch, capsys):
        def fock_path(*args):
            raise AssertionError("the truncated-Fock path ran")

        monkeypatch.setattr(cli, "oracle_rho_path", fock_path)
        for verb in ("evolve", "phase"):
            assert main([verb, "--config", str(CONFIG_DIR / "general.json"), "--steps", "64"]) == 0
        sweep = tmp_path / "sweep.json"
        sweep.write_text(cfg_text(sweep=dict(SWEEP, count=2)))
        assert main(["sweep", "--config", str(sweep)]) == 0

    def test_micro_phase_near_the_alpha_cap_matches_the_closed_form(self):
        cfg = parse_config(cfg_text(alpha=37.5))
        res = cli.compute_phase(cfg)
        assert abs(res.unwrapped - cli.phase_micro_micro_closed(cfg.eta0, cfg.params)) < 1e-10

    def test_alpha_with_a_subnormal_vacuum_mass_runs(self, tmp_path, capsys):
        # exp(-|alpha|^2) is subnormal at alpha = 27; the Fock basis still holds the state
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(alpha=27, grid={"n_steps": 256}))
        assert main(["phase", "--config", str(cfg)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert abs(float(row[1]) - float(row[5])) < 1e-6

    def test_special_point_phase_converges_once(self, monkeypatch, capsys):
        calls = []
        converge = geomphase.converge_phase

        def counting(*args, **kwargs):
            calls.append(args)
            return converge(*args, **kwargs)

        monkeypatch.setattr(cli, "converge_phase", counting)
        monkeypatch.setattr(geomphase, "converge_phase", counting)
        for name in ("macro_both", "macro_single"):
            calls.clear()
            assert main(["phase", "--config", str(CONFIG_DIR / f"{name}.json")]) == 0
            assert len(calls) == 1
            assert capsys.readouterr().out.splitlines()[1].split(",")[8] != ""

    def test_missing_config_file(self, capsys):
        assert main(["phase", "--config", "/nonexistent/x.json"]) == 1

    def test_tsv_output(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 512}))
        out = tmp_path / "r.tsv"
        assert main(["phase", "--config", str(cfg), "--output", str(out), "--format", "tsv"]) == 0
        assert "\t" in out.read_text()

    def test_validate_verb(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "resolution" in out
        assert "omega - 2J" in out

    def test_python_m_entry_is_clean(self, capsys):
        argv = ["phase", "--config", str(CONFIG_DIR / "macro_both.json")]
        proc = run_python("-m", "becphase", *argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_evolve_concurrence_is_clamped_like_its_purity(self, tmp_path, capsys):
        # equal coefficients at t = 0 round to a concurrence one ulp above 1
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(eta0=0.7853981663974483))
        assert main(["evolve", "--config", str(cfg), "--steps", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[0][7] == "1"
        assert all(float(row[7]) <= 1.0 for row in rows)

    def test_evolve_concurrence_far_above_1_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "concurrence_wootters", lambda rho, **kw: np.full(len(rho), 1.0 + 1e-9))
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text())
        assert main(["evolve", "--config", str(cfg), "--steps", "2"]) == 1
        assert "concurrence must not exceed 1" in capsys.readouterr().err


class TestSharedParser:
    """main builds its argparse parser once per process; no call may see another's state."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parser_is_not_built_at_import(self):
        code = "import becphase.cli as c; print(c._build_parser.cache_info().currsize)"
        assert run_python("-c", code).stdout == "0\n"

    def test_usage_error_and_help_leave_later_runs_unchanged(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 256}))
        phase = ["phase", "--config", str(cfg)]
        assert main(phase) == 0
        first = capsys.readouterr().out
        assert main([*phase, "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: becphase")
        assert main(phase) == 0
        assert capsys.readouterr().out == first

    def test_steps_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 32}))
        assert main(["evolve", "--config", str(cfg), "--steps", "64"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 65
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 33

    def test_each_usage_error_reports_its_own_message(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text())
        cases = [
            ([], "the following arguments are required: verb"),
            (["phase"], "the following arguments are required: --config"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["phase", "--config", str(cfg), "--format", "xml"], "invalid choice: 'xml'"),
            (["evolve", "--config", str(cfg), "--steps", "x"], "invalid int value: 'x'"),
        ]
        for argv, message in cases:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert message in err
            assert [m for _, m in cases if m in err] == [message]


class TestValidationReport:
    def test_report_structure(self):
        text = validation_report()
        matches = [ln for ln in text.splitlines() if "-> MATCH" in ln]
        mismatches = [ln for ln in text.splitlines() if "-> MISMATCH" in ln]
        assert len(matches) == 5
        assert len(mismatches) == 1
        assert "macro_single" in mismatches[0]
        assert "verbatim" in mismatches[0]

    def test_special_point_principal_prints_no_signed_zero(self):
        # macro_both's principal value there is -1.6e-15
        lines = [ln for ln in validation_report().splitlines() if ln.startswith("special-point")]
        assert "scenario=macro_both" in lines[0]
        assert "kinematic principal = 0.000000000," in lines[0]
        assert not any("-0.000000000" in ln for ln in lines)

    @pytest.mark.parametrize("value, text", [
        (-1.6e-15, "0.000000000"), (-0.0, "0.000000000"), (-4.9e-10, "0.000000000"),
        (-5.1e-10, "-0.000000001"), (-2.5, "-2.500000000"), (6.283185307179586, "6.283185307"),
    ])
    def test_report_values_that_round_to_zero_are_unsigned(self, value, text):
        assert cli._fixed9(value) == text

    def test_one_fock_path_per_scenario(self, monkeypatch):
        calls = []
        fock = cli.oracle_rho_path

        def counting(state0, times, p):
            calls.append(state0)
            return fock(state0, times, p)

        monkeypatch.setattr(cli, "oracle_rho_path", counting)
        validation_report()
        assert len(calls) == 4


def test_shipped_scenario_configs_run(tmp_path):
    # each shipped scenario config drives a small end-to-end run
    for name in ("micro_micro", "macro_both", "macro_single", "general"):
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        doc["grid"] = {"n_steps": 256}
        cfg = parse_config(json.dumps(doc))
        table = run_scenario(cfg, "evolve")
        assert len(table) == 257
        table = run_scenario(cfg, "phase")
        assert len(table) == 1
