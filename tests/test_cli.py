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
from becphase.cli import _fmt, main
from oracles import emit_rowwise

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.001, "alpha": 1.0, "eta0": 0.3}


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
        cfg = parse_config(cfg_text(grid={"n_steps": geomphase.MAX_STEPS}))
        assert cfg.n_steps == 2_097_152
        with pytest.raises(ValueError, match="n_steps must be at most 2097152"):
            replace(cfg, n_steps=geomphase.MAX_STEPS + 2)

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


@pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 2.0**-1074, -7.25e17, math.nan, math.inf])
def test_fmt_float_fast_path_matches_numpy_scalars(value):
    assert _fmt(np.float64(value)) == _fmt(value) == f"{value:.17g}"


class TestEmit:
    def test_three_rows_make_four_lines(self):
        table = Table(["a[1]", "b[1]"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        text = emit(table, "csv")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 4

    def test_empty_table_errors(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            emit(Table(["a"], []), "csv", str(out))
        assert not out.exists()

    def test_seventeen_digit_round_trip(self):
        values = [math.pi, 1 / 3, 2e-17, 123456.789012345678, -math.e]
        table = Table(["v[1]"], [[v] for v in values])
        text = emit(table, "csv")
        parsed = [float(line) for line in text.splitlines()[1:]]
        assert parsed == values

    def test_tsv(self):
        table = Table(["a[1]", "b[1]"], [[1.0, 2.0]])
        assert "\t" in emit(table, "tsv")

    def test_bad_format(self):
        with pytest.raises(ValueError):
            emit(Table(["a"], [[1.0]]), "xml")

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_columns_render_as_rows_do(self, fmt):
        # float, mixed and string columns; cells that need quoting in either format
        strings = ["", "plain", "a,b", "tab\there", 'say "x"', "two\nlines", "cr\r", " pad "]
        rows = [
            [0.1 * k, [1.5, "", None, 7, np.int64(-3), np.float64(2.5), True, math.nan][k], s, "w; x, y"]
            for k, s in enumerate(strings)
        ]
        rows[0][0] = -0.0
        rows[1][0] = math.inf
        table = Table(["t[1]", "mixed", "text", "warnings"], rows)
        assert emit(table, fmt) == emit_rowwise(table, fmt)

    @pytest.mark.parametrize("verb", ["evolve", "phase"])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_pipeline_tables_render_as_rows_do(self, verb, fmt):
        cfg = parse_config((CONFIG_DIR / "general.json").read_text())
        table = run_scenario(replace(cfg, n_steps=64), verb)
        table.rows[0][-1] = "branch-ambiguity: gap, with comma"
        assert emit(table, fmt) == emit_rowwise(table, fmt)


class TestRunScenario:
    def test_phase_row(self):
        cfg = parse_config(cfg_text(grid={"n_steps": 512}))
        table = run_scenario(cfg, "phase")
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["phase_unwrapped[rad]"] == pytest.approx(
            row["phase_closed_form[rad]"], abs=1e-5
        )

    def test_evolve_rows_and_invariants(self):
        cfg = parse_config(cfg_text(grid={"n_steps": 64}))
        table = run_scenario(cfg, "evolve")
        assert len(table.rows) == 65
        idx = {c: i for i, c in enumerate(table.columns)}
        eps1 = np.array([r[idx["eps1[1]"]] for r in table.rows])
        eps2 = np.array([r[idx["eps2[1]"]] for r in table.rows])
        np.testing.assert_allclose(eps1 + eps2, 1.0, atol=1e-10)
        assert np.all(eps1 >= -1e-10)
        purity = np.array([r[idx["purity[1]"]] for r in table.rows])
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
            column = table.columns.index("purity[1]")
            assert max(row[column] for row in table.rows) <= 1.0

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
    def test_evolve_concurrence_equals_a_fresh_decomposition(self, name):
        # run_evolve reuses the phase path's eigen-decomposition; the column
        # must equal the concurrence of the same matrices decomposed anew
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        table = run_scenario(cfg, "evolve")
        times = np.linspace(0.0, cli.quasicycle_period(cfg.params), cfg.n_steps + 1)
        rhos = cli.coherent_rho_path(cli.initial_branches(cfg), times, cfg.params)
        column = table.columns.index("concurrence[1]")
        assert [row[column] for row in table.rows] == cli.concurrence_wootters(rhos).tolist()

    def test_evolve_refuses_purity_beyond_rounding(self, monkeypatch):
        exact = cli.coherent_rho_path
        monkeypatch.setattr(cli, "coherent_rho_path", lambda *a: exact(*a) * (1.0 + 1e-11))
        with pytest.raises(ValueError, match="purity"):
            run_scenario(parse_config(cfg_text(grid={"n_steps": 64})), "evolve")

    def test_witness_requires_phase(self):
        cfg = parse_config(cfg_text())
        with pytest.raises(ValueError, match="phase"):
            run_scenario(cfg, "witness")

    def test_witness_row(self):
        cfg = parse_config(cfg_text(phase=0.002))
        table = run_scenario(cfg, "witness")
        row = dict(zip(table.columns, table.rows[0]))
        assert 0.0 < row["concurrence_consistent[1]"] <= 1.0

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
        idx = {c: i for i, c in enumerate(table.columns)}
        conc = [r[idx["concurrence[1]"]] for r in table.rows]
        kin = [r[idx["phase_kinematic[rad]"]] for r in table.rows]
        law = [r[idx["phase_weak_law[rad]"]] for r in table.rows]
        wit = [r[idx["witness_from_law[1]"]] for r in table.rows]
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
        idx = {c: i for i, c in enumerate(table.columns)}
        conc = [r[idx["concurrence[1]"]] for r in table.rows]
        rel = [r[idx["phase_relation[rad]"]] for r in table.rows]
        wit = [r[idx["witness_roundtrip[1]"]] for r in table.rows]
        assert np.all(np.diff(rel) > 0)
        np.testing.assert_allclose(wit, conc, atol=1e-10)

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
        assert len(run_scenario(cfg, "sweep").rows) == 3
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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text(grid={"n_steps": 2, "phase_tol": 1e-30}))
        assert main(["phase", "--config", str(cfg)]) == 2
        assert "converge" in capsys.readouterr().err

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
        src = str(Path(becphase.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "becphase", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out


class TestValidationReport:
    def test_report_structure(self):
        text = validation_report()
        matches = [ln for ln in text.splitlines() if "-> MATCH" in ln]
        mismatches = [ln for ln in text.splitlines() if "-> MISMATCH" in ln]
        assert len(matches) == 5
        assert len(mismatches) == 1
        assert "macro_single" in mismatches[0]
        assert "verbatim" in mismatches[0]

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
        assert len(table.rows) == 257
        table = run_scenario(cfg, "phase")
        assert len(table.rows) == 1
