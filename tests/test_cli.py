import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phonogap.crystal
from phonogap.cli import build_parser, main
from phonogap.crystal import Layer, Polarization, UnitCell, dispersion_curve, transit_time, two_layer_cell
from phonogap.design import ExtrapolationWarning
from phonogap.sampling import (
    ParameterDef, ParameterSpace, canonical_space, lhs_sample, map_to_space,
)
from phonogap.sobol import ModelFunction, analytic_poly_reference

from oracles import dispersion_reference_rows

# every point of this box is a cell with (nearly) equal layers: no first gap
GAP_FREE_SPACE = ParameterSpace(
    (
        ParameterDef("E2/E1", 1.0 - 1e-9, 1.0 + 1e-9),
        ParameterDef("rho2/rho1", 1.0 - 1e-9, 1.0 + 1e-9),
        ParameterDef("h2/h1", 0.999, 1.001),
        ParameterDef("nu1", 0.25, 0.2500001),
        ParameterDef("nu2", 0.25, 0.2500001),
    )
)


# Layers after a unit reference layer; each id names what leaves the float range.
CELLS_BEYOND_THE_FLOAT_RANGE = {
    "h-nan": '{"h": NaN, "rho": 20, "e": 100, "nu": 0.3}, {"h": 0.7, "rho": 5, "e": 30, "nu": 0.1}',
    "rho-infinity": '{"h": 0.5, "rho": Infinity, "e": 100, "nu": 0.3}, {"h": 0.7, "rho": 5, "e": 30, "nu": 0.1}',
    "e-overflows": '{"h": 0.5, "rho": 20, "e": 1e400, "nu": 0.3}, {"h": 0.7, "rho": 5, "e": 30, "nu": 0.1}',
    "h-sum-overflows": '{"h": 1.5e308, "rho": 20, "e": 100, "nu": 0.3}, {"h": 1.5e308, "rho": 5, "e": 30, "nu": 0.1}',
    "speed-underflows": '{"h": 1, "rho": 1e300, "e": 1e-300, "nu": 0.2}',
    "speed-overflows": '{"h": 1, "rho": 1e-300, "e": 1e300, "nu": 0.2}, {"h": 1, "rho": 3, "e": 30, "nu": 0.1}',
}


@pytest.fixture()
def reference_cell_file(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(two_layer_cell(1000.0, 2.0, 2.0, 0.2, 0.2).to_json())
    return path


@pytest.fixture()
def homogeneous_cell_file(tmp_path):
    cell = UnitCell((Layer(0.5, 1.0, 1.0, 0.2), Layer(0.5, 1.0, 1.0, 0.2)))
    path = tmp_path / "hom.json"
    path.write_text(cell.to_json())
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def contiguous_blocks(flags):
    blocks = 0
    previous = "0"
    for f in flags:
        if f == "1" and previous != "1":
            blocks += 1
        previous = f
    return blocks


class TestDispersionCommand:
    def test_gap_rows_form_contiguous_blocks(self, tmp_path, reference_cell_file):
        code = main(
            ["dispersion", "--cell", str(reference_cell_file), "--out", str(tmp_path),
             "--n-points", "900", "--seed", "3"]
        )
        assert code == 0
        for pol in ("S", "P"):
            rows = read_csv(tmp_path / f"dispersion_{pol}.csv")
            assert rows[0] == ["omega_hat", "half_trace", "k_hat_h", "in_gap"]
            flags = [r[3] for r in rows[1:]]
            assert contiguous_blocks(flags) >= 1
        summary = json.loads((tmp_path / "bandgap_summary.json").read_text())
        assert summary["seed"] == 3
        assert summary["first_band_gap"]["S"]["start"] < summary["first_band_gap"]["P"]["start"]

    def test_homogeneous_cell_has_no_gap_rows(self, tmp_path, homogeneous_cell_file):
        code = main(
            ["dispersion", "--cell", str(homogeneous_cell_file), "--out", str(tmp_path),
             "--n-points", "400"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "dispersion_S.csv")
        assert all(r[3] == "0" for r in rows[1:])
        summary = json.loads((tmp_path / "bandgap_summary.json").read_text())
        assert summary["first_band_gap"]["S"] is None

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["dispersion", "--cell", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_cell_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layers": [{"h": 1.0}]}')
        code = main(["dispersion", "--cell", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layers, options",
        [
            (
                '{"h": 2, "rho": 2, "e": 1000, "nu": 0.2}, {"h": 1, "rho": 3, "e": 30, "nu": 0.1}',
                ["--omega-max", "1e308", "--n-points", "3"],
            ),
            (
                '{"h": 1, "rho": 1e160, "e": 1e160, "nu": 0.2}, {"h": 1, "rho": 1e-160, "e": 1e-160, "nu": 0.1}',
                [],
            ),
        ],
        ids=["omega-max-overflows", "impedance-product-overflows"],
    )
    def test_non_finite_half_trace_exits_1(self, tmp_path, capsys, layers, options):
        path = tmp_path / "cell.json"
        path.write_text('{"layers": [{"h": 1, "rho": 1, "e": 1, "nu": 0.2}, ' + layers + "]}")
        assert main(["dispersion", "--cell", str(path), "--out", str(tmp_path), *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite half trace at sample 0: [")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]

    def test_json_format(self, tmp_path, reference_cell_file):
        code = main(
            ["dispersion", "--cell", str(reference_cell_file), "--out", str(tmp_path),
             "--n-points", "50", "--pol", "S", "--format", "json"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "dispersion_S.json").read_text())
        assert payload[0].keys() == {"omega_hat", "half_trace", "k_hat_h", "in_gap"}


class TestBandgapCommand:
    def test_summary_written(self, tmp_path, reference_cell_file, capsys):
        code = main(["bandgap", "--cell", str(reference_cell_file), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"S"' in out and '"P"' in out
        summary = json.loads((tmp_path / "bandgap_summary.json").read_text())
        gap = summary["first_band_gap"]["S"]
        assert gap["width"] == pytest.approx(gap["end"] - gap["start"], rel=1e-15)

    @pytest.mark.parametrize(
        "command, layers",
        [
            pytest.param(command, layers, id=name if command == "bandgap" else f"{name}-{command}")
            for name, layers in CELLS_BEYOND_THE_FLOAT_RANGE.items()
            for command in ("bandgap", "dispersion")
        ],
    )
    def test_cell_beyond_the_float_range_exits_2(self, tmp_path, capsys, command, layers):
        path = tmp_path / "cell.json"
        path.write_text('{"layers": [{"h": 1, "rho": 1, "e": 1, "nu": 0.2}, ' + layers + "]}")
        assert main([command, "--cell", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: malformed cell file") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]

    def test_slope_overflow_exits_0_without_a_warning(self, tmp_path, capsys):
        # |p| (a - b) of this cell, about 1/(2 E2/E1), is beyond the float
        # range: the gap decision discards the slope that overflows, and the
        # Newton safeguard bisects wherever the Newton point is not finite
        path = tmp_path / "cell.json"
        path.write_text(
            '{"layers": [{"h": 1, "rho": 1, "e": 1, "nu": 0.2}, {"h": 1, "rho": 1e-306, "e": 1e-310, "nu": 0.2}]}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bandgap", "--cell", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        cell = UnitCell.from_json(path.read_text())
        gaps = json.loads((tmp_path / "bandgap_summary.json").read_text())["first_band_gap"]
        for pol in ("S", "P"):
            bragg = math.pi / transit_time(cell, Polarization(pol))
            assert 0.0 < gaps[pol]["start"] < bragg < gaps[pol]["end"] < 2.0 * bragg

    @pytest.mark.parametrize(
        "layers, sample",
        [
            (
                '{"h": 1, "rho": 1e160, "e": 1e160, "nu": 0.2}, {"h": 1, "rho": 1e-160, "e": 1e-160, "nu": 0.1}',
                "1",
            ),
            (
                '{"h": 1, "rho": 1e-300, "e": 1e-300, "nu": 0.2}, {"h": 1, "rho": 2, "e": 3, "nu": 0.1}',
                "0 of k-section step 12",
            ),
        ],
        ids=["impedance-product-overflows", "impedance-product-underflows"],
    )
    def test_non_finite_half_trace_exits_1(self, tmp_path, capsys, layers, sample):
        # the first cell's matrix product overflows at the scan's first grid
        # sample, grid index 1; the second's omega * z rounds to zero inside
        # the edge refinement; either exits 1 with that omega_hat and no
        # warning
        path = tmp_path / "cell.json"
        path.write_text('{"layers": [{"h": 1, "rho": 1, "e": 1, "nu": 0.2}, ' + layers + "]}")
        assert main(["bandgap", "--cell", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite half trace at sample ")
        assert err.count("\n") == 1
        assert err.split("at sample ")[1].split(":")[0] == sample
        omega_hat = float(err.split("[")[1].rstrip("]\n"))
        tau = transit_time(UnitCell.from_json(path.read_text()), Polarization.S)
        step = math.pi / (phonogap.crystal._SCAN_STEPS_PER_BRANCH * tau)
        assert 0.0 < omega_hat <= step
        if "k-section" not in sample:
            assert omega_hat == int(sample) * step
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]


class TestSobolCommand:
    def test_poly_study_with_comparison(self, tmp_path):
        code = main(
            ["sobol", "--target", "poly", "--n", "3000", "--seed", "42", "--out", str(tmp_path)]
        )
        assert code == 0
        result = json.loads((tmp_path / "sobol_result.json").read_text())
        assert result["n_samples"] == 3000 and result["seed"] == 42
        indices = dict(
            zip(result["dim_names"], result["first_order_indices"])
        )
        pairs = {k: v["index"] for k, v in result["second_order"].items()}
        s2 = indices["x2"]
        s23 = pairs["x2|x3"]
        ranked = sorted(list(indices.values()) + list(pairs.values()), reverse=True)
        assert ranked[0] == pytest.approx(s23) and ranked[1] == pytest.approx(s2)
        assert "residual_higher_order_plus_noise" in result
        comparison = json.loads((tmp_path / "analytic_comparison.json").read_text())
        assert comparison["indices"]["2"]["analytic"] == pytest.approx(0.4281, abs=1e-4)
        exact = analytic_poly_reference().indices
        first = dict(zip("123", result["first_order_indices"]))
        for k in ("1", "2", "3", "12", "13", "23"):
            row = comparison["indices"][k]
            assert row["analytic"] == exact[k]
            assert row["estimated"] == (first[k] if len(k) == 1 else pairs[f"x{k[0]}|x{k[1]}"])
        rows = read_csv(tmp_path / "sobol_indices.csv")
        assert len(rows) == 1 + 3 + 3

    def test_function_export(self, tmp_path):
        code = main(
            ["sobol", "--target", "poly", "--n", "200", "--seed", "1", "--out", str(tmp_path),
             "--functions", "x2;x2,x3", "--grid", "12", "--inner", "16"]
        )
        assert code == 0
        rows1 = read_csv(tmp_path / "sobol_function_x2.csv")
        assert rows1[0] == ["u1", "value"] and len(rows1) == 13
        rows2 = read_csv(tmp_path / "sobol_function_x2-x3.csv")
        assert rows2[0] == ["u1", "u2", "value"] and len(rows2) == 1 + 144

    def test_unknown_function_dimension_exits_2(self, tmp_path, capsys):
        code = main(
            ["sobol", "--target", "poly", "--n", "200", "--out", str(tmp_path),
             "--functions", "zz"]
        )
        assert code == 2
        assert "unknown dimension" in capsys.readouterr().err

    def test_repeated_function_dimension_exits_2(self, tmp_path, capsys):
        code = main(
            ["sobol", "--target", "poly", "--n", "200", "--out", str(tmp_path),
             "--functions", "x2;x1,x1"]
        )
        assert code == 2
        stderr = capsys.readouterr().err
        assert "repeated dimension in --functions: 'x1,x1'" in stderr
        assert "Traceback" not in stderr
        assert not any(tmp_path.iterdir())

    def test_small_n_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sobol", "--target", "poly", "--n", "50", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "expected an integer >= 100, got '50'" in capsys.readouterr().err

    def test_space_with_the_polynomial_exits_2(self, tmp_path, capsys):
        # the polynomial has its own space: a --space file would go unread
        argv = ["sobol", "--target", "poly", "--n", "100", "--space", str(tmp_path / "absent.json")]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: --space applies to the band-gap targets, not to --target poly\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def run_with_space(tmp_path, dims, target="SS"):
        space_file = tmp_path / "space.json"
        space_file.write_text(ParameterSpace(tuple(dims)).to_json())
        return main(
            ["sobol", "--target", target, "--n", "100", "--space", str(space_file),
             "--out", str(tmp_path)]
        )

    def test_two_dimension_space_exits_2(self, tmp_path, capsys):
        dims = (ParameterDef("E2/E1", 10.0, 100.0, "log10"), ParameterDef("nu1", 0.0, 0.4))
        assert self.run_with_space(tmp_path, dims) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert not (tmp_path / "sobol_result.json").exists()

    def test_reordered_space_exits_2(self, tmp_path, capsys):
        dims = list(canonical_space().dims)
        dims[0], dims[1] = dims[1], dims[0]
        assert self.run_with_space(tmp_path, dims, target="WP") == 2
        assert "['E2/E1', 'rho2/rho1', 'h2/h1', 'nu1', 'nu2']" in capsys.readouterr().err
        assert not (tmp_path / "sobol_result.json").exists()

    @pytest.mark.parametrize(
        "target, index, bounds, name",
        [
            ("SP", 2, (-1.0, 9.0), "h2/h1"),
            ("SS", 3, (0.0, 0.49), "nu1"),
            ("WS", 4, (-0.1, 0.4), "nu2"),
        ],
        ids=["ratio-not-positive", "poisson-above-cap", "poisson-below-zero"],
    )
    def test_bounds_outside_the_solver_domain_exit_2(self, tmp_path, capsys, target, index, bounds, name):
        dims = list(canonical_space().dims)
        dims[index] = ParameterDef(name, *bounds)
        assert self.run_with_space(tmp_path, dims, target=target) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert f"{name} bounds [{bounds[0]}, {bounds[1]}]" in err
        assert not (tmp_path / "sobol_result.json").exists()

    @pytest.mark.parametrize("text", ["1e400", "Infinity"])
    def test_infinite_bound_exits_2(self, tmp_path, capsys, text):
        payload = json.loads(canonical_space().to_json())
        payload["dims"][0]["upper"] = "@"
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(payload).replace('"@"', text))
        code = main(
            ["sobol", "--target", "SS", "--n", "100", "--space", str(space_file),
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: malformed space file") and "E2/E1" in err
        assert not (tmp_path / "sobol_result.json").exists()

    def test_narrowed_canonical_space_runs(self, tmp_path):
        dims = [
            dataclasses.replace(d, upper=d.lower + 0.5 * (d.upper - d.lower))
            for d in canonical_space().dims
        ]
        assert self.run_with_space(tmp_path, dims) == 0
        result = json.loads((tmp_path / "sobol_result.json").read_text())
        assert result["dim_names"] == list(canonical_space().names)

    def test_thread_count_never_changes_payload(self, tmp_path):
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        for out, threads in ((out1, "1"), (out4, "4")):
            code = main(
                ["sobol", "--target", "SS", "--n", "150", "--seed", "9", "--out", str(out),
                 "--threads", threads]
            )
            assert code == 0
        for name in ("sobol_result.json", "sobol_indices.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


class TestDesignCommand:
    def test_eval_mode_orders_start_predictions(self, tmp_path, capsys):
        code = main(
            ["design", "--mode", "eval", "--params", "1000,2,2,0.2,0.2", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_eval.json").read_text())
        pred = payload["predictions_omega_hat"]
        assert set(pred) == {"SS", "WS", "SP", "WP"}
        assert pred["SS"] < pred["SP"]

    def test_eval_requires_params(self, tmp_path, capsys):
        code = main(["design", "--mode", "eval", "--out", str(tmp_path)])
        assert code == 2
        assert "--params" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["error", "truncation"])
    def test_params_outside_eval_mode_exit_2(self, tmp_path, capsys, mode):
        argv = ["design", "--mode", mode, "--params", "1,2,3", "--n", "50", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --params applies to --mode eval, not to --mode {mode}\n"
        assert not (tmp_path / "out").exists()

    def test_error_mode(self, tmp_path):
        code = main(
            ["design", "--mode", "error", "--kind", "SS", "--n", "300", "--seed", "5",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_error.json").read_text())
        assert payload["delta"]["SS"] < 0.1
        assert payload["seed"] == 5

    def test_truncation_mode_starts_at_one(self, tmp_path):
        code = main(
            ["design", "--mode", "truncation", "--kind", "SS", "--n", "300", "--seed", "5",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_truncation.json").read_text())
        deltas = payload["curves"]["SS"]["delta_by_k"]
        assert deltas[0] == pytest.approx(1.0, abs=0.02)
        assert len(deltas) == 4

    @pytest.mark.parametrize(
        "params",
        [
            "-1,2,2,0.2,0.2",
            "0,2,2,0.2,0.2",
            "nan,2,2,0.2,0.2",
            "1000,2,inf,0.2,0.2",
            "10,1,1,1e300,0.2",
            "10,1,1,0.5,0.2",
            "10,1,1,0.2,-0.1",
        ],
    )
    def test_eval_rejects_invalid_point(self, tmp_path, capsys, params):
        code = main(["design", "--mode", "eval", f"--params={params}", "--out", str(tmp_path)])
        assert code == 2
        assert "positive ratios" in capsys.readouterr().err
        assert not (tmp_path / "design_eval.json").exists()

    def test_eval_outside_box_warns_and_evaluates(self, tmp_path):
        with pytest.warns(ExtrapolationWarning):
            code = main(
                ["design", "--mode", "eval", "--params", "5,2,2,0.2,0.2", "--out", str(tmp_path)]
            )
        assert code == 0
        pred = json.loads((tmp_path / "design_eval.json").read_text())["predictions_omega_hat"]
        assert all(math.isfinite(v) for v in pred.values())

    def test_error_mode_is_the_last_truncation_level(self, tmp_path):
        for mode in ("error", "truncation"):
            code = main(
                ["design", "--mode", mode, "--n", "300", "--seed", "6", "--out", str(tmp_path)]
            )
            assert code == 0
        delta = json.loads((tmp_path / "design_error.json").read_text())["delta"]
        curves = json.loads((tmp_path / "design_truncation.json").read_text())["curves"]
        assert set(delta) == set(curves) == {"SS", "WS", "SP", "WP"}
        for kind, curve in curves.items():
            assert delta[kind] == curve["delta_by_k"][-1]

    @pytest.mark.parametrize("mode", ["error", "truncation"])
    def test_one_solve_per_polarization(self, tmp_path, monkeypatch, mode):
        solves = []
        bilayer_edges = phonogap.crystal._bilayer_edges

        def counted(points, pol, n_edges):
            solves.append((pol.value, n_edges))
            return bilayer_edges(points, pol, n_edges)

        monkeypatch.setattr(phonogap.crystal, "_bilayer_edges", counted)
        for kind, expected in (("all", [("S", 2), ("P", 2)]), ("SS", [("S", 1)])):
            solves.clear()
            argv = ["design", "--mode", mode, "--kind", kind, "--n", "100", "--out", str(tmp_path / kind)]
            assert main(argv) == 0
            assert solves == expected

    def test_error_mode_thread_invariance(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out, threads in ((out1, "1"), (out2, "3")):
            code = main(
                ["design", "--mode", "error", "--kind", "SP", "--n", "256", "--seed", "2",
                 "--threads", threads, "--out", str(out)]
            )
            assert code == 0
        assert (out1 / "design_error.json").read_bytes() == (out2 / "design_error.json").read_bytes()


class TestOutputContracts:
    def test_csv_floats_round_trip_bit_exactly(self, tmp_path, reference_cell_file):
        cell = two_layer_cell(1000.0, 2.0, 2.0, 0.2, 0.2)
        omega_max = 8.0 * math.pi / transit_time(cell, Polarization.S)
        main(
            ["dispersion", "--cell", str(reference_cell_file), "--out", str(tmp_path),
             "--pol", "S", "--n-points", "200"]
        )
        rows = read_csv(tmp_path / "dispersion_S.csv")[1:]
        curve = dispersion_curve(cell, omega_max, 200, Polarization.S)
        assert len(rows) == 200
        for row, w, ht in zip(rows, curve.omega_hat, curve.half_trace):
            assert float(row[0]) == w
            assert float(row[1]) == ht

    @pytest.mark.parametrize(
        "cell",
        [
            two_layer_cell(1000.0, 2.0, 2.0, 0.2, 0.2),
            UnitCell(
                (Layer(0.36, 1.0, 1.0, 0.2), Layer(0.41, 846.0, 1656.0, 0.2),
                 Layer(0.23, 829.0, 7412.0, 0.2))
            ),
        ],
    )
    def test_dispersion_matches_per_point_reference_bytes(self, tmp_path, cell):
        # the columnar writer must give the bytes of a row-by-row writer
        path = tmp_path / "cell.json"
        path.write_text(cell.to_json())
        for fmt in ("csv", "json"):
            code = main(
                ["dispersion", "--cell", str(path), "--pol", "S", "--n-points", "777",
                 "--format", fmt, "--out", str(tmp_path / fmt)]
            )
            assert code == 0
        omega_max = 8.0 * math.pi / transit_time(cell, Polarization.S)
        curve = dispersion_curve(cell, omega_max, 777, Polarization.S)
        assert curve.in_gap.any() and not curve.in_gap.all()
        rows = dispersion_reference_rows(curve.omega_hat, curve.half_trace)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        assert (tmp_path / "csv" / "dispersion_S.csv").read_bytes() == text.getvalue().encode()
        header, *data = rows
        typed = [{h: float(v) if v else None for h, v in zip(header, r)} for r in data]
        payload = json.dumps(typed, indent=2) + "\n"
        assert (tmp_path / "json" / "dispersion_S.json").read_bytes() == payload.encode()

    def test_json_tables_hold_the_csv_numbers(self, tmp_path, reference_cell_file):
        def typed(field):
            if not field:
                return None
            try:
                return float(field)
            except ValueError:
                return field

        # each command writes to its own directory: both sobol runs write sobol_indices
        commands = [
            ["dispersion", "--cell", str(reference_cell_file), "--pol", "S", "--n-points", "300"],
            ["sobol", "--target", "poly", "--n", "200", "--seed", "3", "--functions", "x2;x2,x3",
             "--grid", "5", "--inner", "4"],
            ["sobol", "--target", "SS", "--n", "100"],
        ]
        for k, argv in enumerate(commands):
            for fmt in ("csv", "json"):
                assert main([*argv, "--format", fmt, "--out", str(tmp_path / str(k) / fmt)]) == 0
        tables = {
            (0, "dispersion_S"): {float, type(None)},
            (1, "sobol_indices"): {float, str},
            (1, "sobol_function_x2"): {float},
            (1, "sobol_function_x2-x3"): {float},
            (2, "sobol_indices"): {float, str},
        }
        for (k, name), expected_kinds in tables.items():
            header, *rows = read_csv(tmp_path / str(k) / "csv" / f"{name}.csv")
            expected = [dict(zip(header, map(typed, r))) for r in rows]
            payload = json.loads((tmp_path / str(k) / "json" / f"{name}.json").read_text())
            # repr tells 1.0 from 1 and "1.0" and shows every bit of a float
            assert list(map(repr, payload)) == list(map(repr, expected))
            kinds = {type(v) for record in expected for v in record.values()}
            assert kinds == expected_kinds

    def test_default_output_dir_from_environment(self, tmp_path, monkeypatch, reference_cell_file):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PHONOGAP_OUT", str(target))
        code = main(["bandgap", "--cell", str(reference_cell_file)])
        assert code == 0
        assert (target / "bandgap_summary.json").exists()


class TestExitCodes:
    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sobol", "--target", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sobol", "--target", "poly", "--functions", "x1", "--grid", "1"], "--grid"),
            (["sobol", "--target", "poly", "--functions", "x1", "--inner", "1"], "--inner"),
            (["design", "--mode", "error", "--n", "1"], "--n"),
            (["design", "--mode", "truncation", "--n", "1"], "--n"),
            (["dispersion", "--cell", "cell.json", "--n-points", "1"], "--n-points"),
            (["dispersion", "--cell", "cell.json", "--omega-max", "-1"], "--omega-max"),
            (["dispersion", "--cell", "cell.json", "--omega-max", "nan"], "--omega-max"),
            (["design", "--mode", "error", "--seed", "-1"], "--seed"),
        ],
        ids=[
            "grid", "inner", "error-n", "truncation-n", "n-points", "omega-max-negative",
            "omega-max-nan", "seed",
        ],
    )
    def test_bad_numeric_arguments_exit_2(self, tmp_path, capsys, argv, option):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(tmp_path)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"argument {option}: expected" in stderr and "Traceback" not in stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["bandgap", "--cell", "cell.json", "--format", "csv"],
            ["bandgap", "--cell", "cell.json", "--format", "json"],
            ["design", "--mode", "eval", "--params", "1000,2,2,0.2,0.2", "--format", "csv"],
            ["design", "--mode", "error", "--n", "50", "--format", "csv"],
        ],
        ids=["bandgap-csv", "bandgap-json", "design-eval", "design-error"],
    )
    def test_format_on_a_json_only_command_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: --format {argv[-1]}\n")
        assert not (tmp_path / "out").exists()

    def test_help_lists_format_for_the_table_commands_only(self, capsys):
        listed = []
        for command in ("dispersion", "bandgap", "sobol", "design"):
            with pytest.raises(SystemExit) as err:
                main([command, "--help"])
            assert err.value.code == 0
            if "--format" in capsys.readouterr().out:
                listed.append(command)
        assert listed == ["dispersion", "sobol"]

    def test_constant_sobol_model_exits_1(self, tmp_path, capsys, monkeypatch):
        # a narrow --space can make the sampled objective constant to the last bit
        constant = ModelFunction(5, lambda u: np.full(len(u), 2.5), name="constant")
        monkeypatch.setattr(phonogap.cli, "objective_model", lambda *kinds, space: constant)
        code = main(["sobol", "--target", "SS", "--n", "100", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "numerical failure: zero total variance: the model is constant on this sample set\n"
        assert not any(tmp_path.iterdir())

    def test_gap_free_sobol_point_exits_1(self, tmp_path, capsys):
        space_file = tmp_path / "space.json"
        space_file.write_text(GAP_FREE_SPACE.to_json())
        code = main(
            ["sobol", "--target", "SS", "--n", "100", "--seed", "4", "--space", str(space_file),
             "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        point = map_to_space(lhs_sample(5, 100, 4).original, GAP_FREE_SPACE)[0]
        assert err == f"numerical failure: no first band gap at sample 0: {point.tolist()}\n"

    def test_non_finite_bilayer_speed_exits_1(self, tmp_path, capsys):
        # rows with E2/rho2 beyond the float range overflow the layer-2 wave speed
        dims = list(canonical_space().dims)
        dims[0] = dataclasses.replace(dims[0], lower=10.0, upper=1e300)
        dims[1] = dataclasses.replace(dims[1], lower=1e-300, upper=100.0)
        space_file = tmp_path / "space.json"
        space_file.write_text(ParameterSpace(tuple(dims)).to_json())
        code = main(
            ["sobol", "--target", "SS", "--n", "100", "--space", str(space_file), "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        prefix = "numerical failure: S-wave speed or impedance of layer 2 is zero or beyond the float range"
        assert err.startswith(prefix + " at sample ") and err.count("\n") == 1
        point = json.loads(err.split(": ", 2)[2])
        assert point[0] / point[1] > 1e308
        assert sorted(p.name for p in tmp_path.iterdir()) == ["space.json"]

    def test_gap_free_design_point_exits_1(self, tmp_path, capsys, monkeypatch):
        # the design command always samples the canonical space, where every
        # cell has a gap; only a patched space reaches the failure
        monkeypatch.setattr(phonogap.crystal, "canonical_space", lambda: GAP_FREE_SPACE)
        code = main(
            ["design", "--mode", "error", "--kind", "WP", "--n", "100", "--seed", "4",
             "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        point = map_to_space(lhs_sample(5, 100, 4).original, GAP_FREE_SPACE)[0]
        assert err == f"numerical failure: no first band gap at sample 0: {point.tolist()}\n"
        assert not (tmp_path / "design_error.json").exists()

    def test_unclosed_gap_exits_1(self, tmp_path, capsys, monkeypatch):
        # this three-layer cell's S gap runs from about 0.033 to 1.74 Bragg
        # frequencies; a search cap of 0.1 finds its start but cannot close it
        cell = UnitCell(
            (Layer(0.36, 1.0, 1.0, 0.2), Layer(0.41, 846.0, 1656.0, 0.2), Layer(0.23, 829.0, 7412.0, 0.2))
        )
        path = tmp_path / "cell.json"
        path.write_text(cell.to_json())
        monkeypatch.setattr(phonogap.crystal, "_SCAN_CAP_BRAGG", 0.1)
        code = main(["bandgap", "--cell", str(path), "--pol", "S", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: S-wave band gap starting at omega_hat=")
        assert "did not close" in err and "(0.41, 846.0, 1656.0, 0.2)" in err

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["bandgap", "--cell", "CELL"], "file"),  # FileExistsError
            (["sobol", "--target", "poly", "--n", "100"], "file/sub"),  # NotADirectoryError
            (["design", "--mode", "eval", "--params", "1000,2,2,0.2,0.2"], "env:file"),  # FileExistsError
            (["sobol", "--target", "poly", "--n", "100"], "dir"),  # IsADirectoryError
        ],
        ids=["out-is-a-file", "out-below-a-file", "env-out-is-a-file", "artifact-is-a-directory"],
    )
    def test_unwritable_output_exits_2(
        self, tmp_path, capsys, monkeypatch, reference_cell_file, argv, out
    ):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "sobol_result.json").mkdir(parents=True)
        argv = [str(reference_cell_file) if a == "CELL" else a for a in argv]
        if out.startswith("env:"):
            monkeypatch.setenv("PHONOGAP_OUT", str(tmp_path / out[4:]))
        else:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write output: ")
        assert "Traceback" not in err

    def test_reproducible_reruns_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            main(["sobol", "--target", "poly", "--n", "500", "--seed", "11", "--out", str(out)])
        for name in ("sobol_result.json", "sobol_indices.csv", "analytic_comparison.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_rejected_command_then_valid_command(self, tmp_path, reference_cell_file):
        with pytest.raises(SystemExit) as err:
            main(["bandgap", "--cell", str(reference_cell_file), "--pol", "X", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert main(["bandgap", "--cell", str(reference_cell_file), "--out", str(tmp_path)]) == 0
        assert build_parser() is build_parser()

    def test_no_option_carries_over_to_the_next_call(self, tmp_path):
        argv = ["sobol", "--target", "poly", "--n", "100", "--functions", "x1", "--grid", "4",
                "--inner", "4"]
        assert main([*argv, "--seed", "5", "--format", "json", "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert sorted(artifacts(tmp_path / "b")) == [
            "analytic_comparison.json", "sobol_function_x1.csv", "sobol_indices.csv", "sobol_result.json",
        ]
        assert json.loads((tmp_path / "b" / "sobol_result.json").read_text())["seed"] == 0

    def test_back_to_back_commands_match_fresh_interpreters(self, tmp_path, reference_cell_file):
        commands = [
            ["sobol", "--target", "poly", "--n", "200", "--seed", "3", "--functions", "x2;x2,x3",
             "--grid", "5", "--inner", "4"],
            ["bandgap", "--cell", str(reference_cell_file), "--seed", "3"],
            ["design", "--mode", "error", "--kind", "WS", "--n", "50", "--seed", "3"],
        ]
        for i, argv in enumerate(commands):
            assert main([*argv, "--out", str(tmp_path / "same" / str(i))]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(phonogap.crystal.__file__).parent.parent)}
        for i, argv in enumerate(commands):
            subprocess.run(
                [sys.executable, "-m", "phonogap.cli", *argv, "--out", str(tmp_path / "fresh" / str(i))],
                check=True, capture_output=True, env=env,
            )
            assert artifacts(tmp_path / "same" / str(i)) == artifacts(tmp_path / "fresh" / str(i))
