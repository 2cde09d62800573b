"""Serialization formats and the command-line front end."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussmink
from gaussmink import cli, discrete, serialize, smooth
from gaussmink.cli import build_parser, main
from gaussmink.errors import SolverStallError
from gaussmink.families import (cos_density, random_spanning_measure,
                                square_surface_measure, uniform_mgon_measure)
from gaussmink.gaussian import (gauss_constants, gauss_volume_exact,
                                lp_gauss_surface_polygon)
from gaussmink.geometry import (DiscreteMeasure, SupportField, box_polygon,
                                disc_polygon, wulff_shape)
from gaussmink.verify import CheckResult

UNIT_SQUARE_EDGE_MASS = 0.16519087103401669


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def ring_body(seed: int = 3):
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, 7))
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return wulff_shape(normals, rng.uniform(0.8, 1.6, 7))


class TestEchoFloat:
    def test_nine_significant_digits(self):
        assert serialize.echo_float(math.pi) == "3.14159265"
        assert serialize.echo_float(0.16519087103401669) == "0.165190871"
        assert serialize.echo_float(1.0) == "1"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.echo_float(math.inf)
        with pytest.raises(ValueError):
            serialize.echo_float(math.nan)


class TestBodyFormat:
    def test_round_trip_square(self):
        body = box_polygon(1.0)
        back = serialize.body_from_dict(serialize.body_to_dict(body))
        assert back.num_edges == body.num_edges
        np.testing.assert_allclose(back.support, body.support, rtol=1e-8)
        np.testing.assert_allclose(back.normals, body.normals, atol=1e-8)

    def test_round_trip_random_polygon(self):
        body = ring_body()
        back = serialize.body_from_dict(serialize.body_to_dict(body))
        np.testing.assert_allclose(back.support, body.support, rtol=1e-8)

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            serialize.body_from_dict({"support": [1.0]})
        with pytest.raises(ValueError):
            serialize.body_from_dict({"dimension": 3, "normals": [[1, 0]],
                                      "support": [1.0]})
        with pytest.raises(ValueError):
            serialize.body_from_dict({"normals": [[0.0, 0.0]], "support": [1.0]})

    def test_dumps_json_sorted_and_stable(self):
        payload = serialize.body_to_dict(box_polygon(1.0))
        text = serialize.dumps_json(payload)
        assert text == serialize.dumps_json(serialize.body_to_dict(box_polygon(1.0)))
        assert text.index('"dimension"') < text.index('"normals"')
        assert text.endswith("\n")


class TestMeasureFormat:
    def test_round_trip(self):
        mu = square_surface_measure()
        back, p = serialize.measure_from_dict(serialize.measure_to_dict(mu, 1.5))
        assert p == 1.5
        np.testing.assert_allclose(back.masses, mu.masses, rtol=1e-8)
        np.testing.assert_allclose(back.directions, mu.directions, atol=1e-8)

    def test_default_p_is_one(self):
        data = serialize.measure_to_dict(square_surface_measure())
        del data["p"]
        _, p = serialize.measure_from_dict(data)
        assert p == 1.0

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            serialize.measure_from_dict({"dimension": 2, "atoms": []})
        with pytest.raises(ValueError):
            serialize.measure_from_dict({"dimension": 2})
        with pytest.raises(ValueError, match="atom 1"):
            serialize.measure_from_dict(
                {"atoms": [{"direction": [1, 0], "mass": 1}, {"direction": [0, 1]}]})
        with pytest.raises(ValueError, match="atom 0"):
            serialize.measure_from_dict({"atoms": [1, 2]})
        with pytest.raises(ValueError, match="planar"):
            serialize.measure_from_dict(
                {"dimension": 3, "atoms": [{"direction": [1, 0, 0], "mass": 1}]})


class TestDensityFormat:
    def test_round_trip(self):
        f = cos_density(128)
        back = serialize.density_from_dict(serialize.density_to_dict(f))
        assert back.shape == (128,)
        np.testing.assert_allclose(back, f, rtol=1e-8)

    def test_resolution_must_match(self):
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 4, "values": [1.0, 2.0]})
        with pytest.raises(ValueError, match="disagrees"):  # not truncated to 2
            serialize.density_from_dict({"resolution": 2.9, "values": [1.0, 2.0]})
        back = serialize.density_from_dict({"resolution": 2.0, "values": [1.0, 2.0]})
        assert back.size == 2

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 2, "values": [1.0, -2.0]})
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 0, "values": []})


class TestClassifyPayload:
    def test_each_kind(self):
        assert serialize.classify_payload({"support": []}) == "body"
        assert serialize.classify_payload({"atoms": []}) == "measure"
        assert serialize.classify_payload({"values": []}) == "density"

    def test_unknown_payload(self):
        with pytest.raises(ValueError):
            serialize.classify_payload({"spam": 1})
        with pytest.raises(ValueError):
            serialize.classify_payload({"edges": []})
        with pytest.raises(ValueError):
            serialize.classify_payload([1, 2])


class TestTextFormats:
    def test_constants_lines(self):
        text = serialize.constants_text(gauss_constants(2, 1.0))
        kv = parse_kv(text)
        assert kv["n"] == "2"
        assert kv["r_half"] == "1.17741002"
        assert kv["a_half"] == "0.67448975"
        assert kv["mass_bound"] == "0.364082243"
        assert text.endswith("\n")

    def test_edge_measure_lines(self):
        masses = lp_gauss_surface_polygon(box_polygon(1.0), 1.0)
        kv = parse_kv(serialize.edge_measure_text(masses, 1.0))
        assert kv["p"] == "1"
        assert kv["edges"] == "4"
        assert kv["mass_0"] == "0.165190871"
        assert kv["total"] == "0.660763484"

    def test_report_lines(self):
        from gaussmink.report import SolveReport
        report = SolveReport(body=box_polygon(1.0), multiplier=2.0,
                             volume_residual=1e-9, stationarity_residual=1e-5,
                             iterations=7, flags=("a", "b"),
                             objective_trace=(0.7, 0.65))
        kv = parse_kv(serialize.report_text(report))
        assert kv["multiplier"] == "2"
        assert kv["iterations"] == "7"
        assert "outer_rounds" not in kv  # iterations is the step count
        assert kv["flags"] == "a;b"


class TestBoundarySvg:
    def test_structure(self):
        svg = serialize.boundary_svg(box_polygon(1.0))
        assert svg.startswith("<svg")
        assert 'viewBox="-4 -4 8 8"' in svg
        assert svg.count("<circle") == 1 and 'r="1"' in svg
        assert svg.count("<polyline") == 1

    def test_sample_count_and_closure(self):
        svg = serialize.boundary_svg(disc_polygon(2.0, 256))
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == serialize.PLOT_SAMPLES + 1
        assert points[0] == points[-1]

    def test_disc_radii(self):
        svg = serialize.boundary_svg(disc_polygon(2.0, 4096))
        points = svg.split('points="')[1].split('"')[0].split()
        coords = np.array([[float(c) for c in pt.split(",")] for pt in points])
        radii = np.hypot(coords[:, 0], coords[:, 1])
        np.testing.assert_allclose(radii, 2.0, rtol=1e-5)

    def test_accepts_field(self):
        field = SupportField(np.full(64, 1.3))
        svg = serialize.boundary_svg(field)
        assert "<polyline" in svg

    def test_rejects_other_objects(self):
        with pytest.raises(ValueError):
            serialize.boundary_svg(square_surface_measure())


# the flags each parser reads: argparse refuses every other flag
READS = {
    ("constants",): {"--output", "--p", "--n"},
    ("measure",): {"--input", "--output", "--p"},
    ("solve-discrete",): {"--input", "--output", "--p", "--tol"},
    ("solve-smooth",): {"--input", "--family", "--output", "--p", "--tol",
                        "--resolution", "--amplitude", "--frequency"},
    ("verify",): {"--output", "--seed", "--n"},
    ("plot",): {"--input", "--output"},
    ("generate", "uniform-mgon"): {"--output", "--n", "--p"},
    ("generate", "square-measure"): {"--output", "--p"},
    ("generate", "cos-density"): {"--output", "--resolution", "--amplitude",
                                  "--frequency"},
    ("generate", "random-even"): {"--output", "--seed", "--p"},
    ("generate", "hemisphere-bad"): {"--output", "--seed", "--p"},
}
FLAG_VALUES = {"--input": "in.json", "--output": "out.json", "--p": "2",
               "--tol": "1e-6", "--seed": "3", "--resolution": "128",
               "--amplitude": "0.1", "--frequency": "3", "--family": "cos",
               "--n": "4"}
UNREAD = [(command, flag) for command, reads in READS.items()
          for flag in sorted(FLAG_VALUES.keys() - reads)]
FAMILIES = [command[1] for command in READS if command[0] == "generate"]


class TestFlagContract:
    def test_table_names_every_flag(self):
        assert set().union(*READS.values()) == FLAG_VALUES.keys()

    @pytest.mark.parametrize("command,flag", UNREAD,
                             ids=[f"{' '.join(c)} {f}" for c, f in UNREAD])
    def test_unread_flag_is_a_usage_error(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out.json"
        # solve-smooth needs its density source before argparse gets to
        # the unread flag
        source = ["--family", "cos"] if command == ("solve-smooth",) else []
        with pytest.raises(SystemExit) as exc:
            main([*command, *source, flag, FLAG_VALUES[flag], "--output", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", [(), ("generate",), *READS],
                             ids=lambda c: " ".join(c) or "gaussmink")
    def test_help_lists_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert listed == READS.get(command, {"--output"} if command else set())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_writes_identical_files(self, family, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", family, "--output", str(a)]) == 0
        assert main(["generate", family, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_value_checks(self, capsys):
        for argv, message in [
            (["dance"], "invalid choice: 'dance'"),
            (["generate", "cos-density", "--resolution", "32"],
             "argument --resolution: resolution must lie in [64, 1048576]"),
            (["solve-smooth", "--family", "cos", "--resolution", str(2**21)],
             "argument --resolution: resolution must lie in [64, 1048576]"),
            (["constants", "--p", "nan"], "argument --p: p must be finite"),
            (["solve-discrete", "--input", "mu.json", "--tol", "0"],
             "argument --tol: tolerance must be positive and finite"),
            (["solve-smooth", "--family", "cos", "--tol", "inf"],
             "argument --tol: tolerance must be positive and finite"),
            (["verify", "--seed", "-1"], "argument --seed: seed must be nonnegative"),
            (["measure", "--p", "one"], "argument --p: invalid float value: 'one'"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, argv
        args = build_parser().parse_args(
            ["generate", "cos-density", "--resolution", str(2**20)])
        assert args.resolution == 2**20


class TestConstantsCommand:
    def test_matches_library(self, capsys):
        assert main(["constants", "--n", "2", "--p", "1"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["r_half"] == "1.17741002"
        assert kv["mass_bound"] == "0.364082243"

    def test_other_dimension(self, capsys):
        assert main(["constants", "--n", "3", "--p", "2"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        expected = gauss_constants(3, 2.0)
        assert kv["r_half"] == serialize.echo_float(expected.r_half)

    def test_large_p_reports_a_zero_bound(self, capsys):
        # mass_bound underflows to 0 above p ~ 4550; it used to exit 2
        assert main(["constants", "--p", "5000"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["mass_bound"] == "0" and kv["r_half"] == "1.17741002"

    def test_overflowing_bound_is_invalid_input(self, capsys):
        # r_half^(-p) overflows: this used to exit 1 with an OverflowError
        # traceback
        assert main(["constants", "--p", "-5000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mass_bound overflows at p = -5000\n"

    def test_invalid_dimension(self, capsys):
        assert main(["constants", "--n", "1"]) == 2

    def test_module_entry_point(self, capsys):
        # python -m gaussmink.cli runs main through the module's __main__ guard
        env = {**os.environ, "PYTHONPATH": str(Path(gaussmink.__file__).parents[1])}
        argv = ["constants", "--n", "2", "--p", "1"]
        run = subprocess.run([sys.executable, "-m", "gaussmink.cli", *argv], env=env,
                             capture_output=True, text=True, check=True)
        assert main(argv) == 0
        assert run.stdout == capsys.readouterr().out and run.stderr == ""

    def test_resolution_flag_not_accepted(self, capsys):
        # constants reads no grid: --resolution is an argparse error naming
        # the flag, not a range check on a value nobody uses
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--resolution", "32"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --resolution 32" in capsys.readouterr().err


class TestMeasureCommand:
    def test_unit_square_masses(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(serialize.dumps_json(
            serialize.body_to_dict(box_polygon(1.0))))
        out_path = tmp_path / "measure.json"
        assert main(["measure", "--input", str(path), "--p", "1",
                     "--output", str(out_path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        for i in range(4):
            assert abs(float(kv[f"mass_{i}"]) - UNIT_SQUARE_EDGE_MASS) < 1e-9
        mu, p = serialize.measure_from_dict(json.loads(out_path.read_text()))
        assert p == 1.0
        np.testing.assert_allclose(mu.masses, UNIT_SQUARE_EDGE_MASS, rtol=1e-8)

    def test_output_is_a_measure_file_solve_discrete_reads(self, tmp_path, capsys):
        body_path, mu_path = tmp_path / "sq.json", tmp_path / "em.json"
        body_path.write_text(serialize.dumps_json(
            serialize.body_to_dict(box_polygon(0.8))))
        assert main(["measure", "--input", str(body_path), "--p", "1.5",
                     "--output", str(mu_path)]) == 0
        capsys.readouterr()
        assert main(["solve-discrete", "--input", str(mu_path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["stationarity_residual"]) <= 1e-4

    def test_output_refused_when_every_mass_underflows(self, tmp_path, capsys):
        # edges at distance 40 carry e^{-800}, which is 0 in floating point
        body_path, mu_path = tmp_path / "far.json", tmp_path / "em.json"
        body_path.write_text(serialize.dumps_json(
            serialize.body_to_dict(box_polygon(40.0))))
        assert main(["measure", "--input", str(body_path),
                     "--output", str(mu_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no positive atoms" in captured.err
        assert not mu_path.exists()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_support_names_the_cause(self, bad, tmp_path, capsys):
        # NaN support used to be reported as "a polygon needs at least 3
        # edges", inf as "consecutive normals must be less than pi apart"
        path = tmp_path / "body.json"
        path.write_text('{"dimension": 2, "normals": [[1, 0], [0, 1], [-1, 0], '
                        f'[0, -1]], "support": [1, 1, {bad}, 1]}}')
        assert main(["measure", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: support values must be finite\n"

    def test_rejects_measure_file(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        assert main(["measure", "--input", str(path)]) == 2
        assert "expects a body file" in capsys.readouterr().err

    def test_requires_input(self, capsys):
        assert main(["measure"]) == 2

    def test_missing_file(self, capsys):
        assert main(["measure", "--input", "/nonexistent/x.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["measure", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path} is not valid JSON" in err and "Traceback" not in err


def _singular_system(*args):
    raise SolverStallError("singular cyclic-tridiagonal system")


class TestSolveDiscreteCommand:
    def test_square_round_trip(self, tmp_path, capsys):
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        body_path = tmp_path / "body.json"
        assert main(["solve-discrete", "--input", str(mu_path),
                     "--output", str(body_path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert abs(float(kv["multiplier"]) - 1.0) < 1e-3
        assert "no-uniqueness-certificate" in kv["flags"]
        body = serialize.body_from_dict(json.loads(body_path.read_text()))
        assert abs(gauss_volume_exact(body) - 0.5) < 1e-6

    def test_ten_thousand_atom_file_solves(self, tmp_path, capsys):
        # a valid measure file whose closest atoms are ~1e-8 rad apart: it
        # used to exit 2, "vertices do not lie on their edge lines"
        rng = np.random.default_rng(1)
        theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             rng.uniform(0.02, 0.3, 10_000))
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(serialize.measure_to_dict(mu, 1.5)))
        assert main(["solve-discrete", "--input", str(path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["stationarity_residual"]) <= 1e-4

    def test_seed_flag_not_accepted(self, capsys):
        # a discrete solve is deterministic; a seed would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["solve-discrete", "--input", "mu.json", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_hemisphere_violation_is_invalid_input(self, tmp_path, capsys):
        from gaussmink.families import hemisphere_bad_measure
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(hemisphere_bad_measure())))
        assert main(["solve-discrete", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "hemisphere" in err
        assert "without bound" in err

    def test_light_octagon_solves(self, tmp_path, capsys):
        # total mass 1e-8: the hemisphere margin, 3.02e-9, sat below an
        # absolute gate at 1e-8, and the run exited 2
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(uniform_mgon_measure(8, 1e-8), 1.5)))
        assert main(["solve-discrete", "--input", str(path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["multiplier"] == "2.65997823e-08" and kv["iterations"] == "0"

    @pytest.mark.parametrize("name,value,stop", [
        ("MAX_STEPS", 2, "2 steps (step limit 2): |volume residual| = 0.00169, "
                         "stationarity residual = 0.254"),
        ("MAX_HALVINGS", 0, "0 steps (rounding floor: no step halving reduces the "
                            "residual): |volume residual| = 0, stationarity residual = 5"),
        ("solve_cyclic_tridiagonal", _singular_system, "0 steps (singular KKT matrix): "
         "|volume residual| = 0, stationarity residual = 5"),
    ], ids=["step-limit", "halvings-exhausted", "singular"])
    def test_newton_kkt_stops_are_non_convergence(self, name, value, stop, monkeypatch,
                                                  tmp_path, capsys):
        # unpatched, this measure solves in 6 Newton steps at p = 1.5
        monkeypatch.setattr(discrete, name, value)
        mu = random_spanning_measure(np.random.default_rng(3), 20, 64)
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(serialize.measure_to_dict(mu, 1.5)))
        assert main(["solve-discrete", "--input", str(path)]) == 3
        error, summary = capsys.readouterr().err.splitlines()
        assert error == f"error: Newton-KKT stopped after {stop}"
        assert summary.startswith(f"trace: {stop[0]} Newton steps, last phi = ")

    @pytest.mark.parametrize("atoms", [
        [{"direction": [1, 0], "mass": 0.2}, {"direction": [-1, 0]}],
        [1, 2],
    ], ids=["missing-mass", "bare-numbers"])
    def test_malformed_measure_is_invalid_input(self, tmp_path, capsys, atoms):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "p": 1.0, "atoms": atoms}))
        assert main(["solve-discrete", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: atom ") and "Traceback" not in err

    def test_non_planar_measure_is_invalid_input(self, tmp_path, capsys):
        data = serialize.measure_to_dict(square_surface_measure())
        data["dimension"] = 3
        path = tmp_path / "mu3.json"
        path.write_text(serialize.dumps_json(data))
        assert main(["solve-discrete", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: only planar measures are supported\n"

    def test_unreachable_tolerance_is_non_convergence(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        theta = np.sort(rng.uniform(0.05, math.pi - 0.05, 4))
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        mu = DiscreteMeasure(2, np.vstack([dirs, -dirs]),
                             np.tile(rng.uniform(0.05, 0.2, 4), 2))
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(serialize.measure_to_dict(mu)))
        assert main(["solve-discrete", "--input", str(path),
                     "--tol", "1e-30"]) == 3
        err = capsys.readouterr().err
        assert "error" in err
        # the objective trace is summarized: phi after the last Newton step
        summary = err.splitlines()[-1]
        assert summary.startswith("trace: ") and " Newton steps, last phi = " in summary
        assert float(summary.rsplit(" = ", 1)[1]) > 0.0


    @pytest.mark.parametrize("p", ["3000", "4500", "5000"])
    def test_exponent_out_of_range_is_invalid_input(self, p, tmp_path, capsys):
        # p = 3000 stalled (exit 3) on a singular KKT matrix, 4500 ended in a
        # traceback, 5000 named a facet without mass, all with RuntimeWarnings
        path = tmp_path / "square.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve-discrete", "--input", str(path), "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: p = {p} is out of the discrete "
                                       "solver's range: at the start radius 1.17741,")

    def test_non_finite_objective_in_the_trace_summary(self, monkeypatch, tmp_path,
                                                       capsys):
        # phi = inf ended the trace at p = 4500: echo_float raised inside
        # main's handler, and the run exited 1 with a traceback
        def stall(prob):
            raise SolverStallError("stalled", trace=[0.5, math.inf])
        monkeypatch.setattr(cli, "solve_constrained", stall)
        path = tmp_path / "square.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        assert main(["solve-discrete", "--input", str(path)]) == 3
        assert capsys.readouterr().err == ("error: stalled\n"
                                           "trace: 1 Newton steps, last phi = inf\n")


SQUARE_NORMALS = [[1, 0], [0, 1], [-1, 0], [0, -1]]
SQUARE_ATOMS = [{"direction": d, "mass": 0.1} for d in SQUARE_NORMALS]


class TestMalformedNumbers:
    @pytest.mark.parametrize("command,payload,named", [
        ("solve-smooth", {"resolution": [1], "values": [0.045] * 64}, "'resolution'"),
        ("solve-smooth", {"resolution": None, "values": [0.045] * 64}, "'resolution'"),
        ("solve-smooth", {"resolution": math.inf, "values": [0.045] * 64},
         "'resolution'"),
        ("solve-smooth", {"values": {"a": 1}}, "density values"),
        ("solve-discrete", {"p": [1], "atoms": SQUARE_ATOMS}, "'p'"),
        ("solve-discrete", {"p": None, "atoms": SQUARE_ATOMS}, "'p'"),
        ("solve-discrete", {"p": math.nan, "atoms": SQUARE_ATOMS}, "'p'"),
        ("measure", {"support": {"a": 1}, "normals": SQUARE_NORMALS}, "'support'"),
        ("measure", {"support": [1, 1, 1, 1], "normals": [[{"a": 1}, 0]] * 4},
         "normals"),
    ], ids=["resolution-list", "resolution-null", "resolution-infinite",
            "values-object", "p-list", "p-null", "p-nan", "support-object",
            "normal-object"])
    def test_is_invalid_input_naming_the_field(self, tmp_path, capsys, command,
                                               payload, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err


class TestSolveSmoothCommand:
    def test_cos_family_report(self, capsys):
        assert main(["solve-smooth", "--family", "cos", "--amplitude", "0.2",
                     "--frequency", "2", "--p", "1",
                     "--resolution", "128"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["stationarity_residual"]) <= 1e-9
        assert float(kv["volume_residual"]) > 0.0
        assert int(kv["homotopy_steps"]) >= 2

    def test_constant_family_field_output(self, tmp_path, capsys):
        out = tmp_path / "field.json"
        assert main(["solve-smooth", "--family", "constant",
                     "--resolution", "128", "--output", str(out)]) == 0
        values = serialize.density_from_dict(json.loads(out.read_text()))
        assert values.shape == (128,)
        assert np.ptp(values) == 0.0

    def test_density_file_input(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(serialize.dumps_json(
            serialize.density_to_dict(cos_density(128, 0.03))))
        assert main(["solve-smooth", "--input", str(path), "--p", "2"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["stationarity_residual"]) <= 1e-9

    def test_mass_bound_refusal(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        path.write_text(serialize.dumps_json(
            serialize.density_to_dict(np.full(128, 0.08))))
        assert main(["solve-smooth", "--input", str(path), "--p", "1"]) == 2
        assert "mass" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-smooth", "--family", "sin"])
        assert exc.value.code == 2
        assert "argument --family: invalid choice: 'sin'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,source,unread", [
        (["--input", "f.json", "--resolution", "512", "--amplitude", "0.9"],
         "--input", "--resolution, --amplitude"),
        (["--input", "f.json", "--family", "cos"], "--input", "--family"),
        (["--family", "constant", "--frequency", "7"],
         "--family constant", "--frequency"),
        (["--family", "constant", "--amplitude", "0.1", "--resolution", "128"],
         "--family constant", "--amplitude"),
        # the typed value equals cos_density's default and is still refused
        (["--input", "f.json", "--resolution", "256"], "--input", "--resolution"),
        # listed in the grid's order, not in the order typed
        (["--input", "f.json", "--frequency", "3", "--amplitude", "0.1"],
         "--input", "--amplitude, --frequency"),
    ])
    def test_unread_flag_is_invalid_input(self, argv, source, unread, capsys):
        # the handler refuses the grid flags its source does not read;
        # argparse refuses a second source
        try:
            code = main(["solve-smooth", *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"solve-smooth {source} does not read {unread}" in captured.err
                or f"argument {unread}: not allowed with argument {source}"
                in captured.err)

    def test_needs_input_or_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-smooth"])
        assert exc.value.code == 2
        assert ("one of the arguments --input --family is required"
                in capsys.readouterr().err)

    def test_resolution_below_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-smooth", "--family", "cos", "--resolution", "32"])
        assert exc.value.code == 2
        assert "argument --resolution: resolution must lie in" in capsys.readouterr().err

    def test_tolerance_below_rounding_floor(self, capsys):
        assert main(["solve-smooth", "--family", "cos",
                     "--resolution", "8192"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error, summary = captured.err.splitlines()
        assert error.startswith("error: Newton stalled at the rounding floor")
        assert "floor estimate" in error and "pass --tol >= " in error
        assert "t_step_min" not in error and "Traceback" not in captured.err
        assert summary == ("trace: 0 accepted continuation steps, "
                           "last accepted t = 0")

    def test_newton_failure_names_its_rung(self, monkeypatch, capsys):
        monkeypatch.setattr(smooth, "NEWTON_MAX_ITERS", 2)
        assert main(["solve-smooth", "--family", "cos"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error, summary = captured.err.splitlines()
        assert error.startswith("error: ") and "t = 0.25" in error
        assert summary == ("trace: 0 accepted continuation steps, "
                           "last accepted t = 0")

    def test_damping_failure_off_the_floor(self, tmp_path, capsys):
        # a narrow bump on a low floor, at 0.85 of the mass bound for p = 0.5:
        # the direct solve and the ladder both stall well above the rounding
        # floor, the ladder on its last rung
        theta = 2.0 * math.pi * np.arange(256) / 256
        d = np.angle(np.exp(1j * theta))  # the angle to 0, wrapped into (-pi, pi]
        g = 0.05 + 5.0 * np.exp(-0.5 * (d / 0.3) ** 2)
        g *= 0.85 * gauss_constants(2, 0.5).mass_bound / (2.0 * math.pi * g.mean())
        path = tmp_path / "bump.json"
        path.write_text(serialize.dumps_json(serialize.density_to_dict(g)))
        assert main(["solve-smooth", "--input", str(path), "--p", "0.5"]) == 3
        assert capsys.readouterr().err == (
            "error: damped Newton step failed to reduce the residual on the "
            "continuation rung t = 1\n"
            "trace: 3 accepted continuation steps, last accepted t = 0.75\n")

    def test_lost_volume_certificate(self, monkeypatch, capsys):
        monkeypatch.setattr(smooth, "field_gauss_volume", lambda field: 0.5)
        assert main(["solve-smooth", "--family", "constant"]) == 3
        assert capsys.readouterr().err == ("error: path lost the volume certificate "
                                           "at t = 0: gauss volume 0.5 <= 1/2\n")

    def test_tolerance_above_rounding_floor(self, capsys):
        assert main(["solve-smooth", "--family", "cos", "--resolution", "8192",
                     "--tol", "1e-10"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["stationarity_residual"]) <= 1e-10

    # sha256 of the --output field file, iterations=, homotopy_steps=
    PINNED_COS_256 = {
        "1": ("dd1a2107bec8b590d06cd642a87f854f4497d1853d9918ea3391980581d52d90", 5, 2),
        "1.5": ("bb175911e60561d30e1e9dc1314e7945268be5606fa32b996b361e648fde4dd9", 4, 2),
        "2": ("7561c2b818a918f48f81cd4afb26b9546058a9c13bd93acec2c35f80a9e3e4b5", 4, 2),
    }

    @pytest.mark.parametrize("p", sorted(PINNED_COS_256))
    def test_pinned_cos_field(self, p, tmp_path, capsys):
        out = tmp_path / "field.json"
        assert main(["solve-smooth", "--family", "cos", "--resolution", "256",
                     "--p", p, "--output", str(out)]) == 0
        digest, iterations, steps = self.PINNED_COS_256[p]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        kv = parse_kv(capsys.readouterr().out)
        assert (int(kv["iterations"]), int(kv["homotopy_steps"])) == (iterations, steps)
        # the residual sits at round-off: bounded by the tolerance, not pinned
        assert float(kv["stationarity_residual"]) <= 1e-11

    def test_deterministic_stdout(self, capsys):
        argv = ["solve-smooth", "--family", "cos", "--resolution", "128"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "variational-formula" in out
        assert "NO" not in out

    def test_deterministic_output(self, capsys):
        assert main(["verify", "--n", "2", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--n", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_failure_maps_to_exit_one(self, capsys, monkeypatch):
        failing = [CheckResult(name="ehrhard-inequality", passed=False,
                               worst_violation=1.0, witness="{}",
                               tolerance_used=1e-6)]
        monkeypatch.setattr(cli, "run_suite", lambda seed, instances: failing)
        assert main(["verify", "--n", "1"]) == 1
        assert "NO" in capsys.readouterr().out


class TestPlotCommand:
    def test_body_file(self, tmp_path, capsys):
        path = tmp_path / "body.json"
        path.write_text(serialize.dumps_json(
            serialize.body_to_dict(box_polygon(1.0))))
        out = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(path), "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_field_file(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_text(serialize.dumps_json(
            serialize.density_to_dict(np.full(64, 1.2))))
        assert main(["plot", "--input", str(path)]) == 0
        assert "<polyline" in capsys.readouterr().out

    def test_measure_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        assert main(["plot", "--input", str(path)]) == 2

    def test_wrong_kind_names_the_kinds_read(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(square_surface_measure())))
        assert main(["plot", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: plot expects a body or density file, got a measure file\n")
        assert main(["plot"]) == 2
        assert capsys.readouterr().err == "error: plot requires --input\n"


class TestGenerateCommand:
    def test_uniform_mgon(self, tmp_path, capsys):
        out = tmp_path / "mgon.json"
        assert main(["generate", "uniform-mgon", "--n", "8",
                     "--output", str(out)]) == 0
        mu, p = serialize.measure_from_dict(json.loads(out.read_text()))
        assert mu.num_atoms == 8
        np.testing.assert_allclose(mu.masses, 0.3 / 8, rtol=1e-8)
        assert p == 1.0

    def test_random_even_pairs(self, tmp_path, capsys):
        out = tmp_path / "even.json"
        assert main(["generate", "random-even", "--seed", "7",
                     "--output", str(out)]) == 0
        mu, _ = serialize.measure_from_dict(json.loads(out.read_text()))
        assert mu.is_even()

    def test_cos_density_file(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["generate", "cos-density", "--resolution", "128",
                     "--output", str(out)]) == 0
        values = serialize.density_from_dict(json.loads(out.read_text()))
        assert values.shape == (128,)

    def test_byte_identical_for_fixed_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "random-even", "--seed", "11",
                     "--output", str(a)]) == 0
        assert main(["generate", "random-even", "--seed", "11",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_name_is_invalid_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "klein-bottle"])
        assert exc.value.code == 2
        assert "invalid choice: 'klein-bottle'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,unread", [
        (["uniform-mgon", "--resolution", "32"], "--resolution"),
        (["uniform-mgon", "--seed", "9", "--amplitude", "0.9"], "--seed, --amplitude"),
        (["square-measure", "--seed", "0"], "--seed"),
        (["cos-density", "--p", "2"], "--p"),
        (["random-even", "--n", "4"], "--n"),
        (["hemisphere-bad", "--frequency", "3"], "--frequency"),
    ])
    def test_unread_flag_is_invalid_input(self, argv, unread, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["generate", *argv, "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " in err
        assert all(flag in err for flag in unread.split(", "))
        assert not out.exists()

    def test_output_before_or_after_the_family_name(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--output", str(a), "random-even", "--seed", "2"]) == 0
        assert main(["generate", "random-even", "--seed", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert capsys.readouterr().out == f"wrote {a}\nwrote {b}\n"

    def test_family_flags_follow_the_family_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed", "3", "random-even"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,defaults", [
        (["uniform-mgon", "--n", "8", "--p", "1"], ["uniform-mgon"]),
        (["cos-density", "--resolution", "256", "--amplitude", "0.2",
          "--frequency", "2"], ["cos-density"]),
        (["random-even", "--seed", "0"], ["random-even"]),
    ])
    def test_default_values_write_the_same_file(self, argv, defaults, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", *argv, "--output", str(a)]) == 0
        assert main(["generate", *defaults, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "square-measure"]) == 0
        assert (tmp_path / "square-measure.json").exists()
        assert "wrote square-measure.json" in capsys.readouterr().out
