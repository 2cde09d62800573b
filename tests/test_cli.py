"""Serialization formats and the command-line front end."""

import json
import math

import numpy as np
import pytest

from gaussmink import cli, serialize
from gaussmink.cli import RunConfig, main
from gaussmink.families import cos_density, square_surface_measure
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


class TestEdgeMeasureFormat:
    def test_round_trip(self):
        em = lp_gauss_surface_polygon(box_polygon(1.0), 2.0)
        back = serialize.edge_measure_from_dict(serialize.edge_measure_to_dict(em))
        assert back.p_exponent == 2.0
        np.testing.assert_allclose(back.masses, em.masses, rtol=1e-8)

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            serialize.edge_measure_from_dict({"p": 1.0, "edges": []})
        with pytest.raises(ValueError, match="edge 0"):
            serialize.edge_measure_from_dict({"edges": [{"normal": [1, 0]}]})
        with pytest.raises(ValueError, match="edge 0"):
            serialize.edge_measure_from_dict({"edges": [[1, 0]]})


class TestDensityFormat:
    def test_round_trip(self):
        f = cos_density(128)
        back = serialize.density_from_dict(serialize.density_to_dict(f))
        assert back.shape == (128,)
        np.testing.assert_allclose(back, f, rtol=1e-8)

    def test_resolution_must_match(self):
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 4, "values": [1.0, 2.0]})

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 2, "values": [1.0, -2.0]})
        with pytest.raises(ValueError):
            serialize.density_from_dict({"resolution": 0, "values": []})


class TestClassifyPayload:
    def test_each_kind(self):
        assert serialize.classify_payload({"support": []}) == "body"
        assert serialize.classify_payload({"atoms": []}) == "measure"
        assert serialize.classify_payload({"edges": []}) == "edge-measure"
        assert serialize.classify_payload({"values": []}) == "density"

    def test_unknown_payload(self):
        with pytest.raises(ValueError):
            serialize.classify_payload({"spam": 1})
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
        em = lp_gauss_surface_polygon(box_polygon(1.0), 1.0)
        kv = parse_kv(serialize.edge_measure_text(em))
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
        assert kv["outer_rounds"] == "2"
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
        field = SupportField(64, np.full(64, 1.3))
        svg = serialize.boundary_svg(field)
        assert "<polyline" in svg

    def test_rejects_other_objects(self):
        with pytest.raises(ValueError):
            serialize.boundary_svg(square_surface_measure())


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(command="dance")
        with pytest.raises(ValueError):
            RunConfig(command="verify", resolution=32)
        with pytest.raises(ValueError):
            RunConfig(command="verify", resolution=2**21)
        with pytest.raises(ValueError):
            RunConfig(command="verify", p=math.nan)
        with pytest.raises(ValueError):
            RunConfig(command="verify", tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(command="verify", seed=-1)
        assert RunConfig(command="verify", resolution=2**20).resolution == 2**20


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

    def test_invalid_dimension(self, capsys):
        assert main(["constants", "--n", "1"]) == 2


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
        em = serialize.edge_measure_from_dict(json.loads(out_path.read_text()))
        np.testing.assert_allclose(em.masses, UNIT_SQUARE_EDGE_MASS, rtol=1e-8)

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

    def test_hemisphere_violation_is_invalid_input(self, tmp_path, capsys):
        from gaussmink.families import hemisphere_bad_measure
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps_json(
            serialize.measure_to_dict(hemisphere_bad_measure())))
        assert main(["solve-discrete", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "hemisphere" in err
        assert "without bound" in err

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
        assert "error" in capsys.readouterr().err


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
        assert main(["solve-smooth", "--family", "sin"]) == 2

    def test_needs_input_or_family(self, capsys):
        assert main(["solve-smooth"]) == 2

    def test_resolution_below_floor(self, capsys):
        assert main(["solve-smooth", "--family", "cos",
                     "--resolution", "32"]) == 2

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
        assert main(["generate", "klein-bottle"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "square-measure"]) == 0
        assert (tmp_path / "square-measure.json").exists()
        assert "wrote square-measure.json" in capsys.readouterr().out
