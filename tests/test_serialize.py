"""The JSON writer: nine-digit rounding and the indented layout, held byte
for byte against per-value formatting and json.dumps."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmink import serialize
from gaussmink.families import uniform_mgon_measure
from gaussmink.geometry import DiscreteMeasure, wulff_shape

# zeros of both signs, integral values (".9g" writes 3, repr 3.0), the band
# 1e9 <= |x| < 1e16 where ".9g" switches to an exponent and repr does not,
# the extremes, small values and subnormals
EDGE_VALUES = [0.0, -0.0, 1.0, -3.0, 3.0, 12345.0, 2.0**52, 1e9, -1e9,
               123456789012.0, 9.999999999e15, 1e16, -1e20, 1.7976931348623157e308,
               1e-5, -1e-5, 1.2345678912e-5, 9.99999999e-6, 1e-300,
               2.2250738585072014e-308, 1e-310, -5e-324, 5e-324,
               math.pi, 0.1, 1.0 / 3.0]

finite = st.floats(allow_nan=False, allow_infinity=False)


def reference_sig_list(values):
    """Per-value rounding: one format and one finiteness check per value."""
    out = []
    for x in np.asarray(values, dtype=float).ravel().tolist():
        if not math.isfinite(x):
            raise ValueError("only finite numbers are serialized")
        out.append(float(f"{x:.9g}"))
    return out


def reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bits(values):
    return [float.hex(v) for v in values]


def regular_body(k: int, scale: float):
    theta = 2.0 * math.pi * np.arange(k) / k
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return wulff_shape(normals, np.full(k, scale))


class TestSigList:
    def test_edge_values(self):
        out = serialize._sig_list(EDGE_VALUES)
        assert all(type(v) is float for v in out)
        assert bits(out) == bits(reference_sig_list(EDGE_VALUES))

    @given(st.lists(finite, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_rounding(self, values):
        assert bits(serialize._sig_list(values)) == bits(reference_sig_list(values))

    def test_flattens_rows(self):
        rows = np.arange(6.0).reshape(3, 2) + 0.5
        assert serialize._sig_list(rows) == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        values = [1.0, bad, 2.0]
        with pytest.raises(ValueError, match="^only finite numbers are serialized$"):
            reference_sig_list(values)
        with pytest.raises(ValueError, match="^only finite numbers are serialized$"):
            serialize._sig_list(values)
        with pytest.raises(ValueError, match="^only finite numbers are serialized$"):
            serialize.density_to_dict(values)
        mu = uniform_mgon_measure(4, 0.3)
        with pytest.raises(ValueError, match="^only finite numbers are serialized$"):
            serialize.measure_to_dict(mu, bad)


class TestDumpsJson:
    def test_edge_values_in_every_payload_kind(self):
        payloads = [serialize.density_to_dict(EDGE_VALUES),
                    serialize.body_to_dict(regular_body(7, 1.3)),
                    serialize.body_to_dict(regular_body(4, 1e12)),
                    serialize.measure_to_dict(uniform_mgon_measure(6, 0.3), 1.5),
                    serialize.measure_to_dict(uniform_mgon_measure(3, 0.3), 3.0)]
        for payload in payloads:
            assert serialize.dumps_json(payload) == reference_dumps(payload)

    @given(st.lists(finite, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_density_payload(self, values):
        payload = serialize.density_to_dict(values)
        assert payload["values"] == reference_sig_list(values)
        assert serialize.dumps_json(payload) == reference_dumps(payload)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.floats(-8.0, 12.0))
    @settings(max_examples=50, deadline=None)
    def test_body_payload(self, seed, k, log_scale):
        rng = np.random.default_rng(seed)
        theta = 2.0 * math.pi * (np.arange(k) + rng.uniform(0.0, 0.4, k)) / k
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        body = wulff_shape(normals, 10.0**log_scale * rng.uniform(0.8, 1.6, k))
        payload = serialize.body_to_dict(body)
        assert payload["normals"] == [reference_sig_list(n) for n in body.normals]
        assert payload["support"] == reference_sig_list(body.support)
        assert serialize.dumps_json(payload) == reference_dumps(payload)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.floats(-300.0, 300.0), st.floats(0.05, 40.0))
    @settings(max_examples=50, deadline=None)
    def test_measure_payload(self, seed, k, log_mass, p):
        rng = np.random.default_rng(seed)
        theta = 2.0 * math.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
        directions = np.column_stack([np.cos(theta), np.sin(theta)])
        mu = DiscreteMeasure(2, directions, 10.0**log_mass * rng.uniform(0.5, 2.0, k))
        payload = serialize.measure_to_dict(mu, p)
        assert payload["p"] == reference_sig_list([p])[0]
        assert [a["direction"] for a in payload["atoms"]] == [
            reference_sig_list(d) for d in mu.directions]
        assert [a["mass"] for a in payload["atoms"]] == reference_sig_list(mu.masses)
        assert serialize.dumps_json(payload) == reference_dumps(payload)

    def test_regular_4096_gon_body(self):
        payload = serialize.body_to_dict(regular_body(4096, 1.0))
        assert serialize.dumps_json(payload) == reference_dumps(payload)

    @given(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_finite_pair_lists(self, rows):
        payload = {"normals": rows, "support": [row[0] for row in rows]}
        assert serialize.dumps_json(payload) == reference_dumps(payload)

    @given(st.lists(st.lists(finite, min_size=2, max_size=2)
                    | st.lists(st.floats() | st.integers(-3, 3), max_size=3),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_lists_of_other_rows(self, rows):
        # rows of other lengths or types, NaN, inf and sums that overflow
        # among [x, y] pairs are written as json writes them
        assert serialize.dumps_json({"rows": rows}) == reference_dumps({"rows": rows})

    def test_other_values_take_json_text(self):
        # non-float scalars, empty containers, NaN and a float list whose
        # sum overflows are written as json writes them
        payload = {"b": [1, 2.5, True, None, "x"], "a": [], "c": {},
                   "d": [math.nan, 1.0], "e": [[1e308, 1e308], (-math.inf,)],
                   "f": {"z": -0.0, "y": [0.1]}, "g": "é\n"}
        assert serialize.dumps_json(payload) == reference_dumps(payload)
