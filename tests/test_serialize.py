"""JSON/CSV round trips and the deterministic float formatting."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ldpcontract.probability import Channel, ProbabilityError, ProbVector
from ldpcontract.serialize import (
    channel_from_csv,
    channel_from_json,
    channel_to_csv,
    channel_to_json,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    emit_json,
)


def test_emit_json_float_precision():
    text = emit_json({"x": 1.0 / 3.0})
    assert json.loads(text)["x"] == 1.0 / 3.0  # lossless 64-bit round trip


def test_emit_json_infinity_and_nan():
    assert "Infinity" in emit_json({"x": math.inf})
    with pytest.raises(ValueError):
        emit_json({"x": math.nan})


def test_emit_json_deterministic():
    payload = {"b": [1, 2.5], "a": {"c": 0.1}}
    assert emit_json(payload) == emit_json(payload)


def test_distribution_json_round_trip():
    p = ProbVector(np.array([0.1, 0.2, 0.7]))
    text = distribution_to_json(p)
    back = distribution_from_json(text)
    assert distribution_to_json(back) == text
    np.testing.assert_array_equal(back.mass, p.mass)


def test_channel_json_round_trip():
    k = Channel(np.array([[0.75, 0.25], [1.0 / 3.0, 2.0 / 3.0]]))
    text = channel_to_json(k)
    back = channel_from_json(text)
    assert channel_to_json(back) == text
    np.testing.assert_array_equal(back.rows, k.rows)


def test_distribution_csv_round_trip():
    p = ProbVector(np.array([0.25, 0.75]))
    text = distribution_to_csv(p)
    back = distribution_from_csv(text)
    assert distribution_to_csv(back) == text
    np.testing.assert_array_equal(back.mass, p.mass)


def test_channel_csv_round_trip():
    k = Channel(np.array([[0.75, 0.25], [0.25, 0.75]]))
    text = channel_to_csv(k)
    back = channel_from_csv(text)
    assert channel_to_csv(back) == text
    np.testing.assert_array_equal(back.rows, k.rows)


def test_parsers_reject_bad_input():
    with pytest.raises(Exception):
        distribution_from_json("[0.5, NaN]")
    with pytest.raises(Exception):
        distribution_from_json("[0.5, -0.5]")
    with pytest.raises(Exception):
        channel_from_json("[[0.5, 0.5], [0.5]]")  # ragged
    with pytest.raises(Exception):
        distribution_from_csv("0.5,nan\n")


def test_emit_json_numpy_numbers_and_arrays_keep_their_bytes():
    """The emitter takes numpy values by the ``numbers`` ABCs and ``ndim``, not numpy
    types; the expected text is what it printed when it tested numpy types."""
    payload = {"i8": np.int8(-7), "u64": np.uint64(2**64 - 1), "i64": np.int64(-2**63),
               "f16": np.float16(0.1), "f32": np.float32(1 / 3), "f64": np.float64(2 / 3),
               "inf": np.float64("-inf"), "a1": np.array([0.1, 1e-300, 5e300]),
               "a2": np.arange(6, dtype=np.int32).reshape(2, 3),
               "a3": np.linspace(0, 1, 4).reshape(2, 1, 2), "empty": np.zeros((0,)),
               "mixed": [np.float32(2.5), (np.int16(3), np.array([1.5]))]}
    assert emit_json(payload) == (
        '{"i8": -7, "u64": 18446744073709551615, "i64": -9223372036854775808, '
        '"f16": 0.0999755859375, "f32": 0.3333333432674408, "f64": 0.66666666666666663, '
        '"inf": -Infinity, "a1": [0.10000000000000001, 1e-300, 5.0000000000000003e+300], '
        '"a2": [[0, 1, 2], [3, 4, 5]], "a3": [[[0, 0.33333333333333331]], '
        '[[0.66666666666666663, 1]]], "empty": [], "mixed": [2.5, [3, [1.5]]]}')


@pytest.mark.parametrize("bad", [np.True_, np.array([True]), np.float64("nan"),
                                 np.array([np.nan]), 1 + 2j, np.complex128(1)])
def test_emit_json_refuses_what_it_always_refused(bad):
    with pytest.raises(ProbabilityError):
        emit_json(bad)


@pytest.mark.parametrize("bad", [np.array(1.0), np.array(3)])
def test_emit_json_refuses_a_0d_array_as_an_unserializable_object(bad):
    # It used to raise TypeError ("iteration over a 0-d array"); a ValueError lets the
    # CLI print its one error line instead of a traceback.
    with pytest.raises(ProbabilityError, match="cannot serialize object of type ndarray"):
        emit_json(bad)
