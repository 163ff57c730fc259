"""Scalar quantization: affine per-dimension mapping onto uint8."""

import numpy as np
import pytest

from annkit.sq import SqParams, sq_decode_batch, sq_encode_batch, sq_train
from annkit.wire import Reader, Writer


def test_train_records_per_dim_extrema(rng):
    data = rng.standard_normal((50, 6)) * 3
    params = sq_train(data)
    np.testing.assert_allclose(params.mins, data.min(axis=0), rtol=1e-6)
    np.testing.assert_allclose(params.maxs, data.max(axis=0), rtol=1e-6)
    assert params.dim == 6


def test_encode_hand_computed_codes():
    params = SqParams(
        mins=np.array([0.0, -1.0], dtype=np.float32),
        maxs=np.array([1.0, 1.0], dtype=np.float32),
    )
    codes = sq_encode_batch(params, np.array([[0.5, 0.0], [0.0, -1.0], [1.0, 1.0]]))
    assert codes.dtype == np.uint8
    # 0.5 of the [0, 1] span -> round(0.5 * 255); midpoint of [-1, 1] likewise
    assert codes[0].tolist() == [128, 128]
    assert codes[1].tolist() == [0, 0]
    assert codes[2].tolist() == [255, 255]


def test_round_trip_error_bounded_by_half_step(rng):
    data = rng.standard_normal((300, 8)).astype(np.float32)
    params = sq_train(data)
    spans = params.maxs.astype(np.float64) - params.mins.astype(np.float64)
    decoded = sq_decode_batch(params, sq_encode_batch(params, data))
    err = np.abs(decoded - data.astype(np.float64))
    # uint8 grid: the worst in-range error is half of span/255
    bound = spans / 255.0 / 2.0 + 1e-7
    assert np.all(err <= bound[np.newaxis, :])


def test_out_of_range_values_clip(rng):
    data = rng.standard_normal((40, 3))
    params = sq_train(data)
    mins, maxs = params.mins.astype(np.float64), params.maxs.astype(np.float64)
    lo, hi = sq_encode_batch(params, np.stack([mins - 100.0, maxs + 100.0]))
    assert lo.tolist() == [0, 0, 0]
    assert hi.tolist() == [255, 255, 255]


def test_constant_dimension_is_exact():
    data = np.array([[2.5, 1.0], [2.5, 3.0], [2.5, 2.0]])
    params = sq_train(data)
    decoded = sq_decode_batch(params, sq_encode_batch(params, np.array([[2.5, 2.0]])))[0]
    assert decoded[0] == pytest.approx(2.5, abs=1e-7)


def test_decode_monotone_in_code():
    params = SqParams(
        mins=np.array([-2.0], dtype=np.float32), maxs=np.array([2.0], dtype=np.float32)
    )
    codes = np.arange(256, dtype=np.uint8)[:, np.newaxis]
    values = sq_decode_batch(params, codes)[:, 0].tolist()
    assert values == sorted(values)
    # reconstruction sits at cell midpoints, half a step inside the range ends
    half_step = 4.0 / 512
    assert values[0] == pytest.approx(-2.0 + half_step, abs=1e-7)
    assert values[-1] == pytest.approx(2.0 - half_step, abs=1e-7)


def test_params_validation():
    with pytest.raises(ValueError):
        SqParams(
            mins=np.array([0.0, 1.0], dtype=np.float32),
            maxs=np.array([1.0], dtype=np.float32),
        )
    with pytest.raises(ValueError):
        SqParams(
            mins=np.array([2.0], dtype=np.float32),
            maxs=np.array([1.0], dtype=np.float32),
        )


@pytest.mark.parametrize("field", ["mins", "maxs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_ranges(field, value):
    """A NaN range once decoded to NaN scores, and an infinite max passed the
    min <= max check."""
    ranges = {"mins": np.array([0.0, -1.0], dtype=np.float32),
              "maxs": np.array([1.0, 1.0], dtype=np.float32)}
    ranges[field][1] = value
    with pytest.raises(ValueError, match="finite"):
        SqParams(**ranges)


def test_params_wire_round_trip(rng):
    data = rng.standard_normal((30, 4))
    params = sq_train(data)
    w = Writer()
    params.write(w)
    blob = w.getvalue()
    back = SqParams.read(Reader(blob))
    np.testing.assert_array_equal(back.mins, params.mins)
    np.testing.assert_array_equal(back.maxs, params.maxs)
    w2 = Writer()
    back.write(w2)
    assert w2.getvalue() == blob
