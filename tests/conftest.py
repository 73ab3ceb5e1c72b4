"""Shared fixtures: a small camera rig every test can afford."""

import numpy as np
import pytest

from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
from repro.core.lens import EquidistantLens
from repro.core.mapping import perspective_map


SIZE = 64  # canonical tiny frame edge


@pytest.fixture(scope="session")
def small_sensor():
    """64x64 fisheye sensor with a 180-degree inscribed image circle."""
    circle = SIZE / 2.0 - 1.0
    return FisheyeIntrinsics.centered(SIZE, SIZE, focal=circle / (np.pi / 2.0))


@pytest.fixture(scope="session")
def small_lens(small_sensor):
    return EquidistantLens(small_sensor.focal)


@pytest.fixture(scope="session")
def small_out():
    """Perspective output intrinsics matching the small sensor at zoom 0.5."""
    circle = SIZE / 2.0 - 1.0
    focal = circle / (np.pi / 2.0) * 0.5
    return CameraIntrinsics(fx=focal, fy=focal, cx=(SIZE - 1) / 2.0,
                            cy=(SIZE - 1) / 2.0, width=SIZE, height=SIZE)


@pytest.fixture(scope="session")
def small_field(small_sensor, small_lens, small_out):
    """The canonical tiny correction field (fully covered output)."""
    return perspective_map(small_sensor, small_lens, small_out)


@pytest.fixture(scope="session")
def tilted_field(small_sensor, small_lens, small_out):
    """A tilted view with a genuine out-of-FOV region (coverage < 1)."""
    return perspective_map(small_sensor, small_lens, small_out,
                           pitch=np.deg2rad(60.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def gradient_image():
    """Smooth deterministic test frame (uint8)."""
    ys, xs = np.indices((SIZE, SIZE), dtype=np.float64)
    return np.clip(np.rint(2.0 * xs + 1.5 * ys), 0, 255).astype(np.uint8)


@pytest.fixture()
def random_image(rng):
    return rng.integers(0, 256, size=(SIZE, SIZE), dtype=np.uint8)


@pytest.fixture()
def rgb_image(rng):
    return rng.integers(0, 256, size=(SIZE, SIZE, 3), dtype=np.uint8)


@pytest.fixture()
def brokers(monkeypatch):
    """Every :class:`~repro.serve.broker.StreamBroker` built while the
    test runs, in construction order — how a test reaches the one-session
    broker that ``ring_stream`` builds internally."""
    from repro.serve.broker import StreamBroker

    built = []
    init = StreamBroker.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StreamBroker, "__init__", spy)
    return built


def _q_reference(lut, image, bits, row0=0, row1=None):
    """Independent Q-format oracle for the fixed and compiled tiers.

    Quantize the LUT's float weights with ``quantize_weights``, gather
    the integer taps over ``lut.tap_offsets``, accumulate in int64, round
    with ``+half >> bits``, clip to the frame dtype and fill invalid
    pixels — written out here, sharing no code with the kernels.
    """
    from repro.core.fixedpoint import quantize_weights

    image = np.asarray(image)
    h, w = lut.out_shape
    row1 = h if row1 is None else row1
    sl = slice(row0 * w, row1 * w)
    q = quantize_weights(lut.weights[sl], bits).astype(np.int64)
    flat = image.reshape(image.shape[0] * image.shape[1], -1).astype(np.int64)
    taps = flat[lut.tap_offsets(row0, row1)]         # (n, taps, channels)
    acc = np.einsum("nt,ntc->nc", q, taps)
    out = (acc + (1 << (bits - 1))) >> bits
    info = np.iinfo(image.dtype)
    out = np.clip(out, info.min, info.max)
    out[~lut.mask.reshape(-1)[sl]] = int(round(lut.fill))
    return out.astype(image.dtype).reshape((row1 - row0, w) + image.shape[2:])


@pytest.fixture(scope="session")
def q_reference():
    return _q_reference


def _reference_tables(field, method="bilinear", bits=12):
    """Whole-array reference of the LUT table build.

    The table construction as it stood before the banded builder: every
    tap, fraction and weight array is made at full frame size with
    int64/float64 intermediates, then narrowed.  Returns the
    ``indices``/``fracs``/``mask`` tables and the derived ``wtab``
    (float32) and ``qwtab`` (int16 Q-format) weights, frozen here so the
    banded builder can be held bit-identical to it.
    """
    from repro.core import interpolation as interp
    from repro.core.fixedpoint import quantize_weights

    def resolve(idx, size):
        return np.clip(idx, 0, size - 1)

    h, w = field.src_height, field.src_width
    mask = field.valid_mask().ravel()
    if method == "nearest":
        mx = np.where(np.isfinite(field.map_x), field.map_x, 0.0)
        my = np.where(np.isfinite(field.map_y), field.map_y, 0.0)
        ix = resolve(np.rint(mx).astype(np.int64).ravel(), w)
        iy = resolve(np.rint(my).astype(np.int64).ravel(), h)
        indices = (iy * w + ix).reshape(-1, 1).astype(np.int32)
        fracs = None
    elif method == "bilinear":
        ix, iy, fx, fy = interp.bilinear_taps(field.map_x, field.map_y)
        ix, iy = ix.ravel(), iy.ravel()
        x0, x1 = resolve(ix, w), resolve(ix + 1, w)
        y0, y1 = resolve(iy, h), resolve(iy + 1, h)
        indices = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0,
                            y1 * w + x1], axis=1).astype(np.int32)
        fracs = np.stack([fx.ravel(), fy.ravel()], axis=1).astype(np.float32)
    else:
        ix, iy, wx, wy = interp.bicubic_taps(field.map_x, field.map_y)
        ix, iy = ix.ravel(), iy.ravel()
        cols = [resolve(ix - 1 + i, w) for i in range(4)]
        rows = [resolve(iy - 1 + j, h) for j in range(4)]
        indices = np.empty((ix.size, 16), dtype=np.int32)
        for j in range(4):
            for i in range(4):
                indices[:, j * 4 + i] = rows[j] * w + cols[i]
        fracs = np.concatenate([wx.reshape(-1, 4), wy.reshape(-1, 4)],
                               axis=1).astype(np.float32)
    indices[~mask] = 0

    n = indices.shape[0]
    one = np.float32(1.0)
    if method == "nearest":
        wtab = np.ones((1, n), dtype=np.float32)
    elif method == "bilinear":
        fx, fy = fracs[:, 0], fracs[:, 1]
        wtab = np.stack([(one - fx) * (one - fy), fx * (one - fy),
                         (one - fx) * fy, fx * fy])
    else:
        wtab = np.stack([fracs[:, 4 + j] * fracs[:, i]
                         for j in range(4) for i in range(4)])
    wtab[:, ~mask] = 0.0
    qwtab = np.ascontiguousarray(quantize_weights(wtab.T, bits).T)
    return {"indices": indices, "fracs": fracs, "mask": mask,
            "wtab": wtab, "qwtab": qwtab}


@pytest.fixture(scope="session")
def reference_tables():
    return _reference_tables


def _assert_tables_match(lut, ref):
    """``lut``'s expanded taps, tables and derived weights equal ``ref``
    bit for bit."""
    got = {"indices": lut.tap_offsets(), "fracs": lut.fracs,
           "mask": lut.mask}
    for name, want in ((name, ref[name]) for name in got):
        if want is None:
            assert got[name] is None, name
        else:
            assert got[name].dtype == want.dtype, name
            np.testing.assert_array_equal(got[name], want, err_msg=name)
    # Q weights as a Q-tier publication carries them (nearest publishes
    # none: its unit weight is implied), and as derived
    if lut.method != "nearest":
        np.testing.assert_array_equal(
            lut.with_tier("fixed").kernel_tables()["qwtab"], ref["qwtab"])
    np.testing.assert_array_equal(lut.weights.T, ref["wtab"])
    np.testing.assert_array_equal(lut._derive_qweight_table(), ref["qwtab"])


@pytest.fixture(scope="session")
def assert_tables_match():
    return _assert_tables_match


def _float_reference(lut, image, row0=0, row1=None):
    """Whole-frame oracle of the numpy tier, frozen before the tile walk.

    One pass over the requested rows at once: widen the whole source
    plane to the accumulator dtype (float64 for float64 frames, float32
    otherwise), gather every tap with fancy indexing, accumulate the
    weighted taps in tap order, fill invalid pixels, then round, clip
    and cast for integer frames.  Shares no code with the kernel; it
    reads only the LUT's tables and derived weights.
    """
    image = np.asarray(image)
    h, w = lut.out_shape
    row1 = h if row1 is None else row1
    sl = slice(row0 * w, row1 * w)
    acc_dtype = np.float64 if image.dtype == np.float64 else np.float32
    flat = image.reshape(image.shape[0] * image.shape[1], -1).astype(acc_dtype)
    idx = lut.tap_offsets(row0, row1)
    weights = None if lut.method == "nearest" else lut.weights[sl]
    acc = None
    for k in range(idx.shape[1]):
        term = flat[idx[:, k]]
        if weights is not None:
            term = term * weights[:, k, None]
        acc = term if acc is None else acc + term
    acc[~lut.mask[sl]] = lut.fill
    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        acc = np.clip(np.rint(acc), info.min, info.max)
    return acc.astype(image.dtype).reshape((row1 - row0, w) + image.shape[2:])


@pytest.fixture(scope="session")
def float_reference():
    return _float_reference
