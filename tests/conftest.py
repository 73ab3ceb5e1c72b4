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
    the integer taps over ``lut.indices``, accumulate in int64, round
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
    taps = flat[lut.indices[sl]]                     # (n, taps, channels)
    acc = np.einsum("nt,ntc->nc", q, taps)
    out = (acc + (1 << (bits - 1))) >> bits
    info = np.iinfo(image.dtype)
    out = np.clip(out, info.min, info.max)
    if lut.mask is not None:
        out[~lut.mask.reshape(-1)[sl]] = int(round(lut.fill))
    return out.astype(image.dtype).reshape((row1 - row0, w) + image.shape[2:])


@pytest.fixture(scope="session")
def q_reference():
    return _q_reference
