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
