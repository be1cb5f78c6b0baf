import tracemalloc

import numpy as np
import pytest

from thermotrack.annotations import NormBBox
from thermotrack.frameio import ThermalFrame


def gray_frame(width, height, value=0, frame_index=0, source_id="frame"):
    pixels = np.full((height, width), value, dtype=np.uint8)
    return ThermalFrame(pixels, frame_index, source_id)


def bgr_frame(width, height, value=(0, 0, 0), frame_index=0, source_id="frame"):
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    pixels[:, :] = value
    return ThermalFrame(pixels, frame_index, source_id)


def traced_call(fn, *args):
    """Result and tracemalloc peak of one call, with no warm-up call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_traced_bytes(fn, *args):
    """tracemalloc peak of one call, after one untraced warm-up call."""
    fn(*args)
    return traced_call(fn, *args)[1]


def grid_box(class_id, cx_u, cy_u, w_u, h_u):
    """A NormBBox from micro-units (1e-6 grid), the label-file precision."""
    return NormBBox(class_id, cx_u / 1e6, cy_u / 1e6, w_u / 1e6, h_u / 1e6)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
