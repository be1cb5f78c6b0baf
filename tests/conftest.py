import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermotrack.annotations import NormBBox
from thermotrack.frameio import ThermalFrame
from thermotrack.thermoreg import load_model

DATA = Path(__file__).parent / "data"


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


def pinned_models(tmp_path, name):
    """Every model document of pin set ``name`` in the linear/kNN and tree
    model pin files, loaded through ``load_model``, trees last."""
    linear_knn = json.loads((DATA / "linear_knn_model_pins.json").read_text())[name]
    trees = json.loads((DATA / "tree_model_pins.json").read_text())[name]
    texts = [text for docs in linear_knn.values() for text in docs.values()] + list(trees.values())
    models = []
    for text in texts:
        path = tmp_path / "model.json"
        path.write_text(text)
        models.append(load_model(path))
    return models
