"""thermotrack: non-invasive temperature monitoring from low-resolution
thermal frames.

The package splits into small, independently usable modules:

* ``frameio``     frame codecs (PGM/PPM), color/geometry ops, dataset pairing
* ``annotations`` normalized/pixel bounding boxes and the label file format
* ``detectors``   the detector contract: replay, thermal blob, external adapter
* ``deteval``     IoU, greedy matching, AP, and mAP over threshold sweeps
* ``thermoreg``   pixel-to-temperature models, CV grid search, guard, selection
  (its regression trees grow in the private ``_forest``)
* ``pipeline``    the per-frame monitoring loop with overlays and logging
* ``synthscene``  synthetic scenes and calibration sets with exact ground truth
* ``cli``         the ``thermotrack`` command-line front end
"""

from .annotations import GroundTruthLabel, NormBBox, PixelBBox
from .detectors import BlobDetector, Detection, DetectorConfig, ExternalAdapter, ReplayDetector
from .deteval import DetectionEvalReport, map_over_thresholds
from .frameio import DatasetItem, ThermalFrame, load_frame, save_frame
from .pipeline import PipelineConfig, TempReading, process_frame, run_stream
from .synthscene import SceneSpec, SequenceSpec, generate, generate_calibration_set
from .thermoreg import (
    CalibrationSample,
    CrossValReport,
    FittedRegressor,
    grid_search,
    load_model,
    save_model,
    select_model,
)

__version__ = "0.1.0"

__all__ = [
    "BlobDetector",
    "CalibrationSample",
    "CrossValReport",
    "DatasetItem",
    "Detection",
    "DetectionEvalReport",
    "DetectorConfig",
    "ExternalAdapter",
    "FittedRegressor",
    "GroundTruthLabel",
    "NormBBox",
    "PipelineConfig",
    "PixelBBox",
    "ReplayDetector",
    "SceneSpec",
    "SequenceSpec",
    "TempReading",
    "ThermalFrame",
    "generate",
    "generate_calibration_set",
    "grid_search",
    "load_frame",
    "load_model",
    "map_over_thresholds",
    "process_frame",
    "run_stream",
    "save_frame",
    "save_model",
    "select_model",
    "__version__",
]
