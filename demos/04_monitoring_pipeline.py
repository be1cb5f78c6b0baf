"""Run the temperature-monitoring loop end to end.

Per frame: detect faces, drop tiny boxes, take the hottest pixel in each
box, map it to degrees through the calibration model, draw the box plus a
temperature label onto the frame, and append a CSV row. Readings above the
fever threshold are flagged. The whole loop has to keep up with a live
camera, so the summary reports per-frame latency.
"""

from pathlib import Path

from thermotrack.detectors import BlobDetector, DetectorConfig
from thermotrack.pipeline import PipelineConfig, run_stream
from thermotrack.synthscene import SequenceSpec, generate_sequence
from thermotrack.thermoreg import FittedRegressor

OUT = Path("demo_output/monitoring")
OUT.mkdir(parents=True, exist_ok=True)

# The deployed calibration line: 20 C + 0.1 C per intensity step.
model = FittedRegressor("ridge", {"intercept": 20.0, "slope": 0.1}, {"lambda": 0.0})

detector = BlobDetector(
    DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)
)

seq = SequenceSpec(
    frames=30, layout="mix", seed=99,
    temp_min_c=35.0, temp_max_c=38.6,  # a few readings will cross the fever line
)
frames = [frame for frame, _, _ in generate_sequence(seq)]

cfg = PipelineConfig(
    fever_threshold_c=38.0,
    log_path=OUT / "readings.csv",
    output_dir=OUT / "annotated",
)

summary = run_stream(frames, detector, model, cfg)
print("stream summary:")
print(summary.to_text())

log_lines = (OUT / "readings.csv").read_text().splitlines()
print(f"log: {len(log_lines) - 1} readings in {OUT / 'readings.csv'}")
print("first rows:")
for line in log_lines[:5]:
    print("  " + line)

flagged = [line for line in log_lines[1:] if line.endswith(",1")]
print(f"\n{len(flagged)} readings flagged above {cfg.fever_threshold_c} C")
print(f"annotated frames: {len(list((OUT / 'annotated').glob('*.ppm')))} PPM files "
      f"in {OUT / 'annotated'}")
