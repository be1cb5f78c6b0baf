"""Score detectors against labeled data.

Two detectors run over the same synthetic dataset: the replay detector
(which echoes the labels back, a sanity anchor that must score a perfect
1.0) and the thermal blob detector (hot connected components, no learned
weights). Metrics are precision, recall, and mAP at IoU 0.5 plus the
0.50:0.95 sweep, computed with all-points interpolation over a global
confidence pool.
"""

from pathlib import Path

from thermotrack.annotations import denormalize
from thermotrack.detectors import BlobDetector, DetectorConfig, ReplayDetector
from thermotrack.deteval import map_over_thresholds
from thermotrack.frameio import pair_frames_with_labels, read_labels
from thermotrack.synthscene import SequenceSpec, write_dataset

OUT = Path("demo_output/eval_dataset")

seq = SequenceSpec(frames=12, layout="mix", seed=19)
write_dataset(seq, OUT)
items = list(pair_frames_with_labels(OUT))  # 12 small frames, scored twice
print(f"dataset: {len(items)} frames, {sum(len(i.labels) for i in items)} labeled faces")

gts_per_image = [
    [denormalize(label.bbox, item.frame.width, item.frame.height) for label in item.labels]
    for item in items
]


def evaluate(name, detector):
    dets_per_image = [detector.detect(item.frame) for item in items]
    report = map_over_thresholds(dets_per_image, gts_per_image)
    print(f"\n{name}:")
    print(f"  precision={report.precision:.4f} recall={report.recall:.4f}")
    print(f"  map50={report.map_50:.4f} map50:95={report.map_50_95:.4f}")
    return report


replay_report = evaluate("replay detector (labels echoed back)", ReplayDetector(read_labels(OUT)))
assert replay_report.map_50 == 1.0

blob_cfg = DetectorConfig(
    intensity_threshold=32,   # just above background 20 +/- 4
    min_blob_area=40,
    confidence_threshold=0.1,
)
blob_report = evaluate("blob detector (hot connected components)", BlobDetector(blob_cfg))

print("\nCSV rows, one per evaluated dataset:")
print("  dataset,precision,recall,map50,map5095")
print("  " + replay_report.to_csv_row("replay"))
print("  " + blob_report.to_csv_row("blob"))
