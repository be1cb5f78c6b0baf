"""The benchmark's tracer wraps library names by attribute lookup, so a
rename in the library breaks only traced benchmark runs. Installing and
uninstalling it here makes such a rename fail the test suite instead."""

from pathlib import Path

import pytest

from thermotrack import detectors, frameio, pipeline, synthscene, thermoreg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_exist_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # AttributeError here: a wrapped name was renamed
        hooks = list(tracer._patches)
        assert hooks
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, f"{attr} was not restored"


SAVING_HOOKS = {"frameio.gray_to_bgr", "frameio.save_frame", "frameio.save_frame.bytes"}


@pytest.mark.parametrize("saves_frames", [True, False], ids=["out", "log-only"])
def test_traced_stream_reaches_these_hooks(monkeypatch, tmp_path, saves_frames):
    """The hooks a traced three-frame blob stream reaches, by name: a change
    that stops a stream from reaching a wrapped name shows up here. A session
    that saves no frames draws none, and logs what a saving session logs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    paths = []
    for frame, _, _ in synthscene.generate_sequence(synthscene.SequenceSpec(frames=3, layout="dense", seed=41)):
        paths.append(tmp_path / f"frame_{frame.frame_index}.pgm")
        frameio.save_frame(frame, paths[-1])
    detector = detectors.BlobDetector(
        detectors.DetectorConfig(intensity_threshold=32, min_blob_area=40, confidence_threshold=0.1)
    )
    law = thermoreg.FittedRegressor("ridge", {"intercept": 20.0, "slope": 0.1}, {"lambda": 0.0})
    out_dir = tmp_path / "out" if saves_frames else None
    cfg = pipeline.PipelineConfig(log_path=tmp_path / "log.csv", output_dir=out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        summary = pipeline.run_stream(paths, detector, law, cfg)
    finally:
        tracer.uninstall()
    assert (summary.frames, summary.errors) == (3, 0) and summary.readings > 0
    reached = {span[0] for span in tracer.spans} | {name for name, count in tracer.counts.items() if count}
    assert reached == {"pipeline.run_stream", "frameio.load_frame", "frameio.load_frame.bytes"} | (
        SAVING_HOOKS if saves_frames else set()
    )
    reference = pipeline.PipelineConfig(log_path=tmp_path / "reference.csv", output_dir=tmp_path / "reference")
    pipeline.run_stream(paths, detector, law, reference)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
