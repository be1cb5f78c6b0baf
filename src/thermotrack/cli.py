"""Command-line entry point.

Subcommands mirror the library workflows:

* ``prepare``        derive datasets (resize, horizontal-flip augment, combine)
* ``calibrate``      grid-search regression models on a calibration CSV,
                     screen them against a healthy population, persist the pick
* ``eval-detector``  score a detector against a labeled dataset
* ``run``            monitor an ordered frame source end to end
* ``synth``          generate a synthetic dataset with exact ground truth

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime abort,
143 stopped by SIGTERM (after the reading log and any adapter are closed).
A dataset directory with no frame file is a data error for every command
that reads its labels: ``prepare``, ``calibrate --guard-set``, ``eval-detector``
and ``run --detector replay``; ``run`` under blob or external prints ``frames=0``.
A ``--config`` file (key=value with one [section] per subcommand) supplies
values for unset flags; explicit flags win, and a key set by neither keeps
the library default.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import logging
import math
import re
import shlex
import signal
import sys
from pathlib import Path

from .annotations import PixelBBox, denormalize
from .detectors import (
    REPLAY_NMS_IOU,
    AdapterError,
    BlobDetector,
    DetectorConfig,
    ExternalAdapter,
    ExternalDetector,
    ReplayDetector,
)
from .deteval import CSV_HEADER, map_over_thresholds
from .frameio import (
    DatasetItem,
    ThermalFrame,
    atomic_write_text,
    bgr_to_grayscale,
    horizontal_flip,
    list_frame_paths,
    pair_frames_with_labels,
    read_labels,
    resize,
    save_item,
)
from .pipeline import PipelineConfig, extract_max_pixel, run_stream
from .synthscene import load_sequence_spec, write_dataset
from .thermoreg import (
    MODEL_KINDS,
    NoViableModelError,
    grid_search,
    load_calibration_csv,
    load_model,
    save_model,
    select_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4
EXIT_SIGTERM = 128 + signal.SIGTERM


def _dims(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match or int(match[1]) <= 0 or int(match[2]) <= 0:
        raise argparse.ArgumentTypeError(f"expected WxH with positive dims, got {text!r}")
    return int(match[1]), int(match[2])


def _folds(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("--folds must be at least 2")
    return value


def _load_config(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    return parser


def _resolve(args, config, section: str, key: str, cast):
    """Flag value if given, else config value, else None."""
    value = getattr(args, key)
    if value is not None:
        return value
    if config is not None and config.has_option(section, key):
        raw = config.get(section, key)
        try:
            return cast(raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"config [{section}] {key}: bad value {raw!r}") from None
    return None


def _set_only(**values) -> dict:
    """The keyword arguments that were given, so the callee's defaults fill the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _add_detector_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--detector",
        help="replay | blob | external:<command line> (default blob)",
    )
    sub.add_argument("--conf-threshold", type=float, help="drop detections below this confidence")
    sub.add_argument("--nms-threshold", type=float, help="IoU threshold for suppression")
    sub.add_argument("--blob-threshold", type=int, help="blob binarization intensity")
    sub.add_argument("--blob-min-area", type=int, help="smallest blob kept, px^2")
    sub.add_argument("--blob-max-aspect", type=float, help="largest blob side ratio kept")
    sub.add_argument("--adapter-timeout", type=float, help="seconds to wait for the handshake and for each whole response")


# The flags only one detector reads, by argparse dest.
_DETECTOR_FLAGS = {
    "blob": ("blob_threshold", "blob_min_area", "blob_max_aspect"),
    "external": ("adapter_timeout",),
}


def _reject_unused_flags(args, detector: str) -> None:
    """Fail on a flag given on the command line that ``detector`` does not
    read; config-file keys are not checked."""
    for owner, flags in _DETECTOR_FLAGS.items():
        for flag in flags:
            if owner != detector and getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} does not apply to the {detector} detector")


def _build_detector(args, config, section: str, dataset_dir: str | Path | None):
    """Returns (detector, the context that closes it): the adapter for an
    external detector, a no-op context otherwise. Only replay reads
    ``dataset_dir``, for its labels alone; it is None for an unlabeled source."""
    spec = _resolve(args, config, section, "detector", str)
    if spec is None:
        spec = "blob"
    settings = _set_only(
        confidence_threshold=_resolve(args, config, section, "conf_threshold", float),
        nms_iou_threshold=_resolve(args, config, section, "nms_threshold", float),
    )
    kind = "external" if spec.startswith("external:") else spec
    if kind not in ("replay", "blob", "external"):
        raise ValueError(f"unknown detector {spec!r}; use replay, blob, or external:<cmd>")
    _reject_unused_flags(args, kind)
    if kind == "replay":
        if dataset_dir is None:
            raise ValueError("the replay detector needs a labeled dataset directory")
        settings.setdefault("nms_iou_threshold", REPLAY_NMS_IOU)
        return ReplayDetector(read_labels(dataset_dir), DetectorConfig(**settings)), contextlib.nullcontext()
    if kind == "blob":
        settings.update(_set_only(
            intensity_threshold=_resolve(args, config, section, "blob_threshold", int),
            min_blob_area=_resolve(args, config, section, "blob_min_area", int),
            max_aspect_ratio=_resolve(args, config, section, "blob_max_aspect", float),
        ))
        return BlobDetector(DetectorConfig(**settings)), contextlib.nullcontext()
    command = shlex.split(spec[len("external:") :])
    if not command:
        raise ValueError("external detector needs a command line after 'external:'")
    # Built before the launch, so a bad threshold leaves no process behind.
    cfg = DetectorConfig(**settings)
    timeout = _resolve(args, config, section, "adapter_timeout", float)
    adapter = ExternalAdapter(command, **_set_only(response_timeout_s=timeout))
    return ExternalDetector(adapter, cfg), adapter


def cmd_prepare(args, config) -> int:
    sources = [args.src, *(args.combine or [])]
    # Stems in order, read off the label files alone: a failed check writes nothing.
    stems: dict[str, None] = {}
    for source in sources:
        for stem in read_labels(source):
            if stem in stems:
                raise ValueError(f"stem collision while combining: {stem!r}")
            stems[stem] = None
    if args.augment_hflip:
        for stem in stems:
            if f"{stem}_hf" in stems:
                raise ValueError(f"augmented stem collides: {stem + '_hf'!r}")
    # One item at a time: one source frame, its derived frame and its mirror are held.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for source in sources:
        for item in pair_frames_with_labels(source):
            if args.resize is not None:
                item = DatasetItem(resize(item.frame, *args.resize), item.labels)
            save_item(item, out_dir)
            if args.augment_hflip:
                flipped = horizontal_flip(item)
                flipped.frame.source_id = f"{item.frame.source_id}_hf"
                save_item(flipped, out_dir)
    print(f"items={len(stems) * (2 if args.augment_hflip else 1)}")
    print(f"out={args.out}")
    return EXIT_OK


def _gray_with_boxes(item: DatasetItem) -> tuple[ThermalFrame, list[PixelBBox]]:
    """A dataset item's frame in gray and its label boxes in pixels."""
    frame = item.frame if item.frame.channels == 1 else bgr_to_grayscale(item.frame)
    return frame, [denormalize(label.bbox, frame.width, frame.height) for label in item.labels]


def _guard_pixels(guard_dir: str) -> list[int]:
    items = map(_gray_with_boxes, pair_frames_with_labels(guard_dir))
    pixels = [extract_max_pixel(frame, roi) for frame, rois in items for roi in rois]
    if not pixels:
        raise ValueError(f"guard set {guard_dir} contains no labeled regions")
    return pixels


def _load_grids(path: str) -> dict[str, list[dict]]:
    grids = json.loads(Path(path).read_text())
    if not isinstance(grids, dict) or not grids:
        raise ValueError(f"{path}: grids must be a nonempty object of kind -> points")
    for kind, points in grids.items():
        if kind not in MODEL_KINDS:
            raise ValueError(f"{path}: unknown model kind {kind!r}")
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise ValueError(f"{path}: grid for {kind!r} must be a list of objects")
    return grids


def cmd_calibrate(args, config) -> int:
    folds = _resolve(args, config, "calibrate", "folds", _folds)
    ceiling = _resolve(args, config, "calibrate", "ceiling", float)
    if ceiling is not None and not math.isfinite(ceiling):
        raise ValueError(f"ceiling must be finite, got {ceiling}")
    samples = load_calibration_csv(args.samples)
    grids = _load_grids(args.grids) if args.grids else None
    screening = _guard_pixels(args.guard_set) if args.guard_set else None
    report = grid_search(samples, grids, **_set_only(k_folds=folds, seed=args.seed))
    model = select_model(samples, report, screening, **_set_only(ceiling_c=ceiling))
    save_model(model, args.out)
    report_path = args.report or f"{args.out}.report.txt"
    atomic_write_text(report_path, report.to_text())
    assert model.provenance is not None
    print(f"selected={model.kind}")
    print(f"hyperparams={json.dumps(model.hyperparams, sort_keys=True)}")
    print(f"cv_mse={model.provenance['cv_mean_mse']:.6f}")
    print(f"cv_r2={model.provenance['cv_mean_r2']:.6f}")
    print(f"guard_passed={model.provenance['guard']['passed']}")
    print(f"model={args.out}")
    print(f"report={report_path}")
    return EXIT_OK


def cmd_eval_detector(args, config) -> int:
    dataset_dir = Path(args.dataset)
    # Checked here, so a dataset error raises before any adapter launches.
    items = map(_gray_with_boxes, pair_frames_with_labels(dataset_dir))
    detector, closing = _build_detector(args, config, "eval-detector", dataset_dir)
    dets_per_image = []
    gts_per_image = []
    with closing:
        for frame, boxes in items:
            dets_per_image.append(detector.detect(frame))
            gts_per_image.append(boxes)
    report = map_over_thresholds(dets_per_image, gts_per_image)
    prefix = args.out_prefix or f"eval_{dataset_dir.name}"
    atomic_write_text(f"{prefix}.csv", CSV_HEADER + "\n" + report.to_csv_row(dataset_dir.name) + "\n")
    atomic_write_text(f"{prefix}.txt", report.to_text())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_run(args, config) -> int:
    section = "run"
    model_path = Path(args.model)
    if not model_path.is_file():
        raise FileNotFoundError(f"model file not found: {model_path}")
    model = load_model(model_path)
    if args.frames == "-":
        # Lazy, so each path is processed as it arrives on a live pipe.
        source = (Path(line.strip()) for line in sys.stdin if line.strip())
        dataset_dir = None
    else:
        source = list_frame_paths(args.frames)
        dataset_dir = args.frames
    settings = _set_only(
        min_bbox_area=_resolve(args, config, section, "min_bbox_area", float),
        overlay_decimals=_resolve(args, config, section, "decimals", int),
        fever_threshold_c=_resolve(args, config, section, "fever_threshold", float),
    )
    cfg = PipelineConfig(
        overlay_enabled=not args.no_overlay, log_path=args.log, output_dir=args.out, **settings
    )
    detector, closing = _build_detector(args, config, section, dataset_dir)
    with closing:
        summary = run_stream(source, detector, model, cfg)
    print(summary.to_text(), end="")
    return EXIT_OK


def cmd_synth(args, config) -> int:
    seq = load_sequence_spec(args.spec)
    if args.seed is not None:
        seq.seed = args.seed
    n_frames = write_dataset(seq, args.out)
    print(f"frames={n_frames}")
    print(f"out={args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermotrack",
        description="Thermal face monitoring: dataset prep, calibration, detector evaluation, live runs.",
    )
    parser.add_argument("--config", help="key=value config file with one [section] per subcommand")
    parser.add_argument("--seed", type=int, help="seed for every stochastic step")
    parser.add_argument("-v", "--verbose", action="store_true", help="log skipped frames and details")
    commands = parser.add_subparsers(dest="command", required=True)

    prepare = commands.add_parser("prepare", help="derive a dataset (resize/augment/combine)")
    prepare.add_argument("src", help="source dataset directory (frames + labels)")
    prepare.add_argument("out", help="output dataset directory")
    prepare.add_argument("--resize", type=_dims, help="target WxH, e.g. 640x640")
    prepare.add_argument("--augment-hflip", action="store_true", help="add horizontally flipped copies")
    prepare.add_argument("--combine", nargs="*", help="additional dataset directories to merge")
    prepare.set_defaults(func=cmd_prepare)

    calibrate = commands.add_parser("calibrate", help="fit, cross-validate, guard, and persist a model")
    calibrate.add_argument("samples", help="calibration CSV (max_pixel,temperature_c)")
    calibrate.add_argument("--out", required=True, help="path for the persisted model")
    calibrate.add_argument("--report", help="path for the ranked report (default <out>.report.txt)")
    calibrate.add_argument("--grids", help="JSON file of hyperparameter grids per model kind")
    calibrate.add_argument("--folds", type=_folds, help="cross-validation folds (default 5)")
    calibrate.add_argument("--guard-set", help="labeled dataset of a known-healthy population")
    calibrate.add_argument("--ceiling", type=float, help="plausibility ceiling in deg C (default 38)")
    calibrate.set_defaults(func=cmd_calibrate)

    evaldet = commands.add_parser("eval-detector", help="score a detector on a labeled dataset")
    evaldet.add_argument("dataset", help="dataset directory (frames + labels)")
    evaldet.add_argument("--out-prefix", help="prefix for the .csv/.txt report files")
    _add_detector_args(evaldet)
    evaldet.set_defaults(func=cmd_eval_detector)

    run = commands.add_parser("run", help="run the monitoring pipeline over a frame source")
    run.add_argument("frames", help="frame directory, or '-' to read file paths from stdin")
    run.add_argument("--model", required=True, help="persisted calibration model")
    run.add_argument("--out", help="directory for annotated output frames")
    run.add_argument("--log", help="CSV reading log path")
    run.add_argument("--min-bbox-area", type=float, help="smallest box kept, px^2 at 160x120 scale")
    run.add_argument("--fever-threshold", type=float, help="flag readings above this, deg C")
    run.add_argument("--decimals", type=int, help="overlay temperature decimals (default 1)")
    run.add_argument("--no-overlay", action="store_true", help="skip box/text rendering")
    _add_detector_args(run)
    run.set_defaults(func=cmd_run)

    synth = commands.add_parser("synth", help="generate a synthetic dataset with ground truth")
    synth.add_argument("spec", help="scene sequence spec file ([scene]/[faces] sections)")
    synth.add_argument("--out", required=True, help="output dataset directory")
    synth.set_defaults(func=cmd_synth)
    return parser


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(EXIT_SIGTERM)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    # SIGTERM unwinds like an exception, so every with and finally block closes
    # the reading log and stops the adapter, which removes its scratch directory.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (ValueError, NoViableModelError, AdapterError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
