"""Ground-truth replay detector speaking the v1 external-adapter line protocol.

Usage: python3 adapter.py <labels.json> <confidence>

``labels.json`` holds one list per scene, in the order the stream will
request them, of ``[class_id, cx, cy, w, h]`` normalized boxes. The k-th
``FRAME`` request is answered with the k-th scene's boxes at the fixed
confidence. Before answering, the adapter checks that the request file
exists and that its PGM/PPM header carries the advertised width and height;
any mismatch is answered with ``ERR``, so the stream skips that frame and
the benchmark counts it as failed.

Stdlib only, so launching it costs little more than the interpreter start.
"""

import json
import os
import sys


def _netpbm_dims(path: str) -> tuple[int, int, int]:
    """(width, height, channels) from a binary PGM/PPM header."""
    with open(path, "rb") as handle:
        head = handle.read(64)
    tokens = head.split(maxsplit=4)
    if len(tokens) < 4 or tokens[0] not in (b"P5", b"P6"):
        raise ValueError("not a binary PGM/PPM file")
    return int(tokens[1]), int(tokens[2]), 1 if tokens[0] == b"P5" else 3


def _check_request(width: int, height: int, path: str) -> str | None:
    """An error message when the request file does not match the request."""
    try:
        file_w, file_h, channels = _netpbm_dims(path)
        size = os.stat(path).st_size
    except (OSError, ValueError) as exc:
        return f"unreadable request file: {exc}"
    if (file_w, file_h) != (width, height):
        return f"request file is {file_w}x{file_h}, request says {width}x{height}"
    if size < width * height * channels:
        return f"request file truncated at {size} bytes"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: adapter.py <labels.json> <confidence>", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        scenes = json.load(handle)
    confidence = argv[1]

    print("READY 1", flush=True)
    served = 0
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "FRAME" or len(parts) != 5:
            print("ERR bad request", flush=True)
            continue
        error = _check_request(int(parts[2]), int(parts[3]), parts[4])
        if error is None and served >= len(scenes):
            error = f"request {served + 1} beyond the {len(scenes)} scenes"
        if error is not None:
            print(f"ERR {error}", flush=True)
            served += 1
            continue
        boxes = scenes[served]
        served += 1
        out = [f"OK {len(boxes)}"]
        out += [f"DET {int(c)} {confidence} {cx!r} {cy!r} {w!r} {h!r}" for c, cx, cy, w, h in boxes]
        print("\n".join(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
