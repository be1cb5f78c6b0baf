"""Line-protocol detector stub for tests.

Speaks the external-detector protocol on stdin/stdout. The first argument
selects a behavior:

  empty                  handshake, then answer every frame with OK 0
  canned <file>          replay detections from a file of "class conf cx cy w h" lines
  labels <dir> <conf>    replay the dir's label files in request order at a
                         fixed confidence (the k-th FRAME request gets the
                         k-th .txt file sorted by stem)
  garbage                handshake, then answer with a nonsense token
  non-utf8               handshake, then answer with a header that is not UTF-8
  err                    handshake, then answer ERR to every frame
  slow <seconds>         handshake, then sleep before each answer; every
                         frame is answered with one DET line
  slow-once <seconds>    handshake, then sleep before the first answer only;
                         every frame is answered with one DET line
  partial                answer OK 1 and a DET line without its LF, then sleep
  die-mid                answer OK 2 and one DET line, then exit
  oversized              answer OK 1000000000 and no DET line, then sleep
  trickle                answer OK 1000000000, then one DET line every 10 ms
  crlf                   handshake and answer with CRLF line ends; every
                         frame is answered with one DET line
  die                    handshake, then exit on the first request
  silent                 never handshake (sleep forever)
  bad-handshake          emit a wrong handshake line
"""

import sys
import time
from pathlib import Path

DET_LINE = "DET 0 0.90 0.5 0.5 0.25 0.25"


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "empty"
    args = sys.argv[2:]

    if mode == "silent":
        time.sleep(60)
        return 0
    if mode == "bad-handshake":
        print("HELLO WORLD", flush=True)
        time.sleep(60)
        return 0

    if mode == "crlf":
        sys.stdout.reconfigure(newline="\r\n")
    print("READY 1", flush=True)

    label_files = sorted(Path(args[0]).glob("*.txt")) if mode == "labels" else []
    request_count = 0
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "FRAME" or len(parts) < 5:
            print("ERR bad request", flush=True)
            continue
        request_count += 1
        if mode == "die":
            return 0
        if mode == "garbage":
            print("BANANAS 42", flush=True)
        elif mode == "non-utf8":
            sys.stdout.buffer.write(b"OK \xff\n")
            sys.stdout.buffer.flush()
        elif mode == "err":
            print("ERR detector exploded", flush=True)
        elif mode in ("slow", "slow-once", "crlf"):
            if mode == "slow" or (mode == "slow-once" and request_count == 1):
                time.sleep(float(args[0]))
            print(f"OK 1\n{DET_LINE}", flush=True)
        elif mode == "partial":
            print(f"OK 1\n{DET_LINE}", end="", flush=True)
            time.sleep(60)
        elif mode == "oversized":
            print("OK 1000000000", flush=True)
            time.sleep(60)
        elif mode == "trickle":
            print("OK 1000000000", flush=True)
            while True:
                time.sleep(0.01)
                print(DET_LINE, flush=True)
        elif mode == "die-mid":
            print(f"OK 2\n{DET_LINE}", flush=True)
            return 0
        elif mode == "canned":
            records = [r for r in Path(args[0]).read_text().splitlines() if r.strip()]
            print(f"OK {len(records)}", flush=True)
            for record in records:
                print(f"DET {record}", flush=True)
        elif mode == "labels":
            records = []
            if request_count <= len(label_files):
                text = label_files[request_count - 1].read_text()
                records = [r.split() for r in text.splitlines() if r.strip()]
            print(f"OK {len(records)}", flush=True)
            for rec in records:
                print(f"DET {rec[0]} {args[1]} {rec[1]} {rec[2]} {rec[3]} {rec[4]}", flush=True)
        else:
            print("OK 0", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
