"""A linear model served over shapdec's external-model bridge (stdlib only).

Usage: bridge_model.py COEF1,COEF2,... INTERCEPT [STATS_FILE]

Speaks line-delimited JSON on stdin/stdout: {"op": "hello", ...} is
answered with {"ok": true}; {"op": "predict", "inputs": [[...], ...]} with
{"outputs": [...]}, one intercept + coef . row per input row. Exits when
stdin closes; with STATS_FILE it first writes there, as JSON, how many
requests it answered and how many bytes they took.
"""

import json
import signal
import sys


def _serve(coef, intercept, counts):
    out = sys.stdout
    for line in sys.stdin:
        counts["requests"] += 1
        counts["request_bytes"] += len(line)  # JSON text is ASCII: one byte per character
        request = json.loads(line)
        if request.get("op") == "hello":
            if request.get("n_features") == len(coef):
                reply = {"ok": True}
            else:
                reply = {"error": f"expected {len(coef)} features"}
        else:
            reply = {
                "outputs": [
                    intercept + sum(c * v for c, v in zip(coef, row))
                    for row in request["inputs"]
                ]
            }
        out.write(json.dumps(reply) + "\n")
        out.flush()


def main(argv):
    coef = [float(v) for v in argv[1].split(",")]
    intercept = float(argv[2])
    stats_file = argv[3] if len(argv) > 3 else None
    counts = {"requests": 0, "request_bytes": 0}
    if stats_file is None:
        _serve(coef, intercept, counts)
        return 0
    # ExternalModel.close() closes stdin and then terminates the process:
    # write the counts on either signal of the end
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    try:
        _serve(coef, intercept, counts)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with open(stats_file, "w") as handle:
            json.dump(counts, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
