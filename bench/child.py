"""One fresh benchmark process.

Usage: ``python3 child.py SPEC.json`` with the package on ``PYTHONPATH``.
The process imports the package and runs the warm-up commands, prints
``ready``, waits for ``go`` on stdin, then runs the workload's commands in
order inside the run directory and writes their times, exit codes and its
peak RSS to the result file named in the spec.  With ``trace`` set it wraps
the package first (after the warm-up) and dumps the spans next to the result.
"""

import json
import os
import resource
import sys
import time
import traceback


def _run(cmd, cli, sieve):
    if cmd["lib"] == "count_primes":
        count = sieve.count_primes(cmd["params"]["limit"])
        return 0, "%d\n" % count
    try:
        return cli.main(list(cmd["argv"])), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(spec["dir"])
    from primeraces import cli, sieve
    for argv in spec["warmup"]:
        cli.main(list(argv))
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    rows = []
    for cmd in spec["commands"]:
        start = time.perf_counter()
        try:
            code, text = _run(cmd, cli, sieve)
        except Exception:
            code, text = "traceback", None
            traceback.print_exc()
        seconds = time.perf_counter() - start
        if text is not None:
            with open(cmd["artifacts"][0], "w", encoding="utf-8") as fh:
                fh.write(text)
        rows.append({"name": cmd["name"], "seconds": seconds, "exit": code})
    result = {"commands": rows,
              "peak_rss_kib": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["spans"] = spec["result"] + ".spans.jsonl"
        tracer.dump(result["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
