"""One measured interpreter, started fresh by run.py for every repetition.

Usage: python3 child.py SPEC.json

SPEC names a mode and a result path. Every mode first imports the CLI and
stamps when it is ready. ``setup`` stops there, ``run`` makes the CLI calls
listed in SPEC untraced, and ``trace`` replays one workload under a tracer
and writes the spans. The result file holds the stamps, the outcome of each
call and the peak resident set size of this process.
"""

import json
import resource
import sys
import time
import traceback


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_call(main, argv: list) -> dict:
    start = now()
    try:
        rc = main(argv)
    except SystemExit as exc:       # argparse rejects arguments by exiting
        rc = exc.code
    except Exception:               # one failed call must not hide the others
        rc = traceback.format_exc()
    return {"argv": argv, "rc": rc, "start": start, "end": now()}


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t_import = now()
    import minplustree.cli

    t_ready = now()
    result = {"t_import": t_import, "t_ready": t_ready, "module": minplustree.cli.__file__}
    if spec["mode"] == "run":
        result["calls"] = [run_call(minplustree.cli.main, argv) for argv in spec["calls"]]
    elif spec["mode"] == "trace":
        import replay
        from spans import Tracer, write_spans

        tracer = Tracer(spec["run_id"], prefix=spec["workload"])
        tracer.add("cli.import", t_import, t_ready)
        try:
            replay.REPLAYS[spec["workload"]](tracer, spec["size"], spec["seed"],
                                             spec["out_dir"])
            result["replay_error"] = None
        except Exception:           # keep the spans recorded up to the failure
            result["replay_error"] = traceback.format_exc()
        write_spans(spec["spans"], tracer.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
