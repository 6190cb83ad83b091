"""Run one workload's CLI chain in this (fresh) process and report timings.

Usage: python3 perfbench/chain.py SPEC_JSON

SPEC_JSON names the stages (``[name, argv]`` pairs for ``elia.cli.main``),
whether to trace, and where to write the result. The chain stops at the
first stage that exits non-zero or raises. The result holds the import
time, the chain's wall time, per-stage exit codes, times and captured
stdout, this process's peak RSS and, when traced, the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``ru_maxrss`` also counts the parent's resident set at the moment of
    fork, which Linux carries across exec; the mm high-water mark does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec: dict) -> dict:
    started = time.perf_counter()
    import elia.cli

    import_s = time.perf_counter() - started
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    stages = []
    chain_started = time.perf_counter()
    for name, argv in spec["stages"]:
        out = io.StringIO()
        stage_started = time.perf_counter()
        error = ""
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    code = elia.cli.main(argv)
                else:
                    with tracer.span("cli." + name.replace("-", "_")):
                        code = elia.cli.main(argv)
        except Exception:  # a traceback escaping main is a failed stage
            code, error = -1, traceback.format_exc()
        stages.append({"name": name, "code": code, "wall_s": time.perf_counter() - stage_started,
                       "stdout": out.getvalue(), "error": error})
        if code != 0:
            break
    chain_s = time.perf_counter() - chain_started
    return {
        "import_s": import_s,
        "chain_s": chain_s,
        "stages": stages,
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.summary() if tracer is not None else None,
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
