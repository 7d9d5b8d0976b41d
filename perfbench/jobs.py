"""Jobs the benchmark starts in fresh child processes.

    python3 jobs.py construct CORPUS
        The construct workload: for each graph6 line of CORPUS, run
        bridge_construct, then insertion_family in stabilizer mode (the CLI
        default), and print one JSON record per graph.

    python3 jobs.py inproc WORKLOAD CORPUS OUT [--trace]
        Run one workload inside this process (``cli.main(argv)`` for the CLI
        workloads), optionally with span recording, and write the output,
        exit code, in-process job time and spans to OUT as JSON.

Both need ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing

# n <= 12 (112 classes) keeps a census run to a few seconds, so that an
# invocation holds several runs; see the README.
CENSUS_N_MAX = 12
CENSUS_ARGV = ["census", "--n-min", "4", "--n-max", str(CENSUS_N_MAX), "--jobs", "2"]


def cli_argv(workload: str, corpus: str) -> list[str]:
    if workload == "census":
        return list(CENSUS_ARGV)
    return ["classify", "--in", corpus]


def construct_records(lines: list[str]) -> list[dict]:
    # module attributes are looked up per call so that an installed tracer sees them
    from cubic_lab import construction, graphs, symmetry

    records = []
    for g6 in lines:
        try:
            rec = construction.bridge_construct(graphs.parse_graph6(g6))
            family = construction.insertion_family(rec, symmetry.MODE_STABILIZER)
            records.append({
                "graph6": g6,
                "members": len(family.members),
                "bridgeless": construction.active_side_bridgeless(rec),
                "holds_stabilizer": construction.depth_bound_report(rec).holds_stabilizer,
            })
        except Exception as exc:  # a failed graph is recorded and counted, never fatal
            records.append({"graph6": g6, "error": f"{type(exc).__name__}: {exc}"})
    return records


def construct_output(corpus: str) -> str:
    lines = Path(corpus).read_text().split()
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in construct_records(lines))


def run_inproc(workload: str, corpus: str, traced: bool) -> dict:
    from cubic_lab import cli

    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    buffer = io.StringIO()
    start = perf_counter()
    try:
        if workload == "construct":
            buffer.write(construct_output(corpus))
            code = 0
        else:
            with redirect_stdout(buffer):
                code = cli.main(cli_argv(workload, corpus))
    except Exception:  # an escaped exception fails the job as it would the CLI process
        traceback.print_exc()
        code = 1
    job_s = perf_counter() - start
    return {
        "exit": code,
        "stdout": buffer.getvalue(),
        "job_s": job_s,
        "spans": tracer.spans,
        "graph_inits": tracer.graph_inits,
        "cache_counts": tracer.cache_counts() if traced else {},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["construct"] and len(argv) == 2:
        sys.stdout.write(construct_output(argv[1]))
        return 0
    if argv[:1] == ["inproc"] and len(argv) in (4, 5):
        result = run_inproc(argv[1], argv[2], traced=argv[4:] == ["--trace"])
        Path(argv[3]).write_text(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
