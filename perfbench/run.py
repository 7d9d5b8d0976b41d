"""cubic-lab benchmark: census, classify and construct on cold processes.

    python3 perfbench/run.py --workload {census,classify,construct,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``. With
``--trace 0`` a fixed number of set-up samples, then runs of the workload,
go in fresh processes, one after another; the runs go on until
``--seconds`` have passed (at least one run). A reference job is timed
before and after every measured process, and the end-to-end times are wall
times scaled to reference speed; the metrics are medians over the samples
and runs. With
``--trace 1`` the workload runs in process, alternately with and without
span recording, and the per-layer metrics come from the spans. Every output
is checked; a mismatch, a non-zero exit or an exception fails the input and
never aborts the run.

The human-readable report goes to stdout first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is one input graph, or the whole job for ``census``; it fails
if any run gets it wrong or raises on it, so ``attempted`` and ``failed``
depend on the seed and not on how many runs fit. ``correct`` is false only
when the program answered wrongly (a mismatch or a bad exit); graphs on
which it raised are listed and counted in ``failed``. Results, provenance
and raw spans are written under ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import jobs
import tracing

WORKLOADS = ("census", "classify", "construct")
COPIES = {"classify": 2, "construct": 1}
SETUP_SAMPLES = 16
SETUP_BATCH = 4
# Wall time of reference.py that the scaled times assume; roughly its time
# on the host the benchmark was written on, so scaled and raw times are alike.
REF_NOMINAL_S = 0.4
RUN_TIMEOUT_S = 170.0
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Gate:
    """Operations attempted, and the first failure of each failed one."""

    attempted: int
    failures: dict[int, tuple[str, bool]] = field(default_factory=dict)

    def fail(self, op: int, what: str, wrong: bool) -> None:
        self.failures.setdefault(op, (what, wrong))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wrong(self) -> bool:
        return any(wrong for _, wrong in self.failures.values())


@dataclass
class Workload:
    name: str
    graphs: int
    corpus_path: str
    expected: list  # per-input expectations, or the expected census bytes

    def cold_argv(self) -> list[str]:
        if self.name == "construct":
            return [sys.executable, str(BENCH_DIR / "jobs.py"), "construct", self.corpus_path]
        return [sys.executable, "-m", "cubic_lab.cli", *jobs.cli_argv(self.name, self.corpus_path)]

    def operations(self) -> int:
        return 1 if self.name == "census" else self.graphs


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(argv: list[str], env: dict, stdout_path: Path) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, peak RSS in MB, exit code).

    The process is started and measured by ``launch.py``. A run past the
    timeout has its whole process group killed and counts as a failed exit.
    """
    measured = stdout_path.with_suffix(".run.json")
    measured.unlink(missing_ok=True)
    launcher = [sys.executable, str(BENCH_DIR / "launch.py"), str(measured), *argv]
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(launcher, stdout=out, stderr=err, env=env, start_new_session=True)
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _reap_group(proc)
    if not measured.exists():
        return RUN_TIMEOUT_S, 0.0, -signal.SIGKILL
    run = json.loads(measured.read_text())
    return run["wall_s"], run["peak_rss_mb"], run["exit"]


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill and wait out the launcher and anything left in its process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Gauge:
    """Runs measured processes between timings of ``reference.py``.

    The host's speed moves in phases of half a minute or more. A measured
    wall time is scaled by ``REF_NOMINAL_S`` over the mean reference time
    just before and just after it, which is its wall time on a host that
    runs the reference job in ``REF_NOMINAL_S``.
    """

    def __init__(self, env: dict, out_dir: Path) -> None:
        self.env = env
        self.out_dir = out_dir
        self.last_ref_s = self._reference()

    def _reference(self) -> float:
        argv = [sys.executable, str(BENCH_DIR / "reference.py")]
        wall, _, code = run_child(argv, self.env, self.out_dir / "reference.out")
        if code != 0:
            raise SystemExit(f"the reference job exited {code}")
        return wall

    def measure(self, argv: list[str], stdout_path: Path, repeat: int = 1) -> list[dict]:
        """Run ``argv`` ``repeat`` times in a row between two reference timings."""
        runs = [run_child(argv, self.env, stdout_path) for _ in range(repeat)]
        before, self.last_ref_s = self.last_ref_s, self._reference()
        ref_s = (before + self.last_ref_s) / 2
        return [{"wall_s": wall, "ref_s": ref_s, "scaled_s": wall * REF_NOMINAL_S / ref_s,
                 "peak_rss_mb": rss_mb, "exit": code} for wall, rss_mb, code in runs]


def measure_setup(gauge: Gauge) -> list[dict]:
    """Fresh interpreters that import cubic_lab.cli and exit, after one warm-up
    (the first import may also write bytecode). A sample is short, so
    ``SETUP_BATCH`` of them share each pair of reference timings."""
    argv = [sys.executable, "-c", "import cubic_lab.cli"]
    path = gauge.out_dir / "setup.out"
    if run_child(argv, gauge.env, path)[2] != 0:
        raise SystemExit("importing cubic_lab.cli failed")
    runs = [run for _ in range(SETUP_SAMPLES // SETUP_BATCH)
            for run in gauge.measure(argv, path, SETUP_BATCH)]
    if any(run["exit"] != 0 for run in runs):
        raise SystemExit("importing cubic_lab.cli failed")
    return runs


# ---------------------------------------------------------------------------
# inputs and gates
# ---------------------------------------------------------------------------

def verify_classes(classes: list[corpus.BaseClass]) -> None:
    """The recorded classes are pairwise non-isomorphic (program canonical forms)."""
    from cubic_lab.graphs import parse_graph6
    from cubic_lab.symmetry import canonical_form

    forms = {canonical_form(parse_graph6(c.graph6)).graph6 for c in classes}
    if len(forms) != len(classes):
        raise SystemExit(f"recorded classes hold only {len(forms)} isomorphism classes")


def build_workload(name: str, seed: int, classes, out_dir: Path) -> Workload:
    if name == "census":
        graphs = sum(1 for c in classes if c.n <= jobs.CENSUS_N_MAX)
        return Workload(name, graphs, "", [corpus.census_rows(jobs.CENSUS_N_MAX)])
    bases = classes if name == "classify" else [
        c for c in classes if c.facts["class"] == "biconnected"
    ]
    items = corpus.relabeled_corpus(bases, COPIES[name], seed)
    path = out_dir / f"{name}-seed{seed}.g6"
    path.write_text("".join(g6 + "\n" for g6, _ in items))
    return Workload(name, len(items), str(path), items)


def census_jobs1(env: dict, out_dir: Path) -> bytes | None:
    """Output of ``census --jobs 1``, run once per invocation and untimed."""
    argv = [sys.executable, "-m", "cubic_lab.cli", *jobs.CENSUS_ARGV[:-1], "1"]
    path = out_dir / "census-jobs1.out"
    _, _, code = run_child(argv, env, path)
    return path.read_bytes() if code == 0 else None


def check(workload: Workload, code: int, output: bytes, jobs1: bytes | None, gate: Gate) -> None:
    if workload.name == "census":
        if code != 0:
            gate.fail(0, f"census exited {code}", wrong=True)
        elif output != workload.expected[0]:
            gate.fail(0, "census output differs from the recorded CSV", wrong=True)
        elif output != jobs1:
            gate.fail(0, "census --jobs 2 output differs from --jobs 1", wrong=True)
        return
    if code != 0:
        for op, (g6, _) in enumerate(workload.expected):
            gate.fail(op, f"{g6} (exit {code})", wrong=True)
        return
    lines = output.decode().splitlines()
    if len(lines) != workload.graphs:
        lines += [""] * (workload.graphs - len(lines))
    for op, ((g6, base), line) in enumerate(zip(workload.expected, lines)):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            gate.fail(op, f"{g6} (no output record)", wrong=True)
            continue
        if record.get("graph6") != g6:
            gate.fail(op, f"{g6} (record is for {record.get('graph6')})", wrong=True)
        elif workload.name == "classify":
            got = {key: record.get(key) for key in corpus.FACT_KEYS}
            if got != base.facts:
                gate.fail(op, f"{g6} (classified {got}, base class {base.graph6} is {base.facts})", wrong=True)
        elif "error" in record:
            gate.fail(op, f"{g6} ({record['error']})", wrong=False)
        elif not (record["bridgeless"] and record["holds_stabilizer"]):
            gate.fail(op, f"{g6} (bridgeless={record['bridgeless']}, "
                          f"holds_stabilizer={record['holds_stabilizer']})", wrong=True)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_runs(workload: Workload, seconds: int, gauge: Gauge, jobs1, gate: Gate) -> tuple[dict, dict]:
    setup = measure_setup(gauge)
    runs = []
    stdout_path = gauge.out_dir / f"{workload.name}.out"
    deadline = perf_counter() + seconds
    while not runs or perf_counter() < deadline:
        [run] = gauge.measure(workload.cold_argv(), stdout_path)
        check(workload, run["exit"], stdout_path.read_bytes(), jobs1, gate)
        runs.append(run)
    metrics = {
        "setup_s": (statistics.median(s["scaled_s"] for s in setup), "s"),
        "graphs_per_s": (statistics.median(workload.graphs / r["scaled_s"] for r in runs), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    raw = {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "graphs_per_s": statistics.median(workload.graphs / r["wall_s"] for r in runs),
        "ref_s": statistics.median(r["ref_s"] for r in runs),
    }
    return metrics, {"unscaled": raw, "setup": setup, "runs": runs}


def inproc_run(workload: Workload, traced: bool, result_path: Path, env: dict, out_dir: Path) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "jobs.py"), "inproc",
            workload.name, workload.corpus_path, str(result_path)]
    _, _, code = run_child(argv + (["--trace"] if traced else []), env, out_dir / "inproc.out")
    if code != 0:
        raise SystemExit(f"in-process {workload.name} run (traced={traced}) exited {code}")
    return json.loads(result_path.read_text())


def traced_runs(workload: Workload, seconds: int, seed: int, env: dict, jobs1, out_dir: Path, gate: Gate) -> tuple[dict, dict]:
    """Untraced and traced in-process runs, alternating, until ``seconds``
    have passed (at least one pair). The per-layer metrics come from the
    first traced run, whose spans are kept in its result file; the overhead
    is the median traced/untraced job-time ratio over the pairs."""
    pairs = []
    first = None
    deadline = perf_counter() + seconds
    while not pairs or perf_counter() < deadline:
        job_s = {}
        for traced in (False, True):
            label = "traced" if traced else "untraced"
            keep = traced and first is None
            path = out_dir / f"{workload.name}-seed{seed}-{label}{'' if keep else '-last'}.json"
            result = inproc_run(workload, traced, path, env, out_dir)
            check(workload, result["exit"], result["stdout"].encode(), jobs1, gate)
            job_s[label] = result["job_s"]
            if keep:
                first = result
        pairs.append(job_s)
    values, tails = tracing.layer_metrics(
        first["spans"], first["graph_inits"], first["cache_counts"], workload.graphs)
    values["trace.graphs_per_s"] = statistics.median(workload.graphs / p["traced"] for p in pairs)
    values["trace.overhead"] = statistics.median(p["traced"] / p["untraced"] for p in pairs)
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.per_layer_names()}
    return metrics, {"tail_percentiles": tails, "job_s": pairs, "spans": len(first["spans"])}


# ---------------------------------------------------------------------------
# provenance and report
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def run_workload(name: str, args, root: Path, env: dict, classes, out_dir: Path) -> dict:
    workload = build_workload(name, args.seed, classes, out_dir)
    gate = Gate(workload.operations())
    jobs1 = census_jobs1(env, out_dir) if name == "census" else None
    if args.trace:
        metrics, detail = traced_runs(workload, args.seconds, args.seed, env, jobs1, out_dir, gate)
    else:
        metrics, detail = timed_runs(workload, args.seconds, Gauge(env, out_dir), jobs1, gate)
    result = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, args.seed),
        "graphs_per_run": workload.graphs,
        "ref_nominal_s": REF_NOMINAL_S,
        "detail": detail,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_share": gate.failed / gate.attempted,
        "failures": [what for _, (what, _) in sorted(gate.failures.items())],
        "correct": not gate.wrong,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    path = out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return result


def report(result: dict) -> None:
    prov = result["provenance"]
    print(f"== {result['workload']}: seed {prov['seed']}, trace {result['trace']}, "
          f"{result['graphs_per_run']} graphs per run, commit {prov['git_commit']}, "
          f"python {prov['python']}, nproc {prov['nproc']}, cpu {prov['cpu_model']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  {'failed_share':48s} {result['failed_share']:14.6f} "
          f"({result['failed']}/{result['attempted']})")
    if result["trace"]:
        tails = result["detail"]["tail_percentiles"]
        print("  tail percentiles: " + ", ".join(f"{k} p{v:g}" for k, v in tails.items()))
    else:
        raw = result["detail"]["unscaled"]
        print(f"  unscaled: setup_s {raw['setup_s']:.6f} s, graphs_per_s {raw['graphs_per_s']:.6f} 1/s; "
              f"{len(result['detail']['runs'])} runs, reference job {raw['ref_s']:.6f} s "
              f"(nominal {result['ref_nominal_s']} s)")
    for failure in result["failures"]:
        print(f"  failed: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that run_child kills and waits out its process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "cubic_lab" / "cli.py").is_file():
        print(f"error: no cubic_lab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 1
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    sys.path.insert(0, str(src))

    classes = corpus.load_classes()
    verify_classes(classes)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, root, env, classes, out_dir) for name in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in results for key, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
