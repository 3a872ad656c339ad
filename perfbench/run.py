"""fhn_pulse benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload {refine_chain,relax,verify_suite}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nothing is installed. With `--trace 0` the run
times repetitions of the workload body for about S seconds (at least one),
checks every repetition's outputs, and reports the end-to-end metrics.
With `--trace 1` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (see NOTES.md). The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units are the ones declared in BENCHMARK.json at the
checkout root. Per-run records (environment, repetition times, gates) and
the spans of traced runs are written under `.perfbench_out/`.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported anywhere.
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("refine_chain", "relax", "verify_suite")
# Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_PROBES = 5


class BenchError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package() -> None:
    """Import fhn_pulse from this checkout's src/ and nowhere else."""
    if not (SRC / "fhn_pulse" / "__init__.py").is_file():
        raise BenchError(f"no fhn_pulse sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fhn_pulse

    where = pathlib.Path(fhn_pulse.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"fhn_pulse imported from {where}, not from {SRC}")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def git_commit() -> str | None:
    """Commit of the checkout, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    np_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]
    sp_cfg = scipy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: np_cfg["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "scipy_blas": {k: sp_cfg["blas"].get(k) for k in ("name", "version")},
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure_setup(args) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes that import the package
    and prepare the workload's inputs, then exit: process start to the
    point where the first timed repetition would begin."""
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
    return times


class Run:
    """Repetitions of one workload with their gates and digests."""

    def __init__(self, wl, state, workdir: pathlib.Path):
        self.wl = wl
        self.state = state
        self.workdir = workdir
        self.gates: list[dict] = []
        self.digest0: str | None = None
        self.reps: list[dict] = []

    def rep(self, tracer=None) -> float:
        k = len(self.reps)
        rep_dir = self.workdir / f"rep{k}"
        if tracer is None:
            t0 = perf_counter()
            out = self.wl.body(self.state, rep_dir)
            wall = perf_counter() - t0
        else:
            tracer.install()
            try:
                with tracer.span(ROOT_SPAN) as root:
                    out = self.wl.body(self.state, rep_dir)
            finally:
                tracer.uninstall()
            wall = root[2] - root[1]
        gates = self.wl.gates(out)
        digest = self.wl.digest(out, rep_dir)
        if self.digest0 is None:
            self.digest0 = digest
        else:
            gates.append(("bitwise_repeat", digest == self.digest0,
                          f"rep {k} digest {digest[:16]} vs rep 0 {self.digest0[:16]}"))
        for name, ok, detail in gates:
            self.gates.append({"rep": k, "gate": name, "ok": bool(ok), "detail": detail})
        self.reps.append({"rep": k, "traced": tracer is not None, "wall_s": wall,
                          "digest": digest, **self.wl.summary(out)})
        shutil.rmtree(rep_dir, ignore_errors=True)
        return wall

    @property
    def failed(self) -> int:
        return sum(not g["ok"] for g in self.gates)


def run_untraced(run: Run, seconds: float) -> list[float]:
    walls = []
    t_start = perf_counter()
    while True:
        walls.append(run.rep())
        if perf_counter() - t_start + walls[-1] > seconds:
            return walls


def run_traced(run: Run, seconds: float, tracer: Tracer):
    """Alternate untraced and traced repetitions (at least one of each).
    Returns the untraced and traced wall times, the layer metrics and the
    spans of each traced repetition."""
    plain, traced, layers, spans = [], [], [], []
    t_start = perf_counter()
    while True:
        use_trace = len(traced) < len(plain)
        wall = run.rep(tracer if use_trace else None)
        if use_trace:
            traced.append(wall)
            layers.append(layer_metrics(tracer.spans, tracer.counters))
            spans.append(tracer.spans)
        else:
            plain.append(wall)
        elapsed = perf_counter() - t_start
        if plain and traced and elapsed + wall > seconds:
            return plain, traced, layers, spans


def median_metrics(per_rep: list[dict]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        from workloads import WORKLOADS
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        state = wl.setup(args.seed, workdir)
        if args.setup_only:
            return 0
        e2e_units, layer_units = declared_metrics()
        env = environment(args.seed)
        print("env: " + json.dumps(env, sort_keys=True))
        run = Run(wl, state, workdir)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env}
        if args.trace == 0:
            walls = run_untraced(run, args.seconds)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = measure_setup(args)
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": rss_mib,
            }
            units = e2e_units
            record["setup_samples_s"] = setups
            print(f"wall_s: median of {len(walls)} repetition(s): "
                  + ", ".join(f"{w:.4f}" for w in walls))
            print(f"setup_s: median of {len(setups)} fresh-process set-ups: "
                  + ", ".join(f"{s:.4f}" for s in setups))
        else:
            tracer = Tracer()
            plain, traced, layers, spans = run_traced(run, args.seconds, tracer)
            values = median_metrics(layers)
            values["trace.wall_s"] = statistics.median(traced)
            values["trace.untraced_wall_s"] = statistics.median(plain)
            values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
            units = layer_units
            record["bindings"] = tracer.bindings
            OUT.mkdir(parents=True, exist_ok=True)
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(span_path, "w", encoding="utf-8") as fh:
                for k, rep_spans in enumerate(spans):
                    for sid, (name, t0, t1, parent) in enumerate(rep_spans):
                        fh.write(json.dumps([k, sid, name, t0, t1, parent]) + "\n")
            print(f"traced {len(traced)} / untraced {len(plain)} repetition(s); "
                  f"spans in {span_path.relative_to(ROOT)}")
        if set(values) != set(units):
            raise BenchError(
                f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
                f"undeclared {sorted(set(values) - set(units))}"
            )
        for g in run.gates:
            if not g["ok"]:
                print(f"FAILED gate {g['gate']} (rep {g['rep']}): {g['detail']}")
        record.update(reps=run.reps, gates=run.gates, metrics=values)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        for name in units:
            print(f"{name} = {values[name]!r} {units[name]}")
        result = {
            "correct": run.failed == 0,
            "attempted": len(run.gates),
            "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        traceback.print_exc()
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
