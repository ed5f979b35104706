"""focsim benchmark: seeded campaign workloads timed end to end, with a
traced mode that reports time and work per module.

    python3 perfbench/run.py --workload ripple --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run of one workload:

1. set-up, in fresh interpreters: one untimed warm set-up (it also compiles
   focsim's bytecode), then SETUP_REPEATS timed ones; ``setup_s`` is their
   median. Every set-up must write byte-identical inputs.
2. a warm-up campaign at the tiny sizes, untimed, so lazy imports and
   first-call costs stay out of the timing.
3. campaigns with the drawn inputs until ``--seconds`` is used up, at least
   MIN_ROUNDS of them; ``campaign_s`` is the median over campaigns of the
   summed wall time of their ops. With ``--trace 1`` each round is an
   untraced campaign followed by a traced one, and the per-layer numbers are
   medians over the traced ones.
4. every result is checked; on the default seed also against
   ``reference.json``.

``campaign_s`` and ``setup_s`` are given at a fixed host speed: slices of a
calibration loop run between the timed pieces and each timing is rescaled
by them (``hostspeed``), so that a slower phase of a shared host does not
read as a slower program. The raw wall times are in the run record.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record with the machine, the thread settings,
the commit, the sizes and every sample goes to ``out/``, and the spans of a
traced run to ``out/spans-*.jsonl``.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, and focsim's own default worker count
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FOCSIM_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import prepare  # noqa: E402
from tracing import Probe, Trace  # noqa: E402
from workloads import WORKLOADS, Op, compare  # noqa: E402

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 7
MIN_ROUNDS = {0: 3, 1: 2}
HARD_LIMIT_S = 150.0  # a run must end well inside 180 s

END_TO_END = {"campaign_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# layer -> reported fields; which end-to-end metric each should move, and
# where, is in README.md
PER_LAYER = (
    ("spun.propagate_trajectory", ("calls", "self_s", "segments", "ns_per_segment")),
    ("spun.total_matrix", ("calls", "self_s", "segments", "ns_per_segment")),
    ("spun.spin_angle", ("calls", "self_s", "points")),
    ("spun.stability_metrics", ("self_s",)),
    ("spun.conversion_length", ("self_s",)),
    ("elements.detected_intensity", ("calls", "self_s", "fringe_null")),
    ("elements.roundtrip_field", ("calls", "self_s")),
    ("experiments.run_current_sweep", ("calls", "self_s")),
    ("experiments.run_imperfection_scan", ("self_s",)),
    ("experiments.run_xi_sweep", ("self_s",)),
    ("experiments.run_convergence_ladder", ("self_s",)),
    ("tables.render", ("calls", "self_s", "rows", "bytes")),
    ("cli.main", ("calls", "self_s", "exit_nonzero")),
    ("config.load_config", ("calls", "self_s")),
    ("setup", ("import_s",)),
    ("trace", ("overhead_frac",)),
)
FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "segments": "count",
    "ns_per_segment": "ns",
    "points": "count",
    "fringe_null": "count",
    "rows": "count",
    "bytes": "bytes",
    "exit_nonzero": "count",
    "import_s": "s",
    "overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark itself cannot run: no program, or its set-up failed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json")
    p.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's checked values as the reference (default seed only)",
    )
    p.add_argument("--out-dir", type=Path, default=HERE / "out")
    return p.parse_args(argv)


# ---- run record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = prepare.ROOT / ".git"
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


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((prepare.SRC / "focsim").rglob("*.py")):
        digest.update(str(path.relative_to(prepare.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(fs, args, mode) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "mode": mode,
        "sizes": prepare.SIZES[mode],
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "thread_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "FOCSIM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "constants_fingerprint": fs.constants_fingerprint(),
    }


# ---- phases


def run_setups(args, mode: str, work_dir: Path) -> tuple[list[Op], dict]:
    """Warm set-up plus SETUP_REPEATS timed ones, each in a fresh interpreter
    and each timed one followed by a timed ``import numpy`` in another."""
    cmd = [sys.executable, str(HERE / "prepare.py"), args.workload, str(args.seed), mode, str(work_dir)]
    ops, setup_s, import_s, numpy_s = [], [], [], []
    first_digest = None
    for i in range(1 + SETUP_REPEATS):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up did not finish in {exc.timeout} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up exited {proc.returncode}:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        op = Op("setup", out)
        first_digest = first_digest or out["digest"]
        if out["digest"] != first_digest:
            op.problems.append("set-up wrote different inputs for the same seed")
        ops.append(op)
        if i > 0:
            setup_s.append(out["setup_s"])
            import_s.append(out["import_s"])
            numpy_s.append(hostspeed.import_numpy_s())
    return ops, {"setup_wall_s": setup_s, "import_s": import_s, "import_numpy_s": numpy_s}


def run_campaign(workload, probe: Probe, trace: Trace | None, meter=None) -> tuple[float, list[Op]]:
    """Every op of the workload once; returns the summed wall time of the
    ops. With a meter, calibration slices run between the ops, untimed."""
    ops = []
    elapsed = 0.0
    with probe.installed(trace):
        root = trace.open("campaign") if trace else None
        for name, fn in workload.ops():
            probe.taps.clear()
            sid = trace.open(f"op:{name}") if trace else None
            start = time.perf_counter()
            try:
                value, error = fn(), None
            except Exception as exc:  # one failed op must not stop the run
                value, error = None, f"{type(exc).__name__}: {exc}"
            op_s = time.perf_counter() - start
            elapsed += op_s
            if trace:
                trace.close(sid)
            ops.append(Op(name, value, error, list(probe.taps)))
            if meter:
                meter.after(op_s)
        if trace:
            trace.close(root)
    workload.collect(ops)
    return elapsed, ops


def check_campaign(workload, ops: list[Op], reference: dict | None) -> dict:
    """Check every op; returns {op name: values} for recording a reference."""
    values = {}
    for op in ops:
        if op.error is not None:
            continue
        values[op.name] = workload.check(op)
        if reference is not None:
            if op.name not in reference:
                op.problems.append("no reference values for this op")
            else:
                op.problems.extend(compare(reference[op.name], values[op.name]))
    return values


def layer_metrics(traces: list[Trace], import_s: list[float], overhead: float) -> dict:
    """Median self times over the traced campaigns; counts, which repeat
    exactly, from the last one."""
    selfs = [t.self_times() for t in traces]
    counts = traces[-1].counts
    out = {}
    for layer, fields in PER_LAYER:
        self_s = statistics.median(s.get(layer, 0.0) for s in selfs)
        for f in fields:
            if f == "self_s":
                v = self_s
            elif f == "ns_per_segment":
                segs = counts.get(layer, {}).get("segments", 0)
                v = self_s * 1e9 / segs if segs else 0.0
            elif f == "import_s":
                v = statistics.median(import_s)
            elif f == "overhead_frac":
                v = overhead
            else:
                v = counts.get(layer, {}).get(f, 0)
            out[f"{layer}.{f}"] = v
    return out


def _layer_shares(trace: Trace) -> dict:
    """Self-time share of each span name in one traced campaign, largest first."""
    total = trace.spans[0][3] - trace.spans[0][2]
    return {k: v / total for k, v in sorted(trace.self_times().items(), key=lambda kv: -kv[1])}


def run_one(args) -> int:
    mode = "tiny" if args.tiny else "full"
    if args.record_reference and args.seed != DEFAULT_SEED:
        raise BenchError(f"a reference is recorded on the default seed {DEFAULT_SEED} only")
    if not (prepare.SRC / "focsim" / "__init__.py").is_file():
        raise BenchError(f"no focsim sources under {prepare.SRC}")
    process_start = time.perf_counter()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{mode}"
    work_dir = args.out_dir / f"work-{tag}"

    setup_ops, setup_samples = run_setups(args, mode, work_dir)
    setup_s, import_s = setup_samples["setup_wall_s"], setup_samples["import_s"]
    fs = prepare.import_focsim()
    inputs = json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](fs, inputs, work_dir)

    # the reference holds values for the default seed only; a missing one
    # fails every op, so a benchmark without its reference cannot pass
    ref_all = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    reference = tiny_reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference:
        reference = ref_all.get(mode, {}).get(args.workload, {})
        tiny_reference = ref_all.get("tiny", {}).get(args.workload, {})

    probe = Probe()
    warm_dir = args.out_dir / f"work-{args.workload}-seed{args.seed}-warmup"
    prepare.write_inputs(fs, args.workload, args.seed, "tiny", warm_dir)
    warm_inputs = json.loads((warm_dir / "inputs.json").read_text(encoding="utf-8"))
    warm = WORKLOADS[args.workload](fs, warm_inputs, warm_dir)
    _, warm_ops = run_campaign(warm, probe, None)
    check_campaign(warm, warm_ops, tiny_reference)

    meter = hostspeed.Meter()
    untraced: list[float] = []
    scaled: list[float] = []
    campaign_slices: list[list[float]] = []
    traced: list[float] = []
    traces: list[Trace] = []
    all_ops = setup_ops + warm_ops
    recorded = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for trace in [None, Trace()] if args.trace else [None]:
            if trace:
                elapsed, ops = run_campaign(workload, probe, trace)
                traced.append(elapsed)
                traces.append(trace)
            else:
                elapsed, ops = run_campaign(workload, probe, None, meter)
                slices = meter.take()
                untraced.append(elapsed)
                scaled.append(hostspeed.rescale(elapsed, slices))
                campaign_slices.append(slices)
            values = check_campaign(workload, ops, reference)
            recorded = recorded or values
            all_ops += ops
        round_s = time.perf_counter() - round_start
        now = time.perf_counter()
        if len(untraced) >= MIN_ROUNDS[args.trace] and now - start + round_s > args.seconds:
            break
        if now - process_start + round_s > HARD_LIMIT_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(op.failed for op in all_ops)
    attempted = len(all_ops)
    record = run_record(fs, args, mode)
    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "failed_ops_frac": failed / attempted,
            "failures": [
                {"op": op.name, "error": op.error, "problems": op.problems}
                for op in all_ops
                if op.failed
            ],
            "samples": {
                "campaign_s": scaled,
                "campaign_wall_s": untraced,
                "campaign_slices_s": campaign_slices,
                "traced_campaign_wall_s": traced,
                **setup_samples,
            },
        }
    )
    if args.trace:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics = layer_metrics(traces, import_s, overhead)
        units = {f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in PER_LAYER for f in fields}
        record["self_time_share"] = _layer_shares(traces[-1])
        spans_path = args.out_dir / f"spans-{tag}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, t in enumerate(traces):
                t.write(fh, i)
        record["spans_file"] = spans_path.name
    else:
        metrics = {
            "campaign_s": statistics.median(scaled),
            "setup_s": statistics.median(setup_s)
            * hostspeed.IMPORT_REFERENCE_S
            / statistics.median(setup_samples["import_numpy_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (args.out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    if args.record_reference:
        ref_all.setdefault(mode, {})[args.workload] = recorded
        args.reference.write_text(json.dumps(ref_all, indent=1, sort_keys=True) + "\n")

    m = record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} mode={mode}")
    print(
        f"  machine: {m['cpu_count']} cpus ({m['cpus_usable']} usable), {m['cpu_model']}, "
        f"Python {m['python']}, numpy {m['numpy']}; commit {record['git_commit']}, "
        f"constants {record['constants_fingerprint']}"
    )
    slices = [t for s in campaign_slices for t in s]
    print(
        f"  campaigns: {len(untraced)} untraced, {len(traced)} traced; set-ups: {len(setup_s)}; "
        f"wall-time medians: campaign {statistics.median(untraced):.4f} s, set-up "
        f"{statistics.median(setup_s):.4f} s; calibration slice median {statistics.median(slices):.4f} s "
        f"(reference {hostspeed.REFERENCE_S} s)"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  failed_ops_frac = {failed / attempted!r} fraction ({failed} of {attempted} ops)")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['op']}: {f['error'] or '; '.join(f['problems'])[:500]}")
    if args.trace:
        top = list(record["self_time_share"].items())[:6]
        print("  self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--reference", str(args.reference), "--out-dir", str(args.out_dir),
        ]
        cmd += ["--tiny"] * args.tiny + ["--record-reference"] * args.record_reference
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    names = list(rows[0][1]["metrics"])
    print()
    print("workload    " + "".join(f"{n:>28}" for n in (*names, "failed_ops_frac")))
    for name, res in rows:
        cells = [f"{res['metrics'][n]['value']:.6g} {res['metrics'][n]['unit']}" for n in names]
        cells.append(f"{res['failed'] / res['attempted']:.6g} fraction")
        print(f"{name:<12}" + "".join(f"{c:>28}" for c in cells))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
