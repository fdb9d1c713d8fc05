"""SceneMixer benchmark: `python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs installing. One run:

1. sets the workload up from `--seed` (synthetic PPM tree, config file,
   checkpoint) at least SETUP_MIN_REPEATS times and until SETUP_BUDGET_S
   have been spent, and reports the median as `setup_s`;
2. starts `worker.py`, which repeats the workload's CLI command in-process
   for `--seconds` seconds after one untimed warm-up;
3. checks every command's outputs against the float64 reference in
   `reference.py`;
4. prints the environment, one line per metric, and as the last line a
   JSON object {"correct", "attempted", "failed", "metrics"}.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones (see README.md). All files go under `.bench_work/` in
the checkout. The BLAS thread count is fixed to BLAS_THREADS through the
environment before numpy loads, here and in every child process.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 2.0  # cheap set-ups repeat more, so their median is steadier
BLAS_THREADS = 1
MIN_COMMANDS = {"train-eurosat": 2, "eval-ppm256": 4, "serve-predict": 20}
WORKER_GRACE_S = 100  # beyond --seconds: warm-up plus the last command to finish


def _fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _size_bytes(text):
    """'105 MiB (1 instance)' -> bytes."""
    number, unit = text.split()[:2]
    scale = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}[unit]
    return int(float(number) * scale)


def environment(seed):
    import numpy
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, "seed": seed,
           "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        env["blas"] = None
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20,
                               env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    fields = dict(line.split(":", 1) for line in lscpu.splitlines() if ":" in line)
    env["cpu_model"] = fields.get("Model name", "").strip() or platform.processor()
    for key, name in (("l2_bytes", "L2 cache"), ("l3_bytes", "L3 cache")):
        try:
            env[key] = _size_bytes(fields[name].strip())
        except (KeyError, ValueError, IndexError):
            env[key] = None
    try:
        env["git_commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                           text=True, timeout=20).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scenemixer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["io_note"] = "PPM reads are served from the page cache (written during set-up), not from disk"
    return env


def run_setups(sm, workload, seed, work, tracer):
    """Fresh set-ups, at least SETUP_MIN_REPEATS and until SETUP_BUDGET_S
    have passed; keeps the last, returns (state, seconds of each)."""
    import spans

    times, state = [], None
    if tracer:
        tracer.install(spans.setup_targets(sm))
    try:
        r = 0
        while r < SETUP_MIN_REPEATS or (sum(times) < SETUP_BUDGET_S and r < SETUP_MAX_REPEATS):
            root = work / f"setup{r}"
            root.mkdir()
            t0 = time.perf_counter()
            state = workload.setup(sm, seed, str(root))
            times.append(time.perf_counter() - t0)
            if r:
                shutil.rmtree(work / f"setup{r - 1}")
            r += 1
    finally:
        if tracer:
            tracer.uninstall()
    return state, times


def run_child(argv, timeout):
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode:
        print(proc.stderr[-4000:], file=sys.stderr)
    return proc


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "scenemixer" / "__init__.py").is_file():
        return _fail(f"no program sources at {src}/scenemixer")
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(src))
    import scenemixer as sm

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = spans.Tracer() if args.trace else None
    state, setup_times = run_setups(sm, workload, args.seed, work, tracer)
    (work / "state.json").write_text(json.dumps(state))
    worker_spec = {"src": str(src), "workload": workload.name, "state": str(work / "state.json"),
                   "work": str(work), "seconds": args.seconds,
                   "min_commands": MIN_COMMANDS[workload.name] * (2 if args.trace else 1), "trace": args.trace}
    (work / "worker.json").write_text(json.dumps(worker_spec))

    result_path = work / "worker_result.json"
    try:
        run_child([str(BENCH_DIR / "worker.py"), str(work / "worker.json")], args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        print("benchmark: worker timed out", file=sys.stderr)
    if not result_path.is_file():
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    result = json.loads(result_path.read_text())
    records = result["records"]
    for rec in records:
        rec["problems"] = [] if rec["rc"] == 0 else [f"exit code {rec['rc']}: {rec['stderr_tail'][-300:]}"]
    ctx = workload.reference(sm, state)
    for rec in records:
        if rec["rc"] == 0:
            try:
                workload.check_one(sm, state, ctx, rec)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
                rec["problems"].append(f"output unreadable: {exc!r}")
    failed = [r for r in records if r["problems"]]
    for rec in failed[:5]:
        print(f"benchmark: command {rec['tag']} failed its checks: {rec['problems']}", file=sys.stderr)
    correct = not failed

    timed = [r for r in records if r["tag"] != "warmup" and not r["traced"]]
    walls = [r["wall_s"] for r in timed]
    images = state["images_per_command"] * len(timed)
    values = {
        "images_per_s": images / sum(walls),
        "command_ms_p50": 1e3 * statistics.median(walls),
        "command_ms_p90": 1e3 * quantile(walls, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
    }
    if args.trace:
        values = dict(result["layers"])
        setup_seconds = tracer.self_seconds()
        for name in spans.SETUP_FUNCTIONS.values():
            values[f"{name}_ms"] = 1e3 * setup_seconds.get(name, 0.0) / len(setup_times)
        l3 = env["l3_bytes"] or 128 << 20
        peaks = json.loads(run_child([str(BENCH_DIR / "machine.py"), "--l3-bytes", str(l3)], 170)
                           .stdout.splitlines()[-1])
        env["triad_bytes"] = peaks["triad_bytes"]
        values["machine.gemm_gflops"] = peaks["gemm_gflops"]
        values["machine.triad_gbps"] = peaks["triad_gbps"]
        for layer in ("depthwise_conv.k3", "depthwise_conv.k5", "pointwise_conv", "patch_embed"):
            intensity = values[f"layers.{layer}.macs_per_byte"]
            bound = min(peaks["gemm_gflops"] / 2, peaks["triad_gbps"] * intensity)
            values[f"layers.{layer}.fwd_roofline_share"] = values[f"layers.{layer}.fwd_gmacs"] / bound
        if not result["counts_repeat"]:
            correct = False
            print("benchmark: exact counts differ between traced commands", file=sys.stderr)
        tracer.write(work / "setup_spans.csv")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not computed: {missing}")
    out = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    print("environment: " + json.dumps(env))
    print(f"workload {workload.name}: {len(records)} commands, {len(failed)} failed, "
          f"failed_share {len(failed) / len(records):.4f}")
    if not args.trace:
        alias = {"train-eurosat": [("train_images_per_s", "images_per_s", "1/s")],
                 "eval-ppm256": [("eval_images_per_s", "images_per_s", "1/s")],
                 "serve-predict": [("serve_ms_p50", "command_ms_p50", "ms"),
                                   ("serve_ms_p90", "command_ms_p90", "ms")]}[workload.name]
        for label, key, unit in alias:
            print(f"{label} {values[key]:.6g} {unit}")
        # printed, not gated: the host's two speed modes make it jump between them (README, Noise)
        print(f"command_ms_p50 {values['command_ms_p50']:.6g} ms")
    for name, v in out.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
