#!/usr/bin/env python3
"""Time-to-accuracy benchmark of the distributed page ranker.

From the root of a checkout:

    python3 perfbench/run.py --workload cold-dpr1-site16 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (a CMake package compiling ../src in Release mode) into
$CARGO_TARGET_DIR (default .bench_build), generates the seeded inputs
outside every timer, and measures one workload. The last stdout line is
the result JSON (correct, attempted, failed, metrics); the line above it is
a host fingerprint. perfbench/README.md defines workloads, seeds, metrics
and checks.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAGES = 200_000
BATCHES_PER_SECOND = 1.6  # recrawl batches per second of a process's share
# The untraced run is split over processes, each measuring an equal share
# of --seconds, and their per-repeat samples are pooled: a process can land
# in memory that runs slow from its start to its end.
PROCESSES = 3
SMOKE_PAGES = 20_000
SMOKE_BATCHES = 2
KEEP_INPUT_SETS = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    if not (ROOT / "src" / "engine" / "distributed.cpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "tta_bench"


def inputs(binary, kind, pages, seed, batches):
    """Generated inputs, cached per (kind, size, seed); old sets pruned."""
    root = build_dir() / "inputs"
    name = f"{kind}-p{pages}-s{seed}" + (f"-b{batches}" if kind == "recrawl" else "")
    path = root / name
    if not (path / "complete").is_file():
        shutil.rmtree(path, ignore_errors=True)
        cmd = [str(binary), "gen", "--kind", kind, "--pages", str(pages),
               "--seed", str(seed), "--out", str(path)]
        if kind == "recrawl":
            cmd += ["--batches", str(batches)]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    sets = sorted(root.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in sets[KEEP_INPUT_SETS:]:
        if old != path:
            shutil.rmtree(old, ignore_errors=True)
    path.touch()
    return path


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def measure(binary, workload, seed, seconds, trace, pages, batches, min_reps=3):
    kind = "recrawl" if workload == "recrawl-serve" else "crawl"
    data = inputs(binary, kind, pages, seed, batches)
    cmd = [str(binary), "measure", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--inputs", str(data),
           "--batches", str(batches if kind == "recrawl" else 0),
           "--min-reps", str(min_reps),
           "--counts", str(build_dir() / "determinism-counts.txt")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")), "")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        fail(f"measure printed no result (exit {proc.returncode})")
    return proc.returncode, result, fingerprint


def lower_decile(values):
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def combine(results):
    """One untraced result from several processes: summed checks, the
    timings from the pooled samples, every other metric the median over
    processes.

    Interference from other tenants of a shared host only ever adds time,
    and it comes in phases of several seconds to minutes. The median of a
    run's repeats follows whichever phase the run landed in; the lower decile
    follows the undisturbed repeats. So tta_s is the lower decile, and
    pipeline_s the lower deciles of set-up and tta_s added; setup_s alone
    stays the median of its samples.
    """
    pooled = {name: [x for r in results for x in r["samples"][name]]
              for name in results[0]["samples"]}
    metrics = {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                 for r in results),
                      "unit": m["unit"]}
               for name, m in results[0]["metrics"].items()}
    tta = lower_decile(pooled["tta_s"])
    metrics["setup_s"] = {"value": statistics.median(pooled["setup_s"]), "unit": "s"}
    metrics["tta_s"] = {"value": tta, "unit": "s"}
    metrics["pipeline_s"] = {"value": lower_decile(pooled["setup_s"]) + tta, "unit": "s"}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(result, trace):
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def run_workload(binary, workload, seed, seconds, trace, pages, batches, min_reps=3):
    """The untraced run as PROCESSES processes sharing `seconds`, combined;
    the traced run as one process with the same share and inputs.
    Returns (exit code, result, fingerprint line)."""
    runs = [measure(binary, workload, seed, seconds / PROCESSES, trace, pages, batches,
                    min_reps)
            for _ in range(1 if trace else PROCESSES)]
    code = max(c for c, _, _ in runs)
    results = [r for _, r, _ in runs]
    result = results[0] if trace else combine(results)
    name_problem = check_names(result, trace)
    if name_problem:
        print(f"perfbench: {name_problem}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        code = code or 1
    return code, result, runs[0][2]


def smoke(binary):
    """The benchmark's own test: every workload, both modes, twice."""
    problems = []
    for workload in ("cold-dpr1-site16", "cold-dpr2-url64", "recrawl-serve"):
        for trace in (0, 1, 0):
            code, result, _ = run_workload(binary, workload, 3, 0, trace, SMOKE_PAGES,
                                           SMOKE_BATCHES, min_reps=2)
            if code != 0 or not result["correct"]:
                problems.append(f"{workload} trace={trace}: exit {code}, "
                                f"correct={result['correct']}")
    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["cold-dpr1-site16", "cold-dpr2-url64",
                                           "recrawl-serve"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.workload is None:
        fail("--workload is required")
    batches = max(2, round(BATCHES_PER_SECOND * args.seconds / PROCESSES))
    code, result, fingerprint = run_workload(binary, args.workload, args.seed, args.seconds,
                                             args.trace, PAGES, batches)
    print(json.dumps({"fingerprint": {
        "nproc": os.cpu_count(), "binary": fingerprint.removeprefix("fingerprint: "),
        "workload": args.workload,
        "workload_seed": args.seed, "pages": PAGES,
        "processes": 1 if args.trace else PROCESSES,
        "commit": source_commit()}}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
