"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload dla_projected --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run, and the spans are written to ``.perfbench-work/traces/``.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Set-up errors exit with code 2 and print no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("source_only", "dla_projected", "dla_full", "mnist_usps_eval")


# One process drives the load on one BLAS thread.  On a shared 2-vCPU host a
# second thread made no step faster, and a fork-join step waits for whichever
# thread the host slows down, which widened the run-to-run spread.
BLAS_THREADS = 1


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": seed,
    }


def _write_trace(tracer, path: Path, env: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    path.write_text(json.dumps({"env": env, "fields": ["name", "start", "end", "parent"], "spans": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "labelalign" / "__init__.py").is_file():
        print(f"error: the program is missing: no {src / 'labelalign'}", file=sys.stderr)
        return 2
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import workloads  # imports numpy, so it comes after the thread settings

    env = environment(args.seed, threads)
    trace = bool(args.trace)
    if args.workload == "mnist_usps_eval":
        out = workloads.run_eval(args.seed, args.seconds, trace, WORK)
    else:
        out = workloads.run_training(args.workload, args.seed, args.seconds, trace, WORK)

    wanted = workloads.PER_LAYER if trace else workloads.END_TO_END
    metrics = {name: {"value": out.metrics[name][0], "unit": unit} for name, unit, _ in wanted}
    tally = out.tally
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<34} {value:>12} {m['unit']}")
    print(f"  {'failed_frac':<34} {tally.failed / max(1, tally.attempted):>12.6g} ratio ({tally.failed} of {tally.attempted})")
    for note in out.notes:
        print(f"  {note}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    if trace:
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        _write_trace(out.tracer, path, env)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
