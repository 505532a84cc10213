"""Command-line entry points: train, eval, linear-lab, plot.

Exit codes: 0 success, 1 validation error (bad config, bad inputs), 2 runtime
failure (aborted or diverged training, corrupt checkpoint, ...) or argparse
usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import CONV_WORKERS, HEAP_TUNED
from .checkpoint import CheckpointError, load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, load_run_config, parse_run_config
from .data import (
    DataFormatError,
    ImageDataset,
    load_mnist,
    load_usps,
    split_target,
    synthetic_domains,
)
from .linearlab import LinearLabError, identity_suite
from .model import DEFAULT_SPEC
from .plotting import METRICS_HEADER, PlotError, metrics_row, plot_metrics
from .training import ConfigError, TrainData, TrainingAborted, check_run, evaluate, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# the checkout a source install runs from: src/labelalign/cli.py -> repo root
SOURCE_ROOT = Path(__file__).resolve().parents[2]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# what train writes into its run directory
RUN_FILES = ("config_echo.ini", "manifest.json", "metrics.csv", "checkpoint.ckpt")


def git_revision(root: Path = SOURCE_ROOT) -> str | None:
    """HEAD of the git checkout at ``root``; None outside a checkout or
    without a working ``git``."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


def _data_files(cfg: RunConfig, *keys: str) -> list[Path]:
    paths = [cfg.data_path(key) for key in keys]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise ConfigError(
            "dataset files not found: "
            + ", ".join(missing)
            + " (set [data] dir; see README.md for the file layout)"
        )
    return paths


def source_dataset(cfg: RunConfig, split: str = "train") -> ImageDataset:
    """The labeled MNIST ``train`` or ``test`` set."""
    images, labels = _data_files(cfg, f"mnist_{split}_images", f"mnist_{split}_labels")
    return load_mnist(images, labels, split=split)


def target_datasets(cfg: RunConfig) -> tuple[ImageDataset, ImageDataset]:
    """(labeled val, labeled test): the USPS test file split by ``split_seed``."""
    (test_path,) = _data_files(cfg, "usps_test")
    return split_target(load_usps(test_path, split="test"), seed=cfg.data["split_seed"])


def build_datasets(cfg: RunConfig) -> TrainData:
    if cfg.data["dataset"] == "synthetic":
        return TrainData(*synthetic_domains(cfg.data["split_seed"]))
    # name every missing file before any load
    _data_files(cfg, "mnist_train_images", "mnist_train_labels", "usps_train", "usps_test")
    source = source_dataset(cfg)
    target = load_usps(cfg.data_path("usps_train"), split="train").drop_labels()
    val, test = target_datasets(cfg)
    return TrainData(source=source, target=target, val=val, test=test)


def _eval_dataset(cfg: RunConfig, name: str) -> ImageDataset:
    """The one dataset ``eval`` scores, by its ``--dataset`` choice; only the
    file or files that set comes from are read."""
    if cfg.data["dataset"] == "synthetic":
        if name == "source-test":
            raise ConfigError("synthetic runs have no separate source test set")
        source, _, val, test = synthetic_domains(cfg.data["split_seed"])
        return {"source-train": source, "target-val": val, "target-test": test}[name]
    if name in ("source-train", "source-test"):
        return source_dataset(cfg, name.removeprefix("source-"))
    val, test = target_datasets(cfg)
    return val if name == "target-val" else test


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides[("train", "seed")] = str(args.seed)
    cfg = load_run_config(args.config, overrides)
    data = build_datasets(cfg)
    check_run(cfg.train, data, DEFAULT_SPEC)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a reused run directory keeps nothing of the run before, so a run that
    # aborts leaves no checkpoint that eval could mistake for its own
    for name in RUN_FILES:
        (out_dir / name).unlink(missing_ok=True)
    echo = cfg.echo_text()
    config_sha256 = hashlib.sha256(echo.encode("utf-8")).hexdigest()
    (out_dir / "config_echo.ini").write_text(echo)
    manifest = {
        "config_sha256": config_sha256,
        "seed": cfg.train.seed,
        "mode": cfg.train.mode,
        "gradient_mode": cfg.train.gradient_mode,
        "package_version": __version__,
        "metrics": "metrics.csv",
        "checkpoint": "checkpoint.ckpt",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
            "heap_keeps_freed_arrays": HEAP_TUNED,
            "git_revision": git_revision(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "conv_workers": CONV_WORKERS,
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(
        f"run: mode={cfg.train.mode} gradient_mode={cfg.train.gradient_mode} "
        f"dtype={cfg.train.dtype} seed={cfg.train.seed}"
    )
    print(
        f"     lam={cfg.train.lam} gamma={cfg.train.gamma} beta={cfg.train.beta} "
        f"alpha={cfg.train.alpha} batch={cfg.train.batch_size} steps={cfg.train.steps}"
    )
    print(f"     config sha256 {config_sha256}")

    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")

        def on_step(record, params):
            fh.write(metrics_row(record, cfg.train) + "\n")

        result = train(cfg.train, data, DEFAULT_SPEC, on_step=on_step)

    save_checkpoint(out_dir / "checkpoint.ckpt", result.params, echo)
    final_val = [r.val_acc for r in result.records if r.val_acc is not None]
    if final_val:
        print(f"final validation accuracy {100 * final_val[-1]:.2f}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        arrays, echo = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    overrides = {}
    if args.data_dir is not None:
        overrides[("data", "dir")] = args.data_dir
    cfg = parse_run_config(echo, overrides, f"in checkpoint {args.checkpoint}")
    params = restore_params(arrays, DEFAULT_SPEC.param_shapes())
    ds = _eval_dataset(cfg, args.dataset)
    acc = evaluate(params, DEFAULT_SPEC, ds)
    print(f"{100 * acc:.2f}")
    return EXIT_OK


def cmd_linear_lab(args) -> int:
    sizes = []
    for chunk in args.sizes.split(","):
        try:
            n, d = chunk.lower().split("x")
            sizes.append((int(n), int(d)))
        except ValueError:
            raise ConfigError(f"bad size '{chunk}', expected NxD like 64x16")
    rows = identity_suite(
        sizes=tuple(sizes),
        k_star=args.k_star,
        seeds=args.seeds,
        noise=args.noise,
    )
    header = f"{'pair':<26} {'n':>4} {'d':>3} {'seed':>4} {'residual':>12} {'bound':>12} status"
    print(header)
    print("-" * len(header))
    failures = 0
    for row in rows:
        status = "ok" if row.ok else "FAIL"
        if not row.ok:
            failures += 1
        print(
            f"{row.pair:<26} {row.n:>4} {row.d:>3} {row.seed:>4} "
            f"{row.residual:>12.3e} {row.bound:>12.3e} {status}"
        )
    if failures:
        print(f"{failures} identity check(s) out of tolerance")
        return EXIT_RUNTIME
    print("all identities within tolerance")
    return EXIT_OK


def cmd_plot(args) -> int:
    plot_metrics(args.metrics, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelalign",
        description="spectral label-alignment training, evaluation and diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"labelalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training job from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default="runs/latest", help="run directory (default runs/latest)")
    p_train.add_argument("--seed", type=int, help="override [train] seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--dataset",
        default="target-test",
        choices=("target-test", "target-val", "source-test", "source-train"),
        help="the set to score (default target-test)",
    )
    p_eval.add_argument("--data-dir", help="override the checkpoint's [data] dir")
    p_eval.set_defaults(func=cmd_eval)

    p_lab = sub.add_parser("linear-lab", help="run the linear identity suite")
    p_lab.add_argument("--sizes", default="64x16", help="comma list of NxD problem sizes")
    p_lab.add_argument("--k-star", type=int, default=4, dest="k_star")
    p_lab.add_argument("--seeds", type=int, default=20)
    p_lab.add_argument("--noise", type=float, default=0.0)
    p_lab.set_defaults(func=cmd_linear_lab)

    p_plot = sub.add_parser("plot", help="render a metrics CSV as an SVG chart")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, LinearLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CheckpointError, TrainingAborted, PlotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
