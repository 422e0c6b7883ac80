"""Batch command line interface.

Four subcommands cover the whole workflow: `toygen` writes the
synthetic benchmark as WAV files, `extract` turns a dataset directory
into a feature file, `experiment` runs the repeated split evaluation
on a feature file and `compare` tests two reports against each other.

Exit codes: 0 success, 2 configuration error, 3 data error (a missing
or unusable path included), 4 internal invariant failure.  All stdout
tables are tab separated.

On glibc, main first sets the malloc policy of the process (hold_heap):
freed extraction buffers stay in the heap for the next clip instead of
going back to the kernel.  Importing the package changes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import platform
import sys
import traceback
from pathlib import Path

from . import __version__
from .audio import read_wav, write_wav
from .errors import ConfigError, DataError, DatasetError, ScenehogError
from .evaluation import read_report, stratified_split, write_report
from .metrics import column_normalize, wilcoxon_signed_rank
from .pipeline import extract_clips, generate_toy, parse_config_file, run_experiment
from .store import SplitManifest, read_features, scan_dataset, write_features, write_pgm
from .util import check_threads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

SIGNIFICANCE_LEVEL = 0.005

# glibc malloc policy that main holds for the whole command.  Each clip
# allocates the same few-MB spectra and images; by default glibc gives
# them back to the kernel when freed and the next clip faults them in
# again.  Both thresholds lie above every per-clip buffer, so freed
# buffers stay in the heap for the next clip.  In-process extract of
# the 100-clip sweep-gauss set at 2 threads (seed 1, 2-core x86 VM,
# numpy 2.4, one BLAS thread): the default policy faulted 220k-270k
# pages and spent 0.56-0.67 s in the kernel per 100-clip extract; these
# values leave 30-12,600 faults and 0.03-0.10 s, and the three extracts
# take 3.4-3.5 s instead of 4.3-4.9 s.  The thresholds alone let each
# worker thread's arena keep its own freed buffers, and peak RSS rose
# from 87-89 MB to 95-98 MB; one arena keeps it at 87-89 MB.
HEAP_ARENA_MAX = 1
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def hold_heap() -> bool:
    """Set the HEAP_* malloc policy; True when glibc accepted all of it.

    Off glibc, or when the C library has no mallopt, nothing is set and
    the result is False.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = (
        (_M_ARENA_MAX, HEAP_ARENA_MAX),
        (_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD),
        (_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD),
    )
    accepted = [mallopt(param, value) for param, value in settings]
    return accepted == [1, 1, 1]


def _emit(*cells) -> None:
    print("\t".join(str(c) for c in cells))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )


def cmd_toygen(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DatasetError(f"{out} exists and is not empty (use --force to reuse)")
    clips = generate_toy(cfg)
    for clip in clips:
        write_wav(out / str(clip.label) / f"{clip.source_id}.wav", clip)
    _emit("clips", len(clips))
    _emit("classes", 2)
    _emit("sample_rate_hz", cfg.toy_sample_rate_hz)
    _emit("out", out)
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    # refuse a bad worker count before decoding the whole dataset
    check_threads(args.threads)
    scan = scan_dataset(args.data)
    clips = []
    for path, label, source_id in scan.entries:
        clip = read_wav(path, label=label)
        clip.source_id = source_id
        clips.append(clip)
    x, labels, ids, timing = extract_clips(
        clips, cfg, threads=args.threads, dump_images=args.dump_images
    )
    write_features(args.out, x, labels, cfg.extraction_hash())
    _emit("rows", x.shape[0])
    _emit("dim", x.shape[1])
    _emit("skipped", scan.skipped)
    for stage, seconds in timing.items():
        _emit(f"time.{stage}", f"{seconds:.3f}")
    _emit("out", args.out)
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    x, labels, stored = read_features(args.features)
    expected = cfg.extraction_hash()
    if stored != expected:
        raise ConfigError(
            f"{args.features} was not extracted under this configuration "
            f"(extraction hash {stored or 'missing'}, expected {expected}); "
            "re-extract it or set the keys it was extracted with"
        )
    report = run_experiment(x, labels, cfg, threads=args.threads)
    write_report(args.report, report)
    if args.manifest_dir:
        ids = [f"row{idx:06d}" for idx in range(x.shape[0])]
        for split in range(cfg.n_splits):
            train_idx, test_idx = stratified_split(
                labels,
                seed=cfg.seed,
                split_index=split,
                train_frac=cfg.train_frac,
                fixed_train_count=cfg.fixed_train_count or None,
            )
            manifest = SplitManifest(
                cfg.seed,
                split,
                [ids[i] for i in train_idx],
                [ids[i] for i in test_idx],
            )
            manifest.write(Path(args.manifest_dir) / f"split_{split:03d}.txt")
    if args.heatmap:
        write_pgm(args.heatmap, column_normalize(report.confusion_sum))
    _emit("n_splits", report.n_splits)
    _emit("n_train", report.n_train)
    _emit("n_test", report.n_test)
    _emit("map_mean", f"{report.map_mean:.6f}")
    _emit("map_std", f"{report.map_std:.6f}")
    _emit("map_from_confusion", f"{report.map_from_confusion:.6f}")
    _emit("report", args.report)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    report_a = read_report(args.report_a)
    report_b = read_report(args.report_b)
    if report_a.n_splits != report_b.n_splits:
        raise DataError(
            f"split count mismatch: {report_a.n_splits} vs {report_b.n_splits}"
        )
    if report_a.seed != report_b.seed:
        raise DataError(f"seed mismatch: {report_a.seed} vs {report_b.seed}")
    result = wilcoxon_signed_rank(report_a.per_split_map, report_b.per_split_map)
    _emit("map_mean_a", f"{report_a.map_mean:.6f}")
    _emit("map_mean_b", f"{report_b.map_mean:.6f}")
    _emit("w_statistic", f"{result.statistic:.6g}")
    _emit("p_value", f"{result.p_value:.6g}")
    _emit("n_effective", result.n_effective)
    _emit("degenerate", "yes" if result.degenerate else "no")
    _emit(
        f"significant_at_{SIGNIFICANCE_LEVEL}",
        "yes" if (not result.degenerate and result.p_value < SIGNIFICANCE_LEVEL) else "no",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenehog",
        description="audio scene classification via pooled gradient histograms "
        "of constant-Q images",
    )
    parser.add_argument("--version", action="version", version=f"scenehog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toygen", help="write the synthetic chirp benchmark as WAVs")
    _add_common(p)
    p.add_argument("--out", type=Path, required=True, help="output dataset directory")
    p.add_argument("--force", action="store_true", help="write into a non-empty directory")
    p.set_defaults(func=cmd_toygen)

    p = sub.add_parser("extract", help="extract features from a dataset directory")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True, help="dataset root (class subdirs)")
    p.add_argument("--out", type=Path, required=True, help="output feature file")
    p.add_argument("--threads", type=int, default=1, help="worker thread cap")
    p.add_argument(
        "--dump-images", type=Path, default=None,
        help="write each row's filtered image here as PGM",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("experiment", help="run the repeated split evaluation")
    _add_common(p)
    p.add_argument("--features", type=Path, required=True, help="input feature file")
    p.add_argument("--report", type=Path, required=True, help="output report file")
    p.add_argument("--threads", type=int, default=1, help="worker thread cap")
    p.add_argument("--manifest-dir", type=Path, default=None, help="write split manifests here")
    p.add_argument("--heatmap", type=Path, default=None, help="write confusion PGM here")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="sign rank test between two reports")
    p.add_argument("--report-a", type=Path, required=True)
    p.add_argument("--report-b", type=Path, required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    hold_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"scenehog: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        # an OSError names the path it could not open, read or write
        print(f"scenehog: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as exc:
        print(f"scenehog: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ScenehogError as exc:
        print(f"scenehog: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
