#!/usr/bin/env python3
"""Plot the CSVs the benches write under results/ into paper-style figures.

Usage:
    python3 scripts/plot_results.py [--results results] [--out plots]

Regenerates (when the corresponding CSV exists):
    fig6a.png   task-level Pareto fronts per DVFS mode
    fig6b.png   task-level fronts under implicit-masking sweep
    fig7.png    CLR vs single-layer / agnostic fronts (20 tasks)
    fig8.png    proposed vs fcCLR fronts (50 tasks)
    fig9.png    task-level Pareto implementation counts per tDSE run
    fig10.png   proposed_k vs pfCLR_k fronts (30 tasks)
    table5.png  hypervolume gain bars, CLR over agnostic
    table6.png  hypervolume gain bars, proposed over fcCLR

Requires matplotlib; every plot is optional and skipped with a note when its
input CSV is missing.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from collections import defaultdict
from pathlib import Path


def read_series(path: Path):
    """CSV with a leading 'series' column -> {series: [(x, y), ...]}."""
    series = defaultdict(list)
    with path.open() as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            if len(row) < 3:
                continue
            series[row[0]].append((float(row[1]), float(row[2])))
    for points in series.values():
        points.sort()
    return dict(series)


def read_rows(path: Path):
    with path.open() as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def plot_fronts(plt, series, title, xlabel, ylabel, out_path):
    fig, ax = plt.subplots(figsize=(6.5, 4.5))
    markers = ["o", "s", "^", "v", "D", "x", "*", "P"]
    for i, (name, points) in enumerate(sorted(series.items())):
        if not points:
            continue
        xs, ys = zip(*points)
        ax.plot(xs, ys, marker=markers[i % len(markers)], markersize=4,
                linewidth=1.0, label=name)
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def plot_gain_bars(plt, rows, gain_key, title, out_path):
    tasks, gains = [], []
    for row in rows:
        try:
            gain = float(row[gain_key])
        except (ValueError, KeyError):
            continue
        if not math.isfinite(gain):
            continue
        tasks.append(row["tasks"])
        gains.append(gain)
    if not tasks:
        print(f"skipping {out_path}: no finite gains")
        return
    fig, ax = plt.subplots(figsize=(6.5, 4.0))
    ax.bar(tasks, gains)
    ax.set_title(title)
    ax.set_xlabel("#tasks")
    ax.set_ylabel("% increase in hypervolume")
    ax.grid(True, axis="y", alpha=0.3)
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def plot_fig9(plt, rows, out_path):
    names = [row["task_type"] for row in rows]
    runs = ["tdse_1", "tdse_2", "tdse_3"]
    fig, ax = plt.subplots(figsize=(7.5, 4.0))
    width = 0.27
    for i, run in enumerate(runs):
        values = [float(row[run]) for row in rows]
        positions = [x + (i - 1) * width for x in range(len(names))]
        ax.bar(positions, values, width, label=run)
    ax.set_xticks(range(len(names)))
    ax.set_xticklabels(names, rotation=30, fontsize=8)
    ax.set_ylabel("# Pareto implementations")
    ax.set_title("Fig. 9: task-level Pareto implementations per tDSE run")
    ax.legend()
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="results", type=Path)
    parser.add_argument("--out", default="plots", type=Path)
    args = parser.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install matplotlib",
              file=sys.stderr)
        return 1

    args.out.mkdir(parents=True, exist_ok=True)

    front_specs = [
        ("fig6a_dvfs_fronts.csv", "fig6a.png",
         "Fig. 6a: task-level fronts per DVFS mode",
         "average execution time (us)", "error probability (%)"),
        ("fig6b_implicit_masking.csv", "fig6b.png",
         "Fig. 6b: fronts under implicit masking",
         "average execution time (us)", "error probability (%)"),
        ("fig7_clr_vs_agnostic.csv", "fig7.png",
         "Fig. 7: CLR vs other-layer-agnostic (20 tasks)",
         "average makespan (us)", "application error probability"),
        ("fig8_proposed_vs_fcclr.csv", "fig8.png",
         "Fig. 8: proposed vs fcCLR (50 tasks)",
         "average makespan (us)", "application error probability"),
        ("fig10_tdse_run_fronts.csv", "fig10.png",
         "Fig. 10: proposed_k vs pfCLR_k (30 tasks)",
         "average makespan (us)", "application error probability"),
    ]
    for csv_name, png_name, title, xlabel, ylabel in front_specs:
        path = args.results / csv_name
        if not path.exists():
            print(f"skipping {png_name}: {path} not found")
            continue
        plot_fronts(plt, read_series(path), title, xlabel, ylabel,
                    args.out / png_name)

    table5 = args.results / "table5_clr_vs_agnostic.csv"
    if table5.exists():
        plot_gain_bars(plt, read_rows(table5), "hv_gain_pct",
                       "TABLE V: CLR over agnostic", args.out / "table5.png")
    table6 = args.results / "table6_proposed_vs_fcclr.csv"
    if table6.exists():
        plot_gain_bars(plt, read_rows(table6), "hv_gain_pct",
                       "TABLE VI: proposed over fcCLR",
                       args.out / "table6.png")
    fig9 = args.results / "fig9_pareto_impl_counts.csv"
    if fig9.exists():
        plot_fig9(plt, read_rows(fig9), args.out / "fig9.png")
    return 0


if __name__ == "__main__":
    sys.exit(main())
