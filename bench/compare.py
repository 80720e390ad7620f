"""Compare end-to-end results of two commits, seed by seed.

Usage: python3 bench/compare.py BASE_OUT_DIR NEW_OUT_DIR

Reads the *_trace0.json records that bench/run.py wrote into each
directory, pairs them by (workload, seed), and prints per workload and
metric: each side's median and quartiles, the change of the median as a
share of the base median, the share of seeds the change won, and a
verdict against the bound in BENCHMARK.json. iter_tail_s is compared
only where both sides report the same percentile.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(out_dir: Path) -> dict:
    runs = {}
    for path in out_dir.glob("*_trace0.json"):
        rec = json.loads(path.read_text())
        key = (rec["workload"]["name"], rec["environment"]["seed"])
        runs[key] = {name: m["value"] for name, m in rec["metrics"].items()}
        runs[key]["iter_tail_percentile"] = rec["detail"]["iter_tail_percentile"]
    return runs


def verdict(base: list, new: list, better: str, bound: float) -> tuple:
    """(change of the median as a share of the base's, seeds won, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    change = (mn - mb) / abs(mb)
    wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    if sign * change > bound:
        return change, wins, "regression"
    if (q3 - q1) / abs(mb) > bound:
        return change, wins, "unresolved (base spread exceeds bound)"
    if wins >= 0.9 * len(base) and sign * change < 0 and abs(mn - mb) > q3 - q1:
        return change, wins, "gain"
    return change, wins, "no change"


def main(base_dir: str, new_dir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(base_dir)), load(Path(new_dir))
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("no (workload, seed) present on both sides", file=sys.stderr)
        return 2
    for wl in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == wl]
        print(f"{wl}: {len(seeds)} seeds")
        if len(seeds) < 2:
            print("  needs at least two seeds")
            continue
        tail_p = {side[(wl, s)]["iter_tail_percentile"] for side in (base, new) for s in seeds}
        for m in spec["end_to_end"]:
            if m["name"] == "iter_tail_s" and len(tail_p) > 1:
                print(f"  {m['name']:<14} not compared: the records use percentiles {sorted(tail_p)}")
                continue
            b = [base[(wl, s)][m["name"]] for s in seeds]
            n = [new[(wl, s)][m["name"]] for s in seeds]
            qb, qn = statistics.quantiles(b, n=4), statistics.quantiles(n, n=4)
            change, wins, word = verdict(b, n, m["better"], m["bound"])
            print(
                f"  {m['name']:<14} base {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"new {qn[1]:.6g} [{qn[0]:.6g}, {qn[2]:.6g}] {m['unit']}  "
                f"change {change:+.2%}  won {wins}/{len(seeds)}  {word} (bound {m['bound']:.0%})"
            )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
