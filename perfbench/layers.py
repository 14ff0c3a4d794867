"""Where each workload's time goes: layers ranked by self time, with counts.

    python3 perfbench/layers.py [--seed 2] [--workload NAME ...]

Runs one traced round of each workload (``run.py --trace 1``), then
prints its layers ranked by self time with their per-round counters, and
the functions whose spans take the largest share of the traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, import_walklab
from tracing import LAYERS, span_totals


def report(trace) -> str:
    metrics = {k: v["value"] for k, v in trace["metrics"].items()}
    round_s = sum(trace["round_s"]) / len(trace["round_s"])
    lines = [f"== {trace['workload']} (seed {trace['seed']}): traced round "
             f"{round_s:.2f} s, untraced {trace['untraced_round_s'][0]:.2f} s"]
    lines.append(f"{'layer':<10}{'self_s':>9}{'share':>8}  counters")
    ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])
    for layer in ranked:
        self_s = metrics[f"{layer}.self_s"]
        counts = " ".join(
            f"{name.split('.', 1)[1]}={value:.6g}"
            for name, value in metrics.items()
            if name.startswith(layer + ".") and not name.endswith(".self_s"))
        lines.append(f"{layer:<10}{self_s:>9.3f}{self_s / round_s:>8.1%}  "
                     f"{counts}")
    rounds = len(trace["round_s"])
    top = sorted(span_totals(trace["spans"]).items(), key=lambda kv: -kv[1])
    lines.append("largest spans: " + ", ".join(
        f"{name} {t / rounds:.2f} s ({t / rounds / round_s:.0%})"
        for name, t in top[:6]))
    return "\n".join(lines)


def main(argv=None):
    import_walklab()
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "1"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
        path = os.path.join(HERE, ".out", f"trace-{name}-{args.seed}.json")
        with open(path) as fh:
            print(report(json.load(fh)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
