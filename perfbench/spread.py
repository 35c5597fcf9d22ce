"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload phase_grid --seeds 1-10 --seconds 20

For each end-to-end metric it prints the median and the distance between
the first and third quartiles as a share of the median (the quantity the
benchmark's bounds are compared against).  ``--json`` writes every run's
result and the summary to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else None,
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return out


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write all runs and the summary here")
    args = ap.parse_args()
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        r, raw = runs[-1]["result"], runs[-1]["detail"].get("as_measured", {})
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                  if not args.trace) + " | as measured " + " ".join(
                  f"{k}={v:.6g}" for k, v in raw.items()), flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
        print(f"{name}: median {s['median']:.6g} {s['unit']}, IQR/median {share}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
