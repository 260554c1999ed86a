"""Record the reference outputs the benchmark compares passes against.

Usage, from the repository root:

    python3 bench/record_reference.py --seeds 0-15 [--workload NAME ...]

For each workload and seed this runs one serial repetition, checks it
against the invariants (bench/check.py), and stores the outputs named by
check.reference_files in bench/reference/<workload>.json.  Run it only on
purpose: after a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from check import check_rep, reference_files


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=_seeds, help="a seed or a range like 0-15")
    ap.add_argument("--workload", action="append", choices=sorted(run.workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workload or sorted(run.workloads.WORKLOADS):
        wl = run.workloads.WORKLOADS[name]
        recorded = run.load_reference(name)
        for seed in args.seeds:
            work = run.OUT_ROOT / "reference" / name / f"seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            inputs = wl.prepare(seed, work / "inputs")
            spec = {"kind": wl.kind, "trace": False, "out": str(work / "pass"), "reps": 1,
                    "span_file": str(work / "spans.csv"), **inputs}
            result, err = run.run_pass(spec, work / "pass.spec.json", serial=True)
            if result is None:
                print(f"{name} seed {seed}: pass failed\n{err}", file=sys.stderr)
                return 1
            d = work / "pass" / "rep0"
            outcome = check_rep(wl, seed, d, result["reps"][0], inputs, {})
            if outcome.failed:
                print(f"{name} seed {seed}: outputs fail the invariants: {outcome.failed}",
                      file=sys.stderr)
                return 1
            recorded[str(seed)] = {str(rel): (d / rel).read_text()
                                   for rel in reference_files(wl, seed, d)}
            print(f"{name} seed {seed}: recorded {len(recorded[str(seed)])} files")
        run.REFERENCE.mkdir(exist_ok=True)
        ordered = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
        (run.REFERENCE / f"{name}.json").write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
