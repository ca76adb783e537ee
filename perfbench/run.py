"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload catalog-lines --seed 0 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics in a closed loop for
``--seconds`` seconds.  ``--trace 1`` makes one untraced and one traced pass
over the same inputs and reports the per-layer metrics.  Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def provenance(seed: int) -> dict:
    """Recorded with every result, not gated."""
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import layers

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {harness.WORKLOADS}")
    package = ROOT / "src" / "curvepencils"
    try:
        harness.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {package}: {exc}", file=sys.stderr)
        return 2
    if Path(sys.modules["curvepencils"].__file__).parent != package:
        print(f"error: curvepencils was not imported from {package}", file=sys.stderr)
        return 2

    if args.trace:
        tracer, counts, overhead, outcome = harness.traced_pass(args.workload, args.seed)
        metrics = layers.layer_metrics(tracer, counts)
        metrics["trace.overhead_s"] = (overhead, "s")
        print("\n".join(layers.span_table(tracer)))
        silent = layers.silent_spans(tracer, args.workload)
        if silent:
            print(f"warning: no calls on {args.workload} to {', '.join(silent)}", file=sys.stderr)
    else:
        metrics, outcome = harness.measure(args.workload, args.seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"{'error_rate':40s} {outcome.failed / outcome.attempted:>14.6g} ratio"
          f" ({outcome.failed} of {outcome.attempted})")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
