"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve-replay --seed 4 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``all`` runs each workload in turn, each in a process of its own.

``--trace 0`` measures the end-to-end metrics with no layer wrapped;
``--trace 1`` spends half the time untraced and half with every layer
wrapped (see ``layers.py``) and reports the per-layer table plus the
tracing overhead.  Either way every output is checked (pinned digests,
``diff_fixes``) and a failed check counts against ``failed``.  The last
line of standard output is the JSON result record; the human-readable
table goes above it.  Spans of a traced run are written to
``.perfbench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True,
                        help="rotates scenario order / tenant phases")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seeds", default=None,
                        help="comma-separated pinned scenario seeds to run "
                             "instead of the default set (e.g. the held-out 3)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _scenario_seeds(text, pinned):
    from perfbench.simload import SCENARIO_SEEDS

    if text is None:
        return SCENARIO_SEEDS
    seeds = tuple(int(s) for s in text.split(","))
    unpinned = [s for s in seeds if str(s) not in pinned]
    if unpinned:
        raise SystemExit("no pinned digest for scenario seed(s) %s" % unpinned)
    return seeds


def run(args):
    """Run one workload; returns its :class:`~perfbench.common.RunResult`
    with every metric of the requested table present."""
    from perfbench.common import load_digests
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.tracing import LayerTracer

    digests = load_digests()
    pinned = "fig7" if args.workload == "serve-replay" else args.workload
    seeds = _scenario_seeds(args.scenario_seeds, digests[pinned])
    tracer = LayerTracer()
    if args.workload == "serve-replay":
        from perfbench.serveload import run_serve_workload

        result = run_serve_workload(args.seed, args.seconds, bool(args.trace),
                                    digests[pinned], seeds, tracer=tracer)
    else:
        from perfbench.simload import run_sim_workload

        result = run_sim_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), digests[pinned], seeds,
                                  tracer=tracer)
    if args.trace:
        # A layer this workload never calls did no work.
        for name, unit, _better in PER_LAYER:
            result.metrics.setdefault(name, (0.0, unit))
        os.makedirs(".perfbench_out", exist_ok=True)
        path = os.path.join(".perfbench_out", "spans-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        tracer.write_jsonl(path)
        result.notes.append("spans written to %s" % path)
    table = PER_LAYER if args.trace else END_TO_END
    missing = [row[0] for row in table if row[0] not in result.metrics]
    if missing:
        raise RuntimeError("workload did not report %s" % missing)
    result.metrics = {row[0]: result.metrics[row[0]] for row in table}
    return result


def render(args, result) -> str:
    """The human-readable table printed above the result record."""
    from perfbench.metrics import MOVES

    lines = ["workload %s  seed %d  %s run, %g s budget"
             % (args.workload, args.seed, "traced" if args.trace else "untraced",
                args.seconds)]
    lines += ["  " + note for note in result.notes]
    lines.append("  operations: %d attempted, %d failed, failed_frac %.4f"
                 % (result.attempted, result.failed, result.failed_frac))
    for name, (value, unit) in result.metrics.items():
        moves = ", ".join("%s on %s" % pair for pair in MOVES.get(name, []))
        lines.append("  %-36s %14.6g %-8s %s"
                     % (name, value, unit, ("-> " + moves) if moves else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)
    if args.workload != "all":
        result = run(args)
        print(render(args, result))
        print(json.dumps(result.record()), flush=True)
        return 0
    from perfbench.common import RunResult
    from perfbench.metrics import WORKLOADS

    # Every workload in turn, each in a fresh process of its own so that
    # its peak_rss_mb is its own peak; the record prefixes each metric
    # with its workload's name.
    combined = RunResult()
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", "%r" % args.seconds,
                "--trace", str(args.trace)]
        if args.scenario_seeds is not None:
            argv += ["--scenario-seeds", args.scenario_seeds]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print("\n".join(lines), flush=True)
            raise SystemExit("workload %s exited with code %d"
                             % (workload, done.returncode))
        print("\n".join(lines[:-1]), flush=True)
        record = json.loads(lines[-1])
        combined.attempted += record["attempted"]
        combined.failed += record["failed"]
        for name, metric in record["metrics"].items():
            combined.put("%s.%s" % (workload, name), metric["value"], metric["unit"])
    print(json.dumps(combined.record()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
