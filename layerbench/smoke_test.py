#!/usr/bin/env python3
"""Smoke test of the layer-budget benchmark at a tiny trace length.

    python3 layerbench/smoke_test.py [--pin]

Run from the repository root. For every workload, `serve` too (which
BENCHMARK.json does not list), it runs `layerbench/run.py` untraced
and traced on 3000-instruction traces (CLAP_TRACE_INSTS) and asserts
that the run exits 0 and reads correct=true, and that it emits every
metric BENCHMARK.json names, with its unit. A metric must also be
measured: every end-to-end metric is finite and above 0, the per-layer
metrics a workload reports as not measured are exactly the ones listed
in NOT_MEASURED below, and every other per-layer metric is above 0
unless MAY_BE_ZERO names it.
It runs `replay` twice on one seed, untraced and traced, and asserts
that its prediction statistics and core counts repeat exactly.

--pin also runs `replay` at the default seed and the default
200000-instruction traces and asserts the hybrid prediction rate and
accuracy of bench_fig05_predictors (0.701248 / 0.981864).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY_INSTS = "3000"
NOT_MEASURED_LINE = ": not measured on this workload:"

# Per-layer metrics of layers that do no work on a workload, by prefix.
NOT_MEASURED = {
    "replay": ["serve.", "net.", "replica.", "obs.joined_spans",
               "obs.conservation.", "obs.unattributed_frac"],
    "serve": ["sim.", "runner.", "net.", "replica.", "obs.joined_spans"],
    "fleet": ["core.predict_ns.", "core.update_ns.",
              "serve.queue_depth_max", "sim.", "runner."],
}
# Per-layer metrics that read 0 on a healthy run: fault and drop counts,
# and the rejections and vetoes tiny traces may not reach.
MAY_BE_ZERO = {
    "net.client.retries", "net.client.reconnects", "net.wrong_replies",
    "net.admit.shed", "replica.failovers", "obs.spans_dropped",
    "ops_failed_frac", "core.lt_pf_rejected", "core.cap_conf_vetoes",
    "core.cap_tag_vetoes", "core.cap_path_vetoes",
}
EXACT = {
    "0": ["spec_rate", "spec_accuracy", "gap_spec_rate", "gap_spec_accuracy"],
    "1": ["core.loads", "core.formed", "core.lb_hit_frac",
          "core.spec_per_formed", "core.lt_link_writes",
          "core.lt_pf_rejected", "core.cap_conf_vetoes",
          "core.cap_tag_vetoes", "core.cap_path_vetoes"],
}


def run(workload, seed, trace, insts=TINY_INSTS):
    """Run one workload; return its metrics and not-measured names."""
    cmd = [sys.executable, str(ROOT / "layerbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", trace,
           "--seconds", "1"]
    env = dict(os.environ)
    env.pop("CLAP_TRACE_INSTS", None)
    if insts:
        env["CLAP_TRACE_INSTS"] = insts
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, f"{cmd}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{cmd}: correct=false\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    skipped = [line.split(NOT_MEASURED_LINE, 1)[1].split()
               for line in lines if NOT_MEASURED_LINE in line]
    assert len(skipped) == 1, f"{cmd}: no not-measured line\n{proc.stdout}"
    return result["metrics"], set(skipped[0])


def check_emitted(workload, trace, wanted, metrics, skipped):
    names = [m["name"] for m in wanted]
    for m in wanted:
        assert m["name"] in metrics, f"{workload}: no {m['name']}"
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    assert len(metrics) == len(wanted), sorted(metrics)

    expected = set() if trace == "0" else {
        n for n in names
        if any(n.startswith(p) for p in NOT_MEASURED[workload])}
    assert skipped == expected, (
        f"{workload} trace {trace}: not measured {sorted(skipped)}, "
        f"expected {sorted(expected)}")
    for name in names:
        value = metrics[name]["value"]
        assert math.isfinite(value), f"{workload}: {name} = {value}"
        if name in skipped:
            assert value == 0, f"{workload}: unmeasured {name} = {value}"
        elif trace == "0" or name not in MAY_BE_ZERO:
            assert value != 0, f"{workload} trace {trace}: {name} reads 0"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    # Every workload the binary runs, serve too, which BENCHMARK.json
    # leaves out.
    for workload in NOT_MEASURED:
        for trace in ("0", "1"):
            metrics, skipped = run(workload, 7, trace)
            check_emitted(workload, trace, wanted[trace], metrics, skipped)
            print(f"ok  {workload} trace {trace}: {len(metrics)} metrics, "
                  f"{len(skipped)} not measured")

    for trace, names in EXACT.items():
        first, _ = run("replay", 5, trace)
        second, _ = run("replay", 5, trace)
        for name in names:
            assert first[name]["value"] == second[name]["value"], (
                f"replay {name} differs between runs of one seed: "
                f"{first[name]['value']} vs {second[name]['value']}")
        print(f"ok  replay trace {trace}: {len(names)} counts repeat exactly")

    if "--pin" in sys.argv[1:]:
        metrics, _ = run("replay", 0, "0", insts=None)
        rate = metrics["spec_rate"]["value"]
        accuracy = metrics["spec_accuracy"]["value"]
        assert round(rate, 6) == 0.701248, rate
        assert round(accuracy, 6) == 0.981864, accuracy
        print(f"ok  replay pin: spec_rate {rate:.6f}, spec_accuracy {accuracy:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
