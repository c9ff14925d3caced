"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,trace,live} --seed N --seconds S --trace {0,1}

Run from anywhere; ``repro`` is imported from the ``src/`` beside this
directory.  Set-up runs several times and is reported as a median; then the
workload's closed loop runs for ``--seconds``.  With ``--trace 0`` the last
line of standard output is the JSON result with every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time

import harness
from harness import Ops, SpeedProbe, Tracer, median, peak_rss_mb, tail

LAYERS_LIMIT = 300.0

#: each layer's per-layer metrics, and the end-to-end metric (under its
#: generic name and the workload's own) that the layer should move
LAYERS = (
    ("interpreter", ("cli.interp_ms",), "floor of op_p50_ms = cmd_p50_ms on cli"),
    ("repro.cli import", ("cli.import_ms", "cli.modules"),
     "op_p50_ms, op_tail_ms = cmd_p50_ms, cmd_tail_ms on cli"),
    ("command bodies", tuple(f"cli.work_ms.{c}" for c in (
        "measure", "trace_record", "trace_info", "trace_query", "lint", "mapc_check",
        "sweep", "metrics")), "op_tail_ms = cmd_tail_ms on cli"),
    ("analyze, mapdsl", ("analyze.lint_ms", "mapdsl.check_ms"),
     "op_tail_ms = cmd_tail_ms on cli"),
    ("cmfortran", ("cmfortran.compile_ms",), "session_s (record_s) on trace"),
    ("paradyn", ("paradyn.setup_ms", "paradyn.run_ms", "sas.notifications",
                 "instrument.executions"), "session_s (record_s) on trace"),
    ("trace writer", ("trace.record_overhead", "trace.bytes_per_transition", "trace.segments"),
     "session_s (record_s) on trace; bytes also op_p50_ms = question_p50_ms"),
    ("trace.scan", ("scan.open_ms", "scan.decode_ms", "scan.segments_ratio",
                    "scan.events_ratio"), "op_p50_ms = question_p50_ms on trace"),
    ("trace.retro", ("retro.answer_ms",),
     "op_p50_ms, op_tail_ms = question_p50_ms, question_tail_ms on trace"),
    ("output format", ("format.json_ms",), "op_p50_ms = question_p50_ms on trace"),
    ("trace.retro + core.multiq", ("retro.batch_ms", "multiq.nodes_per_question"),
     "session_s (subscribe_p50_ms) on trace"),
    ("serve", ("serve.overhead_ms", "serve.lines"), "session_s (subscribe_p50_ms) on trace"),
    ("trace.retro (whole trace)", ("retro.intervals_ms", "retro.mappings_ms"),
     "session_s (report_s) on trace"),
    ("dbsim", ("dbsim.study_ms", "sas.server_notifications"),
     "op_p50_ms = study_p50_ms on live"),
    ("core.sas (live)", ("sas.replay_ms",), "op_tail_ms = study_tail_ms on live"),
    ("dbsim.bus", ("bus.retries", "bus.messages_per_transition"),
     "op_p50_ms = study_p50_ms on live"),
    ("sweep", ("sweep.dispatch_overhead", "sweep.speedup"),
     "session_s (studies_per_s) on live"),
)


def _workloads() -> dict:
    from wl_cli import CliWorkload
    from wl_live import LiveWorkload
    from wl_trace import TraceWorkload

    return {w.name: w for w in (CliWorkload, TraceWorkload, LiveWorkload)}


def _declared() -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _measure(wl, tracer: Tracer, speed: SpeedProbe, seconds: float, once: bool = False) -> Ops:
    ops = Ops(tracer, speed, getattr(wl, "on_timeout", None))
    ops.run_sessions(wl.sessions(ops), time.monotonic() + seconds, once=once)
    return ops


def _e2e(wl, ops: Ops, setups: list[float], k_setup: float = 1.0,
         k: float = 1.0) -> dict[str, tuple[float, str]]:
    """End-to-end figures; set-up times are multiplied by ``k_setup`` and
    measuring-loop times by ``k`` (1: as measured)."""
    fig = wl.e2e(ops)
    op_tail, _pct, _n = tail(fig["op"])
    return {
        "setup_s": (k_setup * median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "op_p50_ms": (k * 1e3 * median(fig["op"]), "ms"),
        "op_tail_ms": (k * 1e3 * op_tail, "ms"),
        "session_s": (k * median(fig["sessions"]), "s"),
    }


def _print_named(wl, ops: Ops, setups: list[float], setup_speed: SpeedProbe) -> None:
    print(f"setup_s: {median(setups):.4f} s (median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    for name, value, unit, note in wl.named(ops):
        print(f"{name}: {value:.4f} {unit} ({note})")
    print(f"peak_rss_mb: {peak_rss_mb():.1f} MiB")
    print(f"machine speed: the reference work takes {1e3 * harness.REFERENCE_S:.2f} ms on "
          "the reference host; here it took")
    for probe, what in ((setup_speed, "setup_s"), (ops.speed, "the other end-to-end times")):
        print(f"  {1e3 * median(probe.samples):.2f} ms (median of {len(probe.samples)}), "
              f"so {what} = measured x {probe.factor():.4f}")
    ratio = ops.failed / ops.attempted if ops.attempted else float("nan")
    print(f"fail_ratio: {ratio:g} ({ops.failed} failed of {ops.attempted} attempted)")
    for err in ops.errors:
        print(f"  failed: {err}")


def _print_layers(tracer: Tracer, layers: dict) -> None:
    selfs = tracer.self_times()
    print("per-layer breakdown, as measured (self time = span minus the part its "
          "child spans cover):")
    for label, names, moves in LAYERS:
        print(f"  {label}  [should move {moves}]")
        for name in names:
            value, unit = layers[name]
            spans = selfs.get(name, [])
            extra = f"  self {1e3 * sum(spans):.1f} ms over {len(spans)} spans" if spans else ""
            print(f"    {name}: {value:.4f} {unit}{extra}")


def _print_overhead(wl, untraced: Ops, traced: Ops, setups: list[float]) -> None:
    before, after = _e2e(wl, untraced, setups), _e2e(wl, traced, setups)
    print("tracing overhead, as measured (traced minus untraced pass, same seed and process):")
    for name in ("op_p50_ms", "op_tail_ms", "session_s"):
        (u, unit), (t, _) = before[name], after[name]
        print(f"  {name}: {t:.4f} - {u:.4f} = {t - u:+.4f} {unit} ({(t / u - 1) * 100:+.1f}%)")
    _v, pct_u, n_u = tail(wl.e2e(untraced)["op"])
    _v, pct_t, n_t = tail(wl.e2e(traced)["op"])
    if abs(pct_u - pct_t) > 2:
        print(f"  (op_tail_ms compares p{pct_t:.0f} of n={n_t} traced with "
              f"p{pct_u:.0f} of n={n_u} untraced: the traced pass runs fewer ops)")


def _result(ops_list: list[Ops], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted = sum(o.attempted for o in ops_list)
    failed = sum(o.failed for o in ops_list)
    finite = all(math.isfinite(v) for v, _u in metrics.values())
    return {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }


def _set_up(cls, args, tmp, tracer, speed: SpeedProbe, active: list):
    """Set the workload up ``cls.setups`` times, sampling the machine's speed
    before and after each; keep the last one for measuring."""
    setups, wl = [], None
    for i in range(cls.setups):
        if wl is not None:
            wl.teardown()
        (tmp / f"setup{i}").mkdir(parents=True)
        wl = cls(args.seed, tmp / f"setup{i}", tracer)
        active.append(wl)
        speed.sample()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        speed.sample()
    return wl, setups


def _traced(wl, args, tmp, tracer, active: list, setups: list[float], setup_speed: SpeedProbe):
    """Half the run untraced, half traced; then, for the layers that are off
    this workload's path, one traced session of each other workload, set up
    once at its full size."""
    speed = SpeedProbe()
    untraced = _measure(wl, tracer, speed, args.seconds / 2)
    tracer.enabled = True
    traced = _measure(wl, tracer, speed, args.seconds / 2)
    if hasattr(wl, "direct_layers"):
        traced.attempt("layers", wl.direct_layers, LAYERS_LIMIT)
    tracer.enabled = False
    wl.teardown()
    layers = wl.layers()
    ops_list = [untraced, traced]
    for name, other in _workloads().items():
        if name == args.workload:
            continue
        (tmp / name).mkdir()
        owner = other(args.seed, tmp / name, tracer)
        active.append(owner)
        owner.setup()
        tracer.enabled = True
        ops = _measure(owner, tracer, speed, 0, once=True)
        if hasattr(owner, "direct_layers"):
            ops.attempt("layers", owner.direct_layers, LAYERS_LIMIT)
        tracer.enabled = False
        owner.teardown()
        layers.update(owner.layers())
        ops_list.append(ops)
    _print_named(wl, untraced, setups, setup_speed)
    _print_layers(tracer, layers)
    _print_overhead(wl, untraced, traced, setups)
    tracer.dump(harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    k = speed.factor()
    print(f"JSON per-layer times (unit ms) = the times above x {k:.4f}, the speed factor "
          f"over every op of this run; counts and ratios are not scaled")
    scaled = {n: (k * v if u == "ms" else v, u) for n, (v, u) in layers.items()}
    return scaled, ops_list


def run(args) -> dict:
    declared = _declared()
    load_before = os.getloadavg()
    tmp = harness.TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    active: list = []
    try:
        setup_speed = SpeedProbe()
        wl, setups = _set_up(
            _workloads()[args.workload], args, tmp, tracer, setup_speed, active
        )
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        if args.trace:
            metrics, ops_list = _traced(wl, args, tmp, tracer, active, setups, setup_speed)
            want = declared["per_layer"]
        else:
            ops = _measure(wl, tracer, SpeedProbe(), args.seconds)
            wl.teardown()
            _print_named(wl, ops, setups, setup_speed)
            metrics = _e2e(wl, ops, setups, setup_speed.factor(), ops.speed.factor())
            ops_list = [ops]
            want = declared["end_to_end"]
        got = {k: u for k, (_v, u) in metrics.items()}
        if got != want:
            raise SystemExit(
                f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}"
            )
        print("fingerprint: " + json.dumps(
            harness.fingerprint(getattr(wl, "workers", 0), wl.connections, load_before)))
        return _result(ops_list, metrics)
    finally:
        for w in active:
            w.teardown()
        harness.kill_descendants()
        shutil.rmtree(tmp, ignore_errors=True)
        if harness.TMP_ROOT.is_dir() and not any(harness.TMP_ROOT.iterdir()):
            harness.TMP_ROOT.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "trace", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.use_checkout_src()
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
