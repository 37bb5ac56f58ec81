"""The repository benchmark: fitted-stack serving and offline replay.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``serve-dense`` / ``serve-idle`` — ``airfinger serve --stack`` runs in
  its own process; this process is the load generator.  Two device
  connections (one per core) replay back-to-back seeded sessions as
  10-frame sends on a fixed open-loop schedule (:mod:`openloop`).
* ``replay-idle`` — long idle-dominated recordings replayed in process
  at the default block size by a worker process of its own
  (:mod:`replay_worker`).

Set-up (input generation, training + saving the stack, starting the
recogniser until it answers its first ``hello``) runs several times and
reports the median.  Every device session is also replayed in process
through ``feed_block`` with the same 10-frame batches; that reference
gives each event's trigger send and is what the received events must
equal ``repr`` for ``repr``.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the same workload untraced and then traced (spans
from :mod:`spans`, installed in the recogniser's process) and prints the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

# ``repro`` and the benchmark modules that import it are imported inside
# functions: ``main`` first checks that the checkout has ``src/repro``
# and puts it on the path, so a checkout without it exits with status 2.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"

#: ``pool``: distinct seeded sessions; ``rate_hz``: offered frames per
#: second per connection (1000 Hz = 10 devices at 100 Hz); ``round``:
#: the window serves whole rounds of that many sessions (see
#: :func:`openloop.schedule`), the whole pool or one session of every
#: user.  Engine cost per session differs up to 2x between simulated
#: users, so a window that served a seed-chosen subset of the pool
#: measured the user mix as much as the code (frames per CPU second of
#: the first 14 of 24 idle sessions spread 11 % across seeds, of whole
#: user rounds 6 %).
WORKLOADS = {
    "serve-dense": {"kind": "serve", "shape": "dense", "pool": 8,
                    "rate_hz": 1000.0, "round": 8},
    "serve-idle": {"kind": "serve", "shape": "idle", "pool": 24,
                   "rate_hz": 1750.0, "round": 6},
    "replay-idle": {"kind": "replay", "shape": "idle", "pool": 24},
}
#: concurrent device connections (one per core of a 2-core machine)
SLOTS = 2
#: schedule gap between back-to-back sessions on one connection, in sends
GAP_SENDS = 20
SETUP_REPEATS = 3
#: sends per session in the warm-up (one short session per connection)
WARMUP_SENDS = 100
#: a run whose generator lagged its own schedule more than this at p99 is
#: invalid: it did not offer the load it claims.  Half the serving SLO
#: (50 ms): a later send could hide a stall of that order.  On a 2-vCPU
#: virtual machine the separate-process generator stays near 2 ms.
LAG_BOUND_MS = 25.0
#: the recogniser runs on this core, the generator on the other ones
RECOGNISER_CPU = 1

#: the gated end-to-end metrics (the JSON result of ``--trace 0``).
#: ``latency_p50_ms`` is the p50 over one homogeneous population: serve,
#: the latency of ``ScrollUpdate`` events (the live scroll stream, no
#: classification in their send); replay, the turnaround of blocks that
#: deliver no event.  Pooled with the classified events, the p50 fell
#: wherever the seed's mix put it (scroll ~2.9 ms, labels ~5.7 ms, each
#: within 3 % across seeds; pooled 3.3 vs 4.3 ms).  Quiet blocks of one
#: recording cost ~1.0 ms and of another ~1.5 ms, so replay plays the
#: 24-session idle pool rather than a few long recordings.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "frames_per_cpu_s": "frames/cpu-s",
    "peak_rss_mb": "MB",
    "frame_success_rate": "ratio",
    "event_match_rate": "ratio",
    "recognition_accuracy": "ratio",
}
#: printed beside them but not gated: the latency of every event, whose
#: p50 follows the seed's event mix and whose p99 follows the few slowest
#: classifications of a seed's sessions; the two rates are 0 on a correct
#: run (their complements above carry them in the JSON)
REPORTED = {
    "event_latency_p50_ms": "ms",
    "event_latency_p99_ms": "ms",
    "error_rate": "ratio",
    "event_mismatch_rate": "ratio",
}
PER_LAYER = {
    "protocol.decode_us_per_frame": "us",
    "protocol.encode_us_per_event": "us",
    "protocol.bytes_per_frame": "B",
    "session.enqueue_us_per_frame": "us",
    "session.dispatch_glue_us_per_frame": "us",
    "session.dispatch_frames_mean": "frames",
    "session.queue_wait_p50_ms": "ms",
    "session.queue_wait_p99_ms": "ms",
    "session.backpressure_drops": "count",
    "pipeline.feed_block_calls": "count",
    "pipeline.self_us_per_frame": "us",
    "guard.us_per_frame": "us",
    "sbc.us_per_frame": "us",
    "segmentation.us_per_frame": "us",
    "segmentation.segments": "count",
    "segmentation.label_delay_frames_p50": "frames",
    "dispatcher.calls": "count",
    "dispatcher.us_per_call": "us",
    "zebra.calls": "count",
    "zebra.us_per_call": "us",
    "interference.calls": "count",
    "interference.ms_per_call": "ms",
    "detector.calls": "count",
    "detector.ms_per_call": "ms",
    "features.ms_per_call": "ms",
    "forest.ms_per_call": "ms",
    "obs.metric_calls_per_frame": "count",
    "client.send_lag_p99_ms": "ms",
    "client.decode_us_per_event": "us",
    "setup.inputs_s": "s",
    "setup.train_s": "s",
    "setup.server_start_s": "s",
    "trace.overhead_frac": "ratio",
}
#: per-layer metrics with no meaning on a workload (reported as 0)
NOT_APPLICABLE = {
    "replay-idle": tuple(n for n in PER_LAYER
                         if n.split(".")[0] in ("protocol", "session",
                                                "client")),
}


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# recogniser processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    return dict(os.environ, PYTHONUNBUFFERED="1",
                PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))


def _pin(pid: int, cpus: set[int]) -> None:
    """Keep *pid* on *cpus* where the machine allows it."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of *pid* so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _probe_hello(port: int) -> None:
    """Open a session, wait for its ``hello_ack``, close it."""
    from repro.serve import protocol

    decoder = protocol.MessageDecoder()
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(protocol.encode_message(
            protocol.hello("perfbench-probe", "probe")))
        kinds: list[str] = []
        while "hello_ack" not in kinds:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the probe session")
            kinds += [m.get("type") for m in decoder.feed(data)]
        sock.sendall(protocol.encode_message(protocol.bye()))
        while "bye" not in kinds:
            data = sock.recv(65536)
            if not data:
                break
            kinds += [m.get("type") for m in decoder.feed(data)]


class Recogniser:
    """The process doing recognition: a serve process or a replay worker."""

    def __init__(self, work: Path, kind: str, stack: Path, inputs: Path,
                 seconds: float, trace_out: Path | None, procs: list):
        self.kind = kind
        self.traced = trace_out is not None
        t0 = time.perf_counter()
        if kind == "serve":
            serve = ["serve", "--stack", str(stack), "--host", HOST,
                     "--port", "0"]
            cmd = ([sys.executable, str(HERE / "launcher.py"),
                    "--trace-out", str(trace_out)] + serve
                   if trace_out else
                   [sys.executable, "-m", "repro.cli"] + serve)
            log = work / f"serve-{len(procs)}.log"
            with open(log, "w") as fh:
                self.proc = subprocess.Popen(cmd, stdout=fh,
                                             stderr=subprocess.STDOUT,
                                             cwd=ROOT, env=_env())
            procs.append(self.proc)
            _pin(self.proc.pid, {RECOGNISER_CPU})
            self.port = self._wait_banner(log)
            _probe_hello(self.port)
        else:
            cmd = [sys.executable, str(HERE / "replay_worker.py"),
                   str(stack), str(inputs), str(seconds)]
            if trace_out:
                cmd.append(str(trace_out))
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                cwd=ROOT, env=_env(), text=True)
            procs.append(self.proc)
            _pin(self.proc.pid, {RECOGNISER_CPU})
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("replay worker failed to start")
        self.ready_s = time.perf_counter() - t0

    def _wait_banner(self, log: Path) -> int:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            for line in log.read_text().splitlines():
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited: {log.read_text()}")
            time.sleep(0.01)
        raise RuntimeError("serve did not print its banner")

    def stop(self) -> None:
        if self.kind == "replay":
            # end of input tells an idle worker to exit; a finished one
            # is exiting already
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        _stop(self.proc)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Inputs:
    """Everything generated from the seed, plus set-up timings."""

    def __init__(self, work: Path, spec: dict, seed: int) -> None:
        import workload
        from repro.utils import derive_rng

        self.stack = work / "stack.json"
        self.path = work / "inputs.npz"
        t0 = time.perf_counter()
        self.recordings = workload.make_sessions(seed, spec["shape"],
                                                 spec["pool"])
        if spec["kind"] == "serve":
            self.batches = [workload.send_batches(r) for r in self.recordings]
            self.sends = [workload.encode_sends(b) for b in self.batches]
            self.frames_per_send = [[len(x) for x in b] for b in self.batches]
        else:
            workload.save_recordings(self.path, self.recordings)
        t1 = time.perf_counter()
        workload.train_stack(self.stack)
        self.inputs_s = t1 - t0
        self.train_s = time.perf_counter() - t1
        # session i is played by user i % POPULATION: each run of
        # POPULATION consecutive entries holds one session of every user
        rng = derive_rng(seed, "perfbench-order")
        pool, users = spec["pool"], workload.POPULATION
        self.order = [first + int(k) for first in range(0, pool, users)
                      for k in rng.permutation(min(users, pool - first))]


def setup(work: Path, spec: dict, seed: int, seconds: float, procs: list
          ) -> tuple[Inputs, Recogniser, dict]:
    """Set up ``SETUP_REPEATS`` times; keep the last; report medians."""
    totals, parts = [], {"setup.inputs_s": [], "setup.train_s": [],
                         "setup.server_start_s": []}
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = Inputs(work, spec, seed)
        rec = Recogniser(work, spec["kind"], inputs.stack, inputs.path,
                         seconds, None, procs)
        totals.append(time.perf_counter() - t0)
        parts["setup.inputs_s"].append(inputs.inputs_s)
        parts["setup.train_s"].append(inputs.train_s)
        parts["setup.server_start_s"].append(rec.ready_s)
        if i < SETUP_REPEATS - 1:
            rec.stop()
    medians = {k: statistics.median(v) for k, v in parts.items()}
    medians["setup_s"] = statistics.median(totals)
    return inputs, rec, medians


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def references(inputs: Inputs, spec: dict) -> list:
    """In-process replay of every distinct session, 10-frame batches."""
    import workload

    engine = workload.load_engine(inputs.stack)
    batches = (inputs.batches if spec["kind"] == "serve" else
               [workload.send_batches(r) for r in inputs.recordings])
    return [workload.reference_replay(engine, b) for b in batches]


def pool_accuracy(recordings: list, refs: list) -> float:
    """Recognition accuracy over the seed's whole session pool.

    Scored on the reference events; every served session's received
    events must equal them, so they are what the recogniser delivered.
    Scoring each distinct session once, whether the window served it
    once, twice or not at all, keeps the seed-to-seed spread down.
    """
    import workload

    scores = [workload.score(r, ref.events) for r, ref in zip(recordings, refs)]
    return sum(c for c, _ in scores) / sum(n for _, n in scores)


def label_delay_p50(inputs: Inputs, refs: list) -> tuple[float, bool]:
    """Median frames from true gesture end to trigger frame (scalar feed)."""
    import workload

    engine = workload.load_engine(inputs.stack)
    delays: list[int] = []
    consistent = True
    for recording, ref in zip(inputs.recordings, refs):
        triggers = workload.trigger_frames(engine, recording)
        consistent &= len(triggers) == len(ref.events)
        delays += workload.label_delays(recording, ref.events, triggers)
    return (float(statistics.median(delays)) if delays else 0.0), consistent


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------

def serve_phase(rec: Recogniser, inputs: Inputs, refs: list, seconds: float,
                spec: dict, prefix: str) -> dict:
    """Warm up, then drive the open-loop load; returns the raw outcome."""
    import openloop
    import workload

    period_s = workload.FRAMES_PER_SEND / spec["rate_hz"]
    warm = [sends[:WARMUP_SENDS] for sends in inputs.sends]
    warm_frames = [f[:WARMUP_SENDS] for f in inputs.frames_per_send]
    awake = [subprocess.Popen([sys.executable, str(HERE / "keepawake.py"),
                               str(cpu)])
             for cpu in range(os.cpu_count() or 1)]
    try:
        openloop.run_load(HOST, rec.port, lambda t: openloop.schedule(
            SLOTS, warm, warm_frames, inputs.order, period_s, GAP_SENDS, t,
            0.0, f"{prefix}-warm"))
        before = openloop.control_stats(HOST, rec.port, f"{prefix}-stats0")
        if rec.traced:
            rec.proc.send_signal(signal.SIGUSR1)
        cpu0 = _cpu_s(rec.proc.pid)
        runs = openloop.run_load(HOST, rec.port, lambda t: openloop.schedule(
            SLOTS, inputs.sends, inputs.frames_per_send, inputs.order,
            period_s, GAP_SENDS, t, seconds, prefix, spec["round"]))
        cpu_s = _cpu_s(rec.proc.pid) - cpu0
    finally:
        for proc in awake:
            proc.kill()
            proc.wait()
    after = openloop.control_stats(HOST, rec.port, f"{prefix}-stats1")
    out = evaluate_serve(
        runs, refs,
        server_frames=(openloop.counter_total(after, "serve.frames")
                       - openloop.counter_total(before, "serve.frames")),
        drops=(openloop.counter_total(after, "serve.backpressure_drops")
               - openloop.counter_total(before, "serve.backpressure_drops")))
    out["cpu_s"] = cpu_s
    out["peak_rss_mb"] = _peak_rss_mb(rec.proc.pid)
    return out


def evaluate_serve(runs: list, refs: list, server_frames: float,
                   drops: float) -> dict:
    """Check received events against the reference; collect latencies.

    A session whose events are not ``repr``-identical to its reference
    is a mismatch.  A frame fails when its session errored or timed
    out, when backpressure dropped it, or when the server never counted
    it.  Event latency runs from the due time of the send carrying the
    event's trigger frame (the ``bye`` for the flush tail) to receipt;
    ``steady`` holds that of the ``ScrollUpdate`` events.
    """
    from repro.core.events import ScrollUpdate

    ref_reprs = [r.reprs for r in refs]
    out = {"attempted": 0, "failed": 0, "sessions": len(runs),
           "mismatched": 0, "latencies": [], "steady": [], "lags": [],
           "decode_s": 0.0, "events": 0}
    sent = 0
    for run in runs:
        out["attempted"] += run.frames
        sent += sum(run.frames_per_send[:len(run.send_lag_s)])
        out["lags"] += run.send_lag_s
        out["decode_s"] += run.decode_s
        out["events"] += len(run.received)
        events = [e for _, e in run.received]
        if run.error:
            out["failed"] += run.frames
            print(f"session {run.session_id}: {run.error}", file=sys.stderr)
        if run.error or [repr(e) for e in events] != ref_reprs[run.template]:
            out["mismatched"] += 1
            continue
        for (t_recv, event), k in zip(run.received,
                                      refs[run.template].trigger):
            due = run.due(k if k >= 0 else len(run.sends))
            out["latencies"].append(t_recv - due)
            if isinstance(event, ScrollUpdate):
                out["steady"].append(t_recv - due)
    out["failed"] = min(out["attempted"], out["failed"] + int(drops)
                        + max(0, sent - int(server_frames)))
    out["frames_done"] = sent
    out["ok"] = out["failed"] == 0 and out["mismatched"] == 0
    return out


def replay_phase(rec: Recogniser, inputs: Inputs, refs: list) -> dict:
    """Let the replay worker run; returns the raw outcome."""
    import workload

    rec.proc.stdin.write("go\n")
    rec.proc.stdin.flush()
    result = json.loads(rec.proc.stdout.readline())
    rec.stop()
    digests = []
    for ref in refs:
        h = hashlib.sha1()
        for r in ref.reprs:
            h.update(r.encode())
            h.update(b"\n")
        digests.append(h.hexdigest())
    return {"attempted": result["frames"], "failed": 0,
            "sessions": len(result["passes"]),
            "mismatched": sum(digest != digests[i]
                              for i, digest in result["passes"]),
            "latencies": result["event_s"], "steady": result["quiet_s"],
            "frames_done": result["frames"], "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0}


def run_phase(spec: dict, inputs: Inputs, refs: list, seconds: float,
              rec: Recogniser, tag: str) -> dict:
    if spec["kind"] == "serve":
        try:
            return serve_phase(rec, inputs, refs, seconds, spec, tag)
        finally:
            rec.stop()
    return replay_phase(rec, inputs, refs)


def end_to_end(raw: dict, setup_s: float, accuracy: float) -> dict:
    lat_ms = [1e3 * x for x in raw["latencies"]]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": _quantile([1e3 * x for x in raw["steady"]], 0.50),
        "event_latency_p50_ms": _quantile(lat_ms, 0.50),
        "event_latency_p99_ms": _quantile(lat_ms, 0.99),
        "frames_per_cpu_s": (raw["frames_done"] / raw["cpu_s"]
                             if raw["cpu_s"] else 0.0),
        "peak_rss_mb": raw["peak_rss_mb"],
        "frame_success_rate": 1.0 - raw["failed"] / raw["attempted"],
        "event_match_rate": 1.0 - raw["mismatched"] / raw["sessions"],
        "recognition_accuracy": accuracy,
        "error_rate": raw["failed"] / raw["attempted"],
        "event_mismatch_rate": raw["mismatched"] / raw["sessions"],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus = os.sched_getaffinity(0)
    if RECOGNISER_CPU in cpus and len(cpus) > 1:
        _pin(0, cpus - {RECOGNISER_CPU})
    spec = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    procs: list[subprocess.Popen] = []
    try:
        return _run(args, spec, work, procs)
    finally:
        for proc in procs:
            _stop(proc)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, spec: dict, work: Path, procs: list) -> int:
    inputs, rec, setup_t = setup(work, spec, args.seed, args.seconds, procs)
    refs = references(inputs, spec)
    raw = run_phase(spec, inputs, refs, args.seconds, rec, "plain")
    e2e = end_to_end(raw, setup_t["setup_s"],
                     pool_accuracy(inputs.recordings, refs))
    lag_p99 = _quantile([1e3 * x for x in raw.get("lags", [])], 0.99)
    valid = lag_p99 <= LAG_BOUND_MS
    correct = raw["failed"] == 0 and raw["mismatched"] == 0

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{raw['sessions']} sessions  {raw['attempted']} frames")
    if spec["kind"] == "serve":
        print(f"generator send lag p99 {lag_p99:.3f} ms "
              f"(bound {LAG_BOUND_MS} ms): {'valid' if valid else 'INVALID'}")
    if spec["kind"] == "replay":
        steady, events = "full blocks without events", "blocks with events"
    else:
        steady, events = "ScrollUpdate events", "events"
    n_events = f"n={len(raw['latencies'])} {events}, not gated"
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "latency_p50_ms": f"n={len(raw['steady'])} {steady}",
             "event_latency_p50_ms": n_events,
             "event_latency_p99_ms": n_events,
             "error_rate": f"{raw['failed']} of {raw['attempted']} frames",
             "event_mismatch_rate": f"{raw['mismatched']} of "
                                    f"{raw['sessions']} sessions"}
    for name, unit in {**END_TO_END, **REPORTED}.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:<24} {e2e[name]:12.4f} {unit}{note}")

    if args.trace:
        trace_out = work / "trace.json"
        traced_rec = Recogniser(work, spec["kind"], inputs.stack, inputs.path,
                                args.seconds, trace_out, procs)
        traced = run_phase(spec, inputs, refs, args.seconds, traced_rec,
                           "traced")
        correct &= traced["failed"] == 0 and traced["mismatched"] == 0
        valid &= _quantile([1e3 * x for x in traced.get("lags", [])],
                           0.99) <= LAG_BOUND_MS
        import spans

        layers = spans.layer_metrics(json.loads(trace_out.read_text()))
        delay, consistent = label_delay_p50(inputs, refs)
        correct &= consistent
        traced_fpcs = traced["frames_done"] / traced["cpu_s"]
        layers.update({
            "segmentation.label_delay_frames_p50": delay,
            "client.send_lag_p99_ms": lag_p99,
            "client.decode_us_per_event": (
                1e6 * raw["decode_s"] / raw["events"]
                if raw.get("events") else 0.0),
            "setup.inputs_s": setup_t["setup.inputs_s"],
            "setup.train_s": setup_t["setup.train_s"],
            "setup.server_start_s": setup_t["setup.server_start_s"],
            "trace.overhead_frac": ((e2e["frames_per_cpu_s"] - traced_fpcs)
                                    / e2e["frames_per_cpu_s"]),
        })
        skip = NOT_APPLICABLE.get(args.workload, ())
        for name in skip:
            layers[name] = 0.0
        print("per-layer (traced run):")
        for name in PER_LAYER:
            tag = "  n/a on this workload" if name in skip else ""
            print(f"  {name:<38} {layers[name]:14.4f} {PER_LAYER[name]}{tag}")
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in END_TO_END.items()}
    if not valid:
        print("run invalid: the generator fell behind its schedule",
              file=sys.stderr)
    print(json.dumps({"correct": bool(correct and valid),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
