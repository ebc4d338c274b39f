"""fotasim benchmark: host speed of three workloads, traced per module on request.

Run from the root of a checkout::

    python3 perfbench/run.py --workload full-clean --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for how each is drawn from the seed):

* ``full-clean``  full campaigns on a clean bus, each followed by a 5 s soak;
* ``delta-lossy`` delta campaigns at 2% frame corruption;
* ``delta-tool``  offline build -> encode -> decode -> apply round trips.

One process and one thread drive a closed loop: the next operation starts
when the previous one ends.  The batch of operations drawn from the seed is
repeated until ``--seconds`` have passed; the first pass always completes.
Host time is what the simulator costs; simulated time is what the modelled
ECU would take.  Simulated statistics and the behaviour digest come from the
first pass and repeat exactly for a seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass, then wraps every public fotasim function (``tracer.py``) for whole
traced passes, and prints the per-layer metrics, each per operation.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON object with the
details (workload metrics, failure reasons, digest, provenance).  ``failed``
counts the operations whose campaign failed other than as the known
large-package defect (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 9  # a fresh interpreter's import time is noisier than provisioning
TAIL_BEYOND = 10
REFERENCE_EVERY_S = 0.05
REFERENCE_S = 0.006  # nominal reference-loop time: the scale setup_s is reported in
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import fotasim; "
                "print(time.perf_counter() - start)")


def load_fotasim() -> None:
    """Import fotasim from this checkout's ``src``.  Exits with status 2
    when the checkout holds no fotasim sources."""
    if not (SRC / "fotasim" / "__init__.py").is_file():
        print(f"perfbench: no fotasim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fotasim
    if Path(fotasim.__file__).resolve().parent != SRC / "fotasim":
        print(f"perfbench: fotasim imported from {fotasim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def import_s() -> float:
    """Host time of ``import fotasim`` in a fresh interpreter, which finds
    the bytecode the benchmark's own import has already cached."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


# -- provenance -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
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


def provenance() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- machine speed ------------------------------------------------------------------


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def reference_loop(n: int = 2000) -> int:
    """Fixed interpreter work that does not touch fotasim, about 6 ms on a
    2-CPU x86 machine: object creation and method calls with a deque and a
    dict, integer arithmetic, and copying and summing slices of a byte buffer.

    The host's speed drifts by +/-20% over minutes, and CPU time drifts with
    wall time, so it is the machine that slows down.  Timing this loop next
    to the operations measures that drift; an operation's time divided by
    the loop's time is what the gated end-to-end metrics report.  The three
    kinds of work slow down by different amounts as the machine drifts; their
    sum tracked all three workloads' operation times more closely than any
    one of them alone.  Never change this function: its time is the unit
    those metrics are in."""
    queue: deque[_Cell] = deque()
    table: dict[int, bytes] = {}
    acc = 0
    for i in range(n):
        queue.append(_Cell(i, acc & 0xFF))
        if len(queue) > 8:
            acc ^= queue.popleft().step(i)
        table[i & 63] = bytes([i & 0xFF]) + b"abcdefg"[: i % 7]
        acc += len(table.get((i * 5) & 63, b""))
    for i in range(8 * n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    buffer = bytearray(64 * 1024)
    block = bytes(range(256)) * 4
    for i in range(n // 2):
        pos = (i * 997) % (len(buffer) - len(block))
        buffer[pos : pos + len(block)] = block
        acc += buffer[pos + (i & 1023)] + sum(bytes(buffer[pos : pos + 64]))
    return acc


def reference_s() -> float:
    """Host time of one reference loop."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def in_reference_units(measure) -> float:
    """Call ``measure()``, which returns a host time, and divide that time
    by the mean of the reference loop's times just before and after it."""
    before = reference_s()
    wall = measure()
    return wall / ((before + reference_s()) / 2)


# -- measuring ------------------------------------------------------------------


class Run:
    """The operations of one run: host walls, per-op results, first-pass digests."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.walls: list[float] = []
        self.ratios: list[float] = []  # wall / reference-loop time around it
        self.results = []
        self.first_pass = []
        self._reference_s = 0.0
        self._reference_at = -REFERENCE_EVERY_S
        self._pending: list[float] = []  # walls waiting for the next reference sample

    def reference(self) -> None:
        """Time the reference loop; each operation since the previous sample
        is divided by the mean of the samples before and after it."""
        sample = reference_s()
        if self._pending:
            unit = (self._reference_s + sample) / 2
            self.ratios.extend(wall / unit for wall in self._pending)
            self._pending.clear()
        self._reference_s = sample
        self._reference_at = time.perf_counter()

    def one(self, index: int, call=None):
        """Prepare, time and verify operation ``index`` of the batch.
        ``call(phase, fn, *args)`` runs each step; the default calls it."""
        call = call or (lambda phase, fn, *args: fn(*args))
        if time.perf_counter() - self._reference_at >= REFERENCE_EVERY_S:
            self.reference()
        wl = self.workload
        item = self.items[index]
        state = call("prepare", wl.prepare, item)
        start = time.perf_counter()
        output = call("op", wl.execute, state)
        wall = time.perf_counter() - start
        result = call("verify", wl.verify, item, state, output)
        if len(self.first_pass) < len(self.items):
            self.first_pass.append(result)
        elif result.digest != self.first_pass[index].digest:
            from workloads import Mismatch
            raise Mismatch("replay differs from the first pass")
        self.walls.append(wall)
        self._pending.append(wall)
        self.results.append(result)

    def passes(self, deadline: float, whole: bool, call=None) -> None:
        """Repeat the batch until ``deadline``; the first pass always
        completes, and with ``whole`` so does every pass begun."""
        first = True
        while first or time.perf_counter() < deadline:
            for index in range(len(self.items)):
                if not (first or whole) and time.perf_counter() >= deadline:
                    break
                self.one(index, call)
            first = False
        self.reference()


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest-percentile sample with ``TAIL_BEYOND`` samples above it:
    returns ``(value, percentile, samples beyond)``."""
    ordered = sorted(walls)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def behaviour(first_pass) -> dict:
    """Simulated statistics of the first pass: they repeat exactly for a seed.
    ``unexpected`` counts failed campaigns other than the known defect."""
    digest = hashlib.sha256(b"".join(r.digest for r in first_pass)).hexdigest()
    failures = Counter(r.reason for r in first_pass if r.outcome != "success")
    out = {
        "digest": digest,
        "fail_share": {"value": sum(failures.values()) / len(first_pass), "unit": "ratio",
                       "failed": sum(failures.values()), "base": len(first_pass),
                       "unexpected": sum(not r.expected for r in first_pass),
                       "reasons": dict(sorted(failures.items()))},
    }
    if any(r.sim_us for r in first_pass):
        out["sim_campaign_s.p50"] = {
            "value": statistics.median(r.campaign_us for r in first_pass) / 1e6, "unit": "s"}
        out["bus_frames_per_campaign.p50"] = {
            "value": statistics.median(r.campaign_frames for r in first_pass), "unit": "frames"}
    return out


def throughput(run: Run) -> dict:
    host_s = sum(run.walls)
    if any(r.sim_us for r in run.results):
        return {
            "sim_s_per_host_s": {"value": sum(r.sim_us for r in run.results) / 1e6 / host_s,
                                 "unit": "s/s"},
            "frames_per_host_s": {"value": sum(r.frames for r in run.results) / host_s,
                                  "unit": "frames/s"},
        }
    return {"delta_mb_per_s": {"value": sum(r.new_bytes for r in run.results) / 1e6 / host_s,
                               "unit": "MB/s"}}


def baseline_note(workload: str, seed: int, key: str, value) -> str:
    """Whether ``value`` equals what ``baseline.json`` records under ``key``
    (``digests`` or ``fail_share``) for this workload and seed."""
    try:
        baseline = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return "no baseline file"
    recorded = baseline.get(key, {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return "no baseline for this seed"
    return "matches baseline" if recorded == value else f"differs from baseline {recorded}"


def end_to_end(run: Run, setup_s: float) -> dict:
    """The gated metrics: each repeats within a few per cent across seeds."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_wall_ref.p50": {"value": statistics.median(run.ratios), "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }


def _tail_entry(values: list[float], unit: str) -> dict:
    value, pct, beyond = tail(values)
    return {"value": value, "unit": unit, "percentile": pct, "beyond": beyond,
            "samples": len(values)}


def host_times(run: Run) -> dict:
    """Printed beside the gated metrics.  The tails sit in the noise of a
    handful of long operations (about 10% spread across seeds), and raw host
    times carry the machine's drift."""
    return {
        "op_wall_ref.tail": _tail_entry(run.ratios, "ref"),
        "op_wall_s.p50": {"value": statistics.median(run.walls), "unit": "s"},
        "op_wall_s.tail": _tail_entry(run.walls, "s"),
    }


# Modules whose functions run inside operations; their self times plus the
# unattributed remainder make up the traced operation time.
LAYERS = ("simruntime", "canbus", "integrity", "flashmodel", "nvstore", "uds", "delta",
          "bootflow", "lka", "orchestrator")


def per_layer(accounts, run: Run, untraced_walls, traced_from: int) -> dict:
    """Per-operation layer metrics from the traced passes."""
    op, inputs, prepare = accounts["op"], accounts["inputs"], accounts["prepare"]
    n = op.roots
    results = run.results[traced_from:]
    calls, self_s, counts = op.calls, op.self_s, op.counts

    def per_op(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def span(name, label, what=("calls", "self_s")):
        if "calls" in what:
            put(f"{name}.calls", per_op(calls[label]), "count/op")
        if "self_s" in what:
            put(f"{name}.self_s", per_op(self_s[label]), "s/op")

    ticks = calls["simruntime.World.tick"]
    put("simruntime.ticks", per_op(ticks), "count/op")
    span("simruntime.tick", "simruntime.World.tick", ("self_s",))
    span("simruntime.run_tick.ecu", "simruntime.Node.run_tick.ecu", ("self_s",))
    put("simruntime.idle_tick_share", ratio(counts["simruntime.idle_ticks"], ticks), "ratio")
    put("simruntime.stall_tick_share", ratio(counts["simruntime.stall_ticks"], ticks), "ratio")
    put("simruntime.log_events", per_op(calls["simruntime.World.log"]), "count/op")

    span("canbus.step", "canbus.Bus.step")
    for key, attr in (("frames", "frames"), ("error_frames", "error_frames"),
                      ("retransmissions", "retransmissions"), ("bus_off", "bus_off")):
        put(f"canbus.{key}", per_op(sum(getattr(r, attr) for r in results)), "count/op")
    span("canbus.send_segmented", "canbus.send_segmented")
    span("canbus.recv_segmented", "canbus.recv_segmented")
    put("canbus.recv_segmented.hit_ratio",
        ratio(counts["canbus.recv_segmented.hits"], calls["canbus.recv_segmented"]), "ratio")
    put("canbus.transport_errors", per_op(counts["canbus.transport_errors"]), "count/op")

    span("integrity.crc32", "integrity.crc32")
    put("integrity.crc32.bytes", per_op(counts["integrity.crc32.bytes"]), "B/op")
    put("integrity.crc32.mb_per_s",
        ratio(counts["integrity.crc32.bytes"] / 1e6, self_s["integrity.crc32"]), "MB/s")

    span("flashmodel.erase", "flashmodel.FlashDevice.erase_sectors")
    put("flashmodel.erase.sectors", per_op(counts["flashmodel.erase.sectors"]), "count/op")
    span("flashmodel.program", "flashmodel.FlashDevice.program")
    put("flashmodel.program.bytes", per_op(counts["flashmodel.program.bytes"]), "B/op")
    span("flashmodel.read", "flashmodel.FlashDevice.read")
    put("flashmodel.read.bytes", per_op(counts["flashmodel.read.bytes"]), "B/op")
    put("flashmodel.busy_sim_us", per_op(counts["flashmodel.busy_sim_us"]), "us/op")

    span("nvstore.read_app_metadata", "nvstore.read_app_metadata")

    put("uds.handshakes", per_op(counts["uds.handshakes"]), "count/op")
    span("uds.server_handle", "uds.server_handle")
    span("uds.derive_key", "uds.derive_key", ("calls",))
    put("uds.handshake_sim_us", per_op(counts["uds.handshake_sim_us"]), "us/op")

    for key, label in (("build", "build_delta"), ("encode", "encode_package"),
                       ("decode", "decode_package"), ("apply", "apply_delta"),
                       ("program", "program_delta")):
        span(f"delta.{key}", f"delta.{label}", ("self_s",))
    put("delta.package_bytes", per_op(counts["delta.package_bytes"]), "B/op")
    put("delta.tuples", per_op(counts["delta.tuples"]), "count/op")

    span("bootflow.boot_decide", "bootflow.boot_decide")
    span("bootflow.bootloader_serve", "bootflow.bootloader_serve")
    span("bootflow.app_serve", "bootflow.app_serve", ("calls",))

    span("lka.pid_step", "lka.pid_step")

    span("orchestrator.campaign", "orchestrator.campaign", ("self_s",))
    put("orchestrator.command_retries",
        per_op(sum(r.command_retries for r in results)), "count/op")

    items = len(run.items)
    put("scenario.generate_image.self_s", inputs.self_s["scenario.generate_image"] / items, "s/op")
    put("scenario.mutate_blocks.self_s", inputs.self_s["scenario.mutate_blocks"] / items, "s/op")
    put("scenario.build_world.self_s", prepare.self_s["scenario.build_world"] / prepare.roots,
        "s/op")

    for layer in LAYERS:
        put(f"{layer}.self_s", per_op(op.layer_self_s(layer)), "s/op")
    put("trace.unattributed.self_s", per_op(op.unattributed_s), "s/op")
    put("trace.op_wall_s", per_op(sum(op.walls)), "s/op")
    put("trace.ops", n, "count")
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(op.walls)
    put("trace.untraced_op_wall_s.p50", untraced, "s")
    put("trace.traced_op_wall_s.p50", traced, "s")
    put("trace.overhead", traced / untraced, "ratio")
    return m


def accounting_gap(metrics: dict) -> float:
    """Layer self times + unattributed - traced op wall, per operation."""
    parts = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    return parts + metrics["trace.unattributed.self_s"]["value"] - metrics["trace.op_wall_s"]["value"]


# -- main ------------------------------------------------------------------------


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_fotasim()
    import workloads as wl_mod  # needs fotasim on the path
    args = parse_args(argv, sorted(wl_mod.WORKLOADS))
    prov = provenance()
    workload = wl_mod.WORKLOADS[args.workload]()

    # Set-up: fotasim's import in a fresh interpreter, and the fotasim calls
    # that draw the batch and provision every world; each is the median of
    # several tries in reference units.  Random pairs the benchmark draws
    # itself are data, not set-up.
    items = None if workload.draws_with_fotasim else workload.inputs(args.seed)

    def provision() -> float:
        nonlocal items
        if workload.draws_with_fotasim:
            items = None  # release the previous batch before drawing the next
        start = time.perf_counter()
        if workload.draws_with_fotasim:
            items = workload.inputs(args.seed)
        for item in items:
            workload.prepare(item)
        return time.perf_counter() - start

    imports = [in_reference_units(import_s) for _ in range(IMPORT_REPEATS)]
    provisions = [in_reference_units(provision) for _ in range(SETUP_REPEATS)]
    setup_s = (statistics.median(imports) + statistics.median(provisions)) * REFERENCE_S

    run = Run(workload, items)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "batch": len(items),
               "peak_rss_setup_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            metrics = traced_run(run, args.seed, deadline)
        else:
            run.passes(deadline, whole=False)
            metrics = end_to_end(run, setup_s)
            details.update(host_times(run))
            details.update(throughput(run))
    except wl_mod.Mismatch as exc:
        index = len(run.walls) % len(items)
        print(f"perfbench: {args.workload} seed {args.seed} operation {index} "
              f"(pass {len(run.walls) // len(items) + 1}): {exc}", file=sys.stderr)
        return 1
    except Exception:
        index = len(run.walls) % len(items)
        print(f"perfbench: {args.workload} seed {args.seed} operation {index} raised:",
              file=sys.stderr)
        traceback.print_exc()
        return 1

    if args.trace:
        gap = accounting_gap(metrics)
        details["accounting_gap_s_per_op"] = gap
        if abs(gap) > 1e-6 * metrics["trace.op_wall_s"]["value"]:
            print(f"perfbench: {args.workload} trace accounting: layer self times miss "
                  f"the traced operation time by {gap} s per operation", file=sys.stderr)
            return 1
    details.update(behaviour(run.first_pass))
    details["digest_baseline"] = baseline_note(args.workload, args.seed, "digests",
                                               details["digest"])
    share = {k: v for k, v in details["fail_share"].items() if k not in ("unit", "unexpected")}
    details["fail_share_baseline"] = baseline_note(args.workload, args.seed, "fail_share", share)
    details["passes"] = len(run.walls) / len(items)
    prov["loadavg_end"] = list(os.getloadavg())
    details["provenance"] = prov

    for name, entry in {**metrics, **details}.items():
        if isinstance(entry, dict) and "value" in entry:
            extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
            print(f"{name:36} {entry['value']:<14.6g} {entry['unit']:9} "
                  f"{json.dumps(extra) if extra else ''}".rstrip())
    print(f"{'digest':36} {details['digest']} ({details['digest_baseline']})")
    print(f"{'fail_share':36} {details['fail_share_baseline']}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": len(run.walls),
        "failed": sum(not r.expected for r in run.results),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(run: Run, seed: int, deadline: float) -> dict:
    import tracer as tracer_mod

    run.passes(0.0, whole=False)  # one untraced pass, for the overhead
    untraced_walls = list(run.walls)
    tracer = tracer_mod.Tracer()
    accounts = {k: tracer_mod.Account() for k in ("inputs", "prepare", "op", "verify")}
    tracer.install()
    try:
        tracer.run(accounts["inputs"], run.workload.inputs, seed)
        run.passes(deadline, whole=True,
                   call=lambda phase, fn, *args: tracer.run(accounts[phase], fn, *args))
    finally:
        tracer.uninstall()
    return per_layer(accounts, run, untraced_walls, len(untraced_walls))


if __name__ == "__main__":
    sys.exit(main())
