"""Command line front end.

Machine-readable results (JSON, digests, reports) go to stdout; progress and
summaries go to stderr, so pipelines can capture the one without the other.
Exit codes: 0 success, 1 operation failed (a JSON error object is printed),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .delta import DEFAULT_GAP_MERGE, DeltaError, apply_delta, build_delta, decode_package, encode_package
from .integrity import DEFAULT_BLOCK_SIZE, block_count, crc32
from .lka import PidGains, pack_image, parse_gains
from .nvstore import APP_CAPACITY
from .orchestrator import run_campaign
from .scenario import (
    DEFAULT_SECRET,
    ScenarioError,
    load_scenario,
    parse_secret,
    world_from_scenario,
)


class CliError(Exception):
    """Operation-level failure: reported as JSON on stdout, exit code 1."""


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(str(exc)) from exc


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise CliError(str(exc)) from exc


def _cmd_crc(args) -> int:
    data = _read(args.file)
    print(f"{crc32(data):08X}")
    return 0


def _parse_gains(raw: str) -> PidGains:
    try:
        return parse_gains(raw.split(","))
    except ValueError as exc:
        raise CliError(f"bad gains: {exc}") from exc


def _cmd_image_pack(args) -> int:
    raw = _read(args.raw)
    gains = _parse_gains(args.gains) if args.gains else PidGains()
    image = pack_image(raw, gains)
    _write(args.output, image)
    print(json.dumps({
        "length": len(image),
        "crc32": f"{crc32(image):08X}",
        "gains": [gains.kp, gains.ki, gains.kd],
    }, sort_keys=True))
    return 0


def _cmd_delta_build(args) -> int:
    old = _read(args.old)
    new = _read(args.new)
    try:
        package = build_delta(old, new, args.block_size, args.gap_merge)
    except (DeltaError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    blob = encode_package(package)
    _write(args.output, blob)
    print(json.dumps({
        "package_bytes": len(blob),
        "new_image_bytes": len(new),
        "blocks_changed": len(package.entries),
        "blocks_total": block_count(len(new), args.block_size),
        "payload_bytes": package.payload_bytes(),
    }, sort_keys=True))
    return 0


def _cmd_delta_apply(args) -> int:
    base = _read(args.base)
    try:
        package = decode_package(_read(args.package))
        if package.new_image_length > APP_CAPACITY:  # checked before apply_delta pads a stage
            raise CliError(f"package declares a {package.new_image_length}-byte image; "
                           f"the application region holds at most {APP_CAPACITY} bytes")
        new_image = apply_delta(base, package)
    except (DeltaError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    _write(args.output, new_image)
    print(json.dumps({
        "length": len(new_image),
        "crc32": f"{crc32(new_image):08X}",
    }, sort_keys=True))
    return 0


def _cmd_uds_demo(args) -> int:
    # Local imports: the demo wires a one-off world, the other commands don't
    # need any of this machinery.
    from .canbus import BusConfig
    from .orchestrator import DEFAULT_REQUEST_ID
    from .scenario import build_world
    from .simruntime import Task, TaskPriority
    from .uds import UnlockOutcome, client_unlock

    try:
        secret = parse_secret(args.secret)
    except ScenarioError as exc:
        raise CliError(str(exc)) from exc
    world, master, target = build_world(
        old_image=b"\x00" * 1024, seed=args.seed,
        bus=BusConfig(rng_seed=args.seed), secret=secret,
    )
    # Boot into the bootloader: the demo talks 0x27 to it directly.
    target.regs.clear()
    world.bus.trace_enabled = True

    # The handshake's own deadline ends it well inside the tick budget.
    task = Task("demo", TaskPriority.APP, client_unlock(
        world.bus, master.endpoint, DEFAULT_REQUEST_ID, secret, now=lambda: world.clock_us))
    master.add_task(task)
    world.run_until(lambda w: task.done, max_ticks=20_000)
    result = task.result

    for frame in world.bus.trace:
        print(f"{frame['time_us']:>10} us  id={frame['id']}  "
              f"[{frame['data']}]  {frame['kind']}", file=sys.stderr)
    print(json.dumps({
        "outcome": result.outcome.value,
        "nrc": result.nrc,
        "duration_us": result.duration_us,
    }, sort_keys=True))
    return 0 if result.outcome is UnlockOutcome.GRANTED else 1


def _cmd_sim_run(args) -> int:
    path = Path(args.scenario)
    if not path.is_file():
        # A missing scenario is a usage error, same class as a bad flag.
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        return 2
    try:
        spec = load_scenario(path)
        world, plan = world_from_scenario(spec, args.seed)
    except ScenarioError as exc:
        raise CliError(str(exc)) from exc

    if args.trace:
        world.bus.trace_enabled = True

    report = run_campaign(world, plan)
    print(f"{plan.mode.value} campaign: {report.outcome}"
          + (f" ({report.reason})" if report.reason else "")
          + f", {report.frames_sent} frames, "
          f"{report.total_duration_us} us simulated", file=sys.stderr)

    if args.trace:
        trace_dir = Path(args.trace)
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / "events.jsonl").write_text(world.events_jsonl())
            (trace_dir / "frames.csv").write_text(world.frames_csv())
        except OSError as exc:
            raise CliError(f"cannot write trace: {exc}") from exc
        print(f"trace written to {trace_dir}", file=sys.stderr)

    print(report.to_json())
    return 0 if report.success else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fotasim",
        description="Deterministic firmware-update simulator for a CAN-connected ECU.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_crc = sub.add_parser("crc", help="print a file's CRC-32/MPEG-2 as 8 hex digits")
    p_crc.add_argument("file")
    p_crc.set_defaults(func=_cmd_crc)

    p_image = sub.add_parser("image", help="firmware image utilities")
    image_sub = p_image.add_subparsers(dest="image_command", required=True)
    p_pack = image_sub.add_parser("pack", help="embed steering gains into a raw payload")
    p_pack.add_argument("raw")
    p_pack.add_argument("-o", "--output", required=True)
    p_pack.add_argument("--gains", metavar="KP,KI,KD")
    p_pack.set_defaults(func=_cmd_image_pack)

    p_delta = sub.add_parser("delta", help="build or apply block-delta packages")
    delta_sub = p_delta.add_subparsers(dest="delta_command", required=True)
    p_build = delta_sub.add_parser("build", help="diff two images into a package")
    p_build.add_argument("old")
    p_build.add_argument("new")
    p_build.add_argument("-o", "--output", required=True)
    p_build.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    p_build.add_argument("--gap-merge", type=int, default=DEFAULT_GAP_MERGE)
    p_build.set_defaults(func=_cmd_delta_build)
    p_apply = delta_sub.add_parser("apply", help="patch a base image with a package")
    p_apply.add_argument("base")
    p_apply.add_argument("package")
    p_apply.add_argument("-o", "--output", required=True)
    p_apply.set_defaults(func=_cmd_delta_apply)

    p_uds = sub.add_parser("uds", help="security-access utilities")
    uds_sub = p_uds.add_subparsers(dest="uds_command", required=True)
    p_demo = uds_sub.add_parser("demo", help="run one seed/key handshake on a demo bus")
    p_demo.add_argument("--secret", default=hex(DEFAULT_SECRET))
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_uds_demo)

    p_sim = sub.add_parser("sim", help="full-campaign simulation")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)
    p_run = sim_sub.add_parser("run", help="run a JSON scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--trace", metavar="DIR",
                       help="write events.jsonl and frames.csv to DIR")
    p_run.set_defaults(func=_cmd_sim_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
