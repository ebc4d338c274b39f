"""Scenario assembly: canned two-node worlds for tests, demos and the CLI.

A scenario file is JSON with four optional sections::

    {
      "seed": 7,
      "bus": {"frame_time_us": 500, "corruption_probability": 0.01,
              "drop_probability": 0.0, "max_auto_retransmit": 3},
      "images": {
        "old": {"size": 131072, "seed": 11, "gains": [2.0, 0.1, 0.5]},
        "new": {"base": "old", "change_blocks": 24, "seed": 12,
                "block_range": [0, 128]}
      },
      "campaign": {"mode": "delta", "secret": "0x5EC10ACE",
                   "retry_budget": 3, "block_size": 1024, "gap_merge": 8},
      "lka": {"deviations": ["0.10\\n", "-0.02\\n"]}
    }

Counts are JSON integers and probabilities JSON numbers: a fraction, bool
or string in their place is an error.  ``max_auto_retransmit`` is a
non-negative integer, or ``null`` for no budget.  ``block_size`` is at most
0x10000 in delta mode and 65,528 in full mode, where a block rides in one
MEM_WRITE.

Images come either from disk (``{"path": "old.bin"}``, relative to the
scenario file) or from a seeded generator, so a scenario can be entirely
self-contained.  ``new`` may derive from ``old`` by rewriting a given
number of blocks with seeded random bytes.  No image may exceed the flash
device: a larger one is refused before it is generated or read in full.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

from .canbus import BusConfig
from .delta import MAX_BLOCK_SIZE
from .flashmodel import (APP_REGION, DEFAULT_UNLOCK_KEYS, LAYOUT, MASS_ERASE_APPLICATION,
                         FlashDevice)
from .integrity import DEFAULT_BLOCK_SIZE, block_count
from .lka import PidGains, pack_image, parse_gains
from .nvstore import APP_ENTER_REG, AppMetadata, BootFlag, fits, write_app_metadata
from .orchestrator import (DEFAULT_REQUEST_ID, DEFAULT_RESPONSE_ID, MASTER_NODE,
                           MAX_FULL_BLOCK_SIZE, TARGET_NODE, CampaignMode, CampaignPlan)
from .simruntime import Node, World

DEFAULT_SECRET = 0x5EC10ACE


class ScenarioError(ValueError):
    pass


def generate_image(size: int, seed: int, gains: PidGains | None = None) -> bytes:
    """Seeded pseudo-random firmware payload with an optional gains block."""
    if size < 1:
        raise ScenarioError("image size must be positive")
    raw = Random(seed).randbytes(size)
    if gains is None:
        return raw
    return pack_image(raw, gains)


def mutate_blocks(image: bytes, count: int, seed: int,
                  block_size: int = DEFAULT_BLOCK_SIZE,
                  block_range: tuple[int, int] | None = None) -> bytes:
    """Rewrite ``count`` distinct blocks with seeded random bytes, optionally
    confined to ``block_range`` (half-open, in block indices)."""
    total = block_count(len(image), block_size)
    lo, hi = block_range if block_range else (0, total)
    if not (0 <= lo < hi <= total):
        raise ScenarioError(f"block range [{lo}, {hi}) invalid for {total} blocks")
    if not 0 <= count <= hi - lo:
        raise ScenarioError(f"cannot rewrite {count} of the range's {hi - lo} blocks")
    rng = Random(seed)
    out = bytearray(image)
    for index in rng.sample(range(lo, hi), count):
        start = index * block_size
        end = min(start + block_size, len(image))
        out[start:end] = rng.randbytes(end - start)
    return bytes(out)


def provision_application(device: FlashDevice, image: bytes,
                          block_size: int = DEFAULT_BLOCK_SIZE) -> None:
    """Factory-flash an application plus matching metadata, then relock.
    The record's CRCs stay in :func:`~fotasim.integrity.image_crcs`'s memo,
    so the first boot's check of the image is one ``memcmp``.

    Setup helper: erases the application region first and clears the busy
    horizon afterwards, so provisioning never bleeds into simulated time.
    """
    if not fits(len(image), block_size):
        raise ScenarioError("image is empty or does not fit the application region beside its "
                            "metadata record")
    was_locked = device.locked
    if was_locked:
        device.unlock(*DEFAULT_UNLOCK_KEYS)
    device.erase_sectors(MASS_ERASE_APPLICATION)
    device.program(APP_REGION.start, image)
    write_app_metadata(device, AppMetadata.for_image(image, block_size))
    if was_locked:
        device.reset()
    device.busy_until_us = 0


def build_world(*, old_image: bytes, seed: int = 0,
                bus: BusConfig | None = None,
                secret: int = DEFAULT_SECRET,
                updater_image: bytes | None = None,
                deviation_lines=None,
                fault_hook=None,
                block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[World, Node, Node]:
    """Standard two-node world: one host master, one provisioned target that
    boots straight into its application."""
    config = bus or BusConfig(rng_seed=seed)
    world = World(config)
    master = world.add_node(MASTER_NODE, 1, role="host",
                            filters=((0x7FF, DEFAULT_RESPONSE_ID),))
    session_seed = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    target = world.add_node(TARGET_NODE, 2, role="ecu",
                            filters=((0x7FF, DEFAULT_REQUEST_ID),),
                            reply_id=DEFAULT_RESPONSE_ID,
                            shared_secret=secret,
                            session_seed=session_seed,
                            updater_image=updater_image,
                            deviation_feed=deviation_lines,
                            fault_hook=fault_hook)
    provision_application(target.device, old_image, block_size)
    target.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    return world, master, target


# -- JSON scenarios -----------------------------------------------------------


def parse_secret(raw) -> int:
    if type(raw) is int:
        return raw
    if isinstance(raw, str):
        try:
            return int(raw, 0)
        except ValueError:
            raise ScenarioError(f"secret {raw!r} is not a number") from None
    raise ScenarioError("secret must be an integer or a numeric string")


def load_scenario(path: str | Path) -> dict:
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ScenarioError("scenario root must be an object")
    if "images" not in spec:
        raise ScenarioError("scenario is missing its images section")
    spec["_dir"] = str(path.parent)
    return spec


def _section(spec: dict, name: str) -> dict:
    section = spec.get(name, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"{name} section must be an object")
    return section


def _count(section: dict, key: str, default: int | None, where: str = "") -> int:
    """``section[key]`` (``default`` if absent), which must be a JSON integer."""
    value = section.get(key, default)
    if type(value) is not int:
        raise ScenarioError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _within_device(length: int) -> int:
    """``length``, unless an image that long would not fit the flash device."""
    if length > LAYOUT.size:
        raise ScenarioError(f"an image is at most the flash device's {LAYOUT.size} bytes")
    return length


def _resolve_image(images: dict, name, base_dir: Path, resolved: dict[str, bytes],
                   block_size: int, deriving: tuple = ()) -> bytes:
    if name in deriving:
        raise ScenarioError(f"images.{name} derives from itself")
    if name in resolved:
        return resolved[name]
    entry = images.get(name)
    if not isinstance(entry, dict):
        raise ScenarioError(f"images.{name} missing or not an object")
    try:
        if "path" in entry:
            with open(base_dir / entry["path"], "rb") as file:
                data = file.read(LAYOUT.size + 1)  # enough to tell it is too large
            if not data:
                raise ScenarioError("the file is empty")
            _within_device(len(data))
        elif "base" in entry:
            base = _resolve_image(images, entry["base"], base_dir, resolved, block_size,
                                  deriving + (name,))
            bounds = entry.get("block_range")
            if bounds is not None and not (type(bounds) is list and len(bounds) == 2
                                           and all(type(bound) is int for bound in bounds)):
                raise ScenarioError(f"block_range must be two integers, got {bounds!r}")
            data = mutate_blocks(base, _count(entry, "change_blocks", 1), _count(entry, "seed", 0),
                                 block_size, bounds)
        elif "size" in entry:
            gains = entry.get("gains")
            if gains is not None and not (type(gains) is list and all(
                    type(gain) in (int, float) for gain in gains)):
                raise ScenarioError(f"gains must be a list of numbers, got {gains!r}")
            size = _within_device(_count(entry, "size", None))
            data = generate_image(size, _count(entry, "seed", 0),
                                  None if gains is None else parse_gains(gains))
        else:
            raise ScenarioError("needs a path, a size or a base")
    except (IndexError, OSError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad images.{name}: {exc}") from exc
    resolved[name] = data
    return data


def world_from_scenario(spec: dict, seed_override: int | None = None
                        ) -> tuple[World, CampaignPlan]:
    """Build a runnable world plus its campaign plan from a scenario dict."""
    bus_spec, campaign = _section(spec, "bus"), _section(spec, "campaign")
    retransmit = bus_spec.get("max_auto_retransmit", BusConfig.max_auto_retransmit)
    seed = _count(spec, "seed", 0) if seed_override is None else seed_override
    frame_time_us = _count(bus_spec, "frame_time_us", BusConfig.frame_time_us, "bus.")
    block_size = _count(campaign, "block_size", DEFAULT_BLOCK_SIZE, "campaign.")
    retry_budget = _count(campaign, "retry_budget", CampaignPlan.retry_budget, "campaign.")
    gap_merge = _count(campaign, "gap_merge", CampaignPlan.gap_merge, "campaign.")
    if block_size < 1 or gap_merge < 0 or retry_budget < 0:
        raise ScenarioError("campaign.block_size must be positive, gap_merge and retry_budget >= 0")
    corrupt, drop = (bus_spec.get(k, 0.0) for k in ("corruption_probability", "drop_probability"))
    try:
        if not all(type(p) in (int, float) for p in (corrupt, drop)):
            raise ValueError(f"corruption and drop probabilities {corrupt!r} and {drop!r} "
                             "must be JSON numbers")
        # BusConfig checks the frame time, the budget and the probabilities' range.
        config = BusConfig(frame_time_us, float(corrupt), float(drop), seed, retransmit)
    except OverflowError:  # an integer too large for a float
        raise ScenarioError("bus: corruption and drop probabilities must sum to at most 1"
                            ) from None
    except ValueError as exc:
        raise ScenarioError(f"bus: {exc}") from None
    mode_raw = campaign.get("mode", "delta")
    try:
        mode = CampaignMode(mode_raw)
    except ValueError:
        raise ScenarioError(f"campaign.mode {mode_raw!r} unknown") from None
    most = MAX_BLOCK_SIZE if mode is CampaignMode.DELTA else MAX_FULL_BLOCK_SIZE
    if block_size > most:
        raise ScenarioError(f"campaign.block_size {block_size} exceeds {most} in {mode.value} mode")
    secret = parse_secret(campaign.get("secret", DEFAULT_SECRET))

    images = _section(spec, "images")
    base_dir = Path(spec.get("_dir", "."))
    resolved: dict[str, bytes] = {}
    old_image = _resolve_image(images, "old", base_dir, resolved, block_size)
    new_image = _resolve_image(images, "new", base_dir, resolved, block_size)

    deviations = _section(spec, "lka").get("deviations")
    if deviations is not None and not (isinstance(deviations, list)
                                       and all(isinstance(line, str) for line in deviations)):
        raise ScenarioError("lka.deviations must be a list of strings")

    world, _, _ = build_world(
        old_image=old_image, seed=seed, bus=config, secret=secret,
        deviation_lines=deviations, block_size=block_size,
    )
    plan = CampaignPlan(mode=mode, old_image=old_image, new_image=new_image,
                        shared_secret=secret, retry_budget=retry_budget,
                        block_size=block_size, gap_merge=gap_merge)
    return world, plan
