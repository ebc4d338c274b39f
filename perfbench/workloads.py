"""The benchmark's three workloads, drawn from a seed.

Each workload turns ``(seed)`` into one fixed batch of operations (a pass).
The batch's shape (image sizes, changed-block counts, mutation rates) is the
same for every seed, so host figures from different seeds compare; the seed
draws the bytes, where they change and the bus's fault lottery.  A run
repeats the batch; every pass replays it exactly, so the simulated
statistics and the behaviour digest are taken from the first pass and later
passes must reproduce each operation's digest.

An operation goes through three steps, and only ``execute`` is timed:

* ``prepare`` builds what the operation needs (a provisioned world);
* ``execute`` is the operation the simulator's user waits for;
* ``verify`` checks the outputs and condenses them into an :class:`OpResult`,
  raising :class:`Mismatch` when an output is wrong.

A campaign is expected to succeed, except one that ships a package past the
known ~5,000-frame limit, which is expected to fail as ``delta_refused``
(or to succeed, once that defect is fixed).  Any other failed campaign is a
failed operation: a :class:`Mismatch` on the clean bus of ``full-clean``,
and ``OpResult.expected`` false on the lossy bus of ``delta-lossy``.

fotasim receives only the images and configs generated here.  Its functions
are called through the package (``fotasim.run_campaign``), never through a
local binding, so that a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from random import Random

import fotasim
import fotasim.lka
from fotasim import BusConfig, CampaignMode, CampaignPlan, PidGains
from fotasim.flashmodel import KIB, REGION_APPLICATION
from fotasim.scenario import DEFAULT_SECRET

# full-clean: the criterion-01 shape, then a steering soak.
FULL_BATCH = 20
FULL_IMAGE_BYTES = 128 * KIB
FULL_CHANGED_BLOCKS = 24
SOAK_TICKS = 5000  # 5 simulated seconds at the 1 ms base tick
SOAK_DEVIATION = "0.10\n"  # 0.10 m maps to a 6 degree steering target
SOAK_TARGET_DEG = 6.0
SOAK_TOLERANCE_DEG = 0.5
STOCK_GAINS = PidGains()

# delta-lossy: 7 image sizes x 6 changed-block counts (1-30 blocks), the
# changes confined to one sector in a checkerboard half of them, plus one
# campaign in eight that ships a package past the ~5,000-frame limit (36-40
# scattered blocks on 200-240 KiB images).  Counts 31-35 are left out so
# that corruption cannot push a draw across the limit in one run and not the
# next.
LOSSY_SIZES = 7
LOSSY_COUNTS = 6
LOSSY_OVER_LIMIT = 6
LOSSY_CORRUPTION = 0.02
LOSSY_MIN_BYTES = 64 * KIB
LOSSY_MAX_BYTES = 240 * KIB
LOSSY_MAX_BLOCKS = 30
LOSSY_OVER_MIN_BYTES = 200 * KIB
LOSSY_OVER_BLOCKS = (36, 37, 38, 39, 40)
SECTOR_BLOCKS = 128  # the application region's first two sectors hold 128 KiB each
KNOWN_DEFECT_REASON = "delta_refused"  # how a package past the frame limit fails

# delta-tool: offline pairs drawn like criterion 02 on a grid of 12 sizes
# (1-240 KiB) x 10 mutation rates (0-100%); one pair in five changes length.
TOOL_SIZES = 12
TOOL_RATES = 10
TOOL_MIN_BYTES = 1 * KIB
TOOL_MAX_BYTES = 240 * KIB
TOOL_MAX_RUN = 512


class Mismatch(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class OpResult:
    digest: bytes
    expected: bool = True  # outcome is success, or the known defect where it applies
    outcome: str = "success"
    reason: str | None = None
    sim_us: int = 0
    campaign_us: int = 0
    campaign_frames: int = 0
    frames: int = 0
    error_frames: int = 0
    retransmissions: int = 0
    bus_off: int = 0
    command_retries: int = 0
    new_bytes: int = 0


def _levels(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced values from ``lo`` to ``hi`` inclusive."""
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


# -- campaign workloads ---------------------------------------------------------


@dataclass(frozen=True)
class CampaignInput:
    old: bytes
    new: bytes
    bus_seed: int
    over_limit: bool = False  # package past the known frame limit


class _CampaignWorkload:
    mode: CampaignMode
    corruption = 0.0
    soak = False
    draws_with_fotasim = True  # generate_image and mutate_blocks draw the batch

    def prepare(self, item: CampaignInput):
        feed = itertools.repeat(SOAK_DEVIATION) if self.soak else None
        world, _, target = fotasim.build_world(
            old_image=item.old, seed=item.bus_seed,
            bus=BusConfig(corruption_probability=self.corruption, rng_seed=item.bus_seed),
            deviation_lines=feed)
        plan = CampaignPlan(mode=self.mode, old_image=item.old, new_image=item.new,
                            shared_secret=DEFAULT_SECRET)
        return world, target, plan

    def execute(self, state):
        world, _, plan = state
        report = fotasim.run_campaign(world, plan)
        if self.soak and report.success:
            world.run_ticks(SOAK_TICKS)
        return report

    def verify(self, item: CampaignInput, state, report) -> OpResult:
        world, target, _ = state
        soak = b""
        if report.success:
            app = target.device.layout.region(REGION_APPLICATION)
            flashed, _ = target.device.read(app.start, len(item.new))
            if flashed != item.new:
                raise Mismatch("image read back from target flash differs from the new image")
            decisions = [e["decision"] for e in world.events
                         if e["node"] == target.name and e["event"] == "Decision"]
            if not decisions or decisions[-1] != "jump_application":
                raise Mismatch(f"target's last boot decision is {decisions[-1:]}, "
                               "not jump_application")
            if self.soak:
                angle = target.steering.position
                if abs(angle - SOAK_TARGET_DEG) > SOAK_TOLERANCE_DEG:
                    raise Mismatch(f"soak ended at {angle:.3f} deg, outside "
                                   f"{SOAK_TARGET_DEG} +/- {SOAK_TOLERANCE_DEG}")
                soak = repr(angle).encode()
        expected = report.success or (item.over_limit and report.reason == KNOWN_DEFECT_REASON)
        if not expected and not self.corruption:
            raise Mismatch(f"campaign on a clean bus failed: {report.reason}")
        digest = hashlib.sha256()
        digest.update(report.to_json().encode())
        digest.update(world.events_jsonl().encode())
        digest.update(soak)
        stats = world.bus.stats
        return OpResult(
            digest=digest.digest(),
            expected=expected,
            outcome=report.outcome,
            reason=report.reason,
            sim_us=world.clock_us,
            campaign_us=report.total_duration_us,
            campaign_frames=report.frames_sent,
            frames=stats.frames_sent,
            error_frames=stats.corrupted,
            retransmissions=stats.retransmissions,
            bus_off=stats.bus_off_events,
            command_retries=report.retransmissions - stats.retransmissions,
            new_bytes=len(item.new),
        )


class FullClean(_CampaignWorkload):
    name = "full-clean"
    mode = CampaignMode.FULL
    soak = True

    def inputs(self, seed: int) -> list[CampaignInput]:
        rng = Random(f"{self.name}/{seed}")
        items = []
        for _ in range(FULL_BATCH):
            old = fotasim.generate_image(FULL_IMAGE_BYTES, rng.randrange(1 << 32), STOCK_GAINS)
            # Re-embed the gains in case the mutation hit the parameter block,
            # so the soak runs the stock controller.
            mutated = fotasim.mutate_blocks(old, FULL_CHANGED_BLOCKS, rng.randrange(1 << 32))
            new = fotasim.lka.pack_image(mutated, STOCK_GAINS)
            items.append(CampaignInput(old, new, rng.randrange(1 << 32)))
        return items


class DeltaLossy(_CampaignWorkload):
    name = "delta-lossy"
    mode = CampaignMode.DELTA
    corruption = LOSSY_CORRUPTION

    def inputs(self, seed: int) -> list[CampaignInput]:
        rng = Random(f"{self.name}/{seed}")
        draws = []
        sizes = _levels(LOSSY_MIN_BYTES, LOSSY_MAX_BYTES, LOSSY_SIZES)
        counts = _levels(1, LOSSY_MAX_BLOCKS, LOSSY_COUNTS)
        for r, size in enumerate(sizes):
            for c, count in enumerate(counts):
                draws.append((int(size), round(count), (r + c) % 2 == 0, False))
        over = _levels(LOSSY_OVER_MIN_BYTES, LOSSY_MAX_BYTES, LOSSY_OVER_LIMIT)
        for k, size in enumerate(over):
            draws.append((int(size), LOSSY_OVER_BLOCKS[k % len(LOSSY_OVER_BLOCKS)], False, True))
        rng.shuffle(draws)

        items = []
        for size, count, in_sector, over_limit in draws:
            old = fotasim.generate_image(size, rng.randrange(1 << 32))
            blocks = -(-size // KIB)
            block_range = None
            if in_sector:
                # All changed blocks inside one flash sector.
                if blocks - SECTOR_BLOCKS >= count and rng.random() < 0.5:
                    block_range = (SECTOR_BLOCKS, blocks)
                else:
                    block_range = (0, min(SECTOR_BLOCKS, blocks))
            new = fotasim.mutate_blocks(old, count, rng.randrange(1 << 32), block_range=block_range)
            items.append(CampaignInput(old, new, rng.randrange(1 << 32), over_limit))
        return items


# -- offline delta tool --------------------------------------------------------------


@dataclass(frozen=True)
class PairInput:
    old: bytes
    new: bytes


class DeltaTool:
    name = "delta-tool"
    draws_with_fotasim = False  # the pairs are the benchmark's own random bytes

    def inputs(self, seed: int) -> list[PairInput]:
        rng = Random(f"{self.name}/{seed}")
        sizes = _levels(TOOL_MIN_BYTES, TOOL_MAX_BYTES, TOOL_SIZES)
        shape = []
        for r, size in enumerate(sizes):
            for c, rate in enumerate(_levels(0.0, 1.0, TOOL_RATES)):
                # Two rates in ten per size change length, to the mirrored size.
                new_size = sizes[-1 - r] if c % 5 == r % 5 else size
                shape.append((int(size), int(new_size), rate))
        rng.shuffle(shape)
        items = []
        for old_size, new_size, rate in shape:
            old = rng.randbytes(old_size)
            new = bytearray(old[:new_size])
            if len(new) < new_size:
                new += rng.randbytes(new_size - len(new))
            budget = int(rate * new_size)
            while budget > 0:
                pos = rng.randrange(new_size)
                run = min(budget, rng.randint(1, TOOL_MAX_RUN), new_size - pos)
                new[pos : pos + run] = rng.randbytes(run)
                budget -= run
            items.append(PairInput(old, bytes(new)))
        return items

    def prepare(self, item: PairInput) -> PairInput:
        return item

    def execute(self, item: PairInput):
        blob = fotasim.encode_package(fotasim.build_delta(item.old, item.new))
        return blob, fotasim.apply_delta(item.old, fotasim.decode_package(blob))

    def verify(self, item: PairInput, state, output) -> OpResult:
        blob, rebuilt = output
        if rebuilt != item.new:
            raise Mismatch("delta round trip did not rebuild the new image bit-exact")
        digest = hashlib.sha256()
        for part in (item.old, item.new, blob):
            digest.update(len(part).to_bytes(4, "little"))
            digest.update(part)
        return OpResult(digest=digest.digest(), new_bytes=len(item.new))


WORKLOADS = {w.name: w for w in (FullClean, DeltaLossy, DeltaTool)}
