"""Golden traces: five pinned scenarios must replay to the recorded bytes.

Each scenario runs through the whole stack and is pinned by the sha256 and
byte length of its event log, its frame trace and its report; a scenario
that ends in a steering soak also pins the controller state it reached.
Criterion 11 only compares two runs of the same build with each other; these
digests also catch a change that alters behaviour the same way in every run.

They change only with a change that means to alter behaviour.  Print the
current digests with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fotasim
from fotasim.bootflow import InjectedFault
from fotasim.canbus import BusConfig
from fotasim.flashmodel import DEFAULT_UNLOCK_KEYS, REGION_BOOTLOADER
from fotasim.lka import PidGains
from fotasim.nvstore import APP_ENTER_REG, UPDATER_ENTER_REG, BootFlag
from fotasim.orchestrator import CampaignMode, CampaignPlan, run_campaign
from fotasim.scenario import DEFAULT_SECRET, build_world, generate_image, mutate_blocks
from fotasim.simruntime import World

KIB = 1024


def _campaign(mode, *, size, changed, seed, bus=None, secret=DEFAULT_SECRET, **plan):
    old = generate_image(size, seed=seed, gains=PidGains())
    new = mutate_blocks(old, count=changed, seed=seed + 1)
    world, _, _ = build_world(old_image=old, seed=seed, bus=bus)
    world.bus.trace_enabled = True
    report = run_campaign(world, CampaignPlan(mode=mode, old_image=old, new_image=new,
                                              shared_secret=secret, **plan))
    return world, report


def full_clean():
    return _campaign(CampaignMode.FULL, size=16 * KIB, changed=3, seed=21)


def delta_lossy():
    bus = BusConfig(corruption_probability=0.02, rng_seed=22)
    return _campaign(CampaignMode.DELTA, size=32 * KIB, changed=6, seed=22, bus=bus)


def wrong_secret():
    return _campaign(CampaignMode.DELTA, size=8 * KIB, changed=2, seed=23,
                     secret=DEFAULT_SECRET ^ 1)


def updater_rollback():
    """The target boots into the silent updater, which faults while
    programming and restores the old bootloader; a campaign then finds the
    bootloader deaf to the application's drop command."""

    def hook(step):
        if step == "program":
            raise InjectedFault(step)

    old = generate_image(8 * KIB, seed=24, gains=PidGains())
    world, _, target = build_world(old_image=old, seed=24,
                                   updater_image=generate_image(6 * KIB, seed=25),
                                   fault_hook=hook)
    world.bus.trace_enabled = True
    device = target.device
    region = device.layout.region(REGION_BOOTLOADER)
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    device.program(region.start, b"OLD-BOOTLOADER!!" * 256)
    device.reset()
    device.busy_until_us = 0
    target.regs.write_flag(APP_ENTER_REG, BootFlag.NOT_ENTER)
    target.regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
    world.run_ticks(1500)
    report = run_campaign(world, CampaignPlan(
        mode=CampaignMode.DELTA, old_image=old, new_image=mutate_blocks(old, 1, seed=26),
        shared_secret=DEFAULT_SECRET, command_deadline_us=50_000))
    return world, report


def full_soak():
    """A full campaign, then 2 s of the updated application steering on a
    deviation feed that carries one malformed line."""
    old = generate_image(16 * KIB, seed=27, gains=PidGains())
    new = mutate_blocks(old, count=3, seed=28)
    feed = ["0.10\n"] * 300 + ["0.1\n"] + ["-0.12\n"] * 5000
    world, _, target = build_world(old_image=old, seed=27, deviation_lines=feed)
    world.bus.trace_enabled = True
    report = run_campaign(world, CampaignPlan(mode=CampaignMode.FULL, old_image=old,
                                              new_image=new, shared_secret=DEFAULT_SECRET))
    world.run_ticks(2000)
    return world, report, f"{target.steering!r} motor={target.motor}"


SCENARIOS = {
    "full-clean": full_clean,
    "full-soak": full_soak,
    "delta-lossy": delta_lossy,
    "updater-rollback": updater_rollback,
    "wrong-secret": wrong_secret,
}


def digests(name: str) -> dict[str, list]:
    world, report, *steering = SCENARIOS[name]()
    out = {}
    parts = [("events", world.events_jsonl()),
             ("frames", world.frames_csv()),
             ("report", report.to_json())]
    for part, text in parts + [("steering", text) for text in steering]:
        blob = text.encode()
        out[part] = [hashlib.sha256(blob).hexdigest(), len(blob)]
    return out


GOLDEN = {
    "delta-lossy": {
        "events": ["4e79af5b506faf0c2ac005a530a7a5a2ea64eb5b5ae6a3815ccc69aedfe32904", 999],
        "frames": ["cec2ef10ebbdabece2d61e8bbc504773bca65379ff00f9cb54fb2e7aa9200505", 32887],
        "report": ["28dfc481e2fe826d88ba8b9bde58c5b4afe7f3a6c81d78497a244e265623deab", 424],
    },
    "full-clean": {
        "events": ["22e20c6b0fdb6c603b1c53a8ae2ce20cea086ae5fef7c0898ed1b732414ee8b8", 984],
        "frames": ["bd34d74dfb5088831a3d42e713727c67240ed1f7cd401ce2bc5c1f61de2b827c", 88184],
        "report": ["74f94bdffedc0fcc784a985d676c1fc50d07109f0bea36eb5f3db272c2e14554", 425],
    },
    "full-soak": {
        "events": ["22201bc7eb0978142fe960b639a63aa05a226b9150857dd73d8e4ad0b4a2414f", 1068],
        "frames": ["48bbcb4a319d10cc42be8d1387cb1bf8501b95645d6fa7953cac165f222a582a", 88184],
        "report": ["390250e7baf3659ba88cdc786feb50ffa06e3f21b817a9c7993ded3e94c2b62d", 425],
        "steering": ["2256a2b897adbdcf415476dc0322ee4ead5abe407a0ade0704c37e28a17395c7", 115],
    },
    "updater-rollback": {
        "events": ["46d443753b521f976e6a3337c42fe524468c1669dc42b474eaf2f13a6d6c5aba", 1096],
        "frames": ["558cd591b12f1a5dc4bcbaae12a71ae3e7d475691856af032c50fc9f5f4a6610", 681],
        "report": ["df92ed03037ddc9c3b54d074bc85281acd0b146ac0be66ecc618dab1277e5f19", 431],
    },
    "wrong-secret": {
        "events": ["cd675b149bcf0d98aca18244e3fda1d74e154e30a709baa77e8b5fd2cd0ba8f2", 265],
        "frames": ["88c1950884b18035f4dff862c926513ea844eda51aa89c4be6f0daf770072bdd", 410],
        "report": ["932f536dd08df753b8423360cb760b369e243a0c48e85aa6e6ff2efebacc767e", 419],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_its_golden_digests(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_its_golden_digests_tick_by_tick(name, monkeypatch):
    """Spans must replay exactly what one tick at a time does."""
    def one_tick(world, budget):
        world.tick()
        return 1

    monkeypatch.setattr(World, "_advance", one_tick)
    assert digests(name) == GOLDEN[name]


def test_golden_replay_is_independent_of_hash_seed():
    src = str(Path(fotasim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run([sys.executable, __file__, "wrong-secret"], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == {"wrong-secret": GOLDEN["wrong-secret"]}


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(SCENARIOS)
    print(json.dumps({name: digests(name) for name in names}, indent=2))
