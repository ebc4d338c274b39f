"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
test states its tolerance and wall-clock budget inline and fails loudly if
either is missed.
"""

import json
import time
from random import Random

from conftest import crc32_bitwise

from fotasim.bootflow import (
    BootDecision,
    EcuContext,
    InjectedFault,
    UpdaterStatus,
    boot_decide,
    updater_silent,
)
from fotasim.canbus import BusConfig
from fotasim.cli import main as cli_main
from fotasim.delta import apply_delta, build_delta
from fotasim.flashmodel import (
    DEFAULT_UNLOCK_KEYS,
    ERASED_BYTE,
    KIB,
    MASS_ERASE_APPLICATION,
    FlashDevice,
    LockedDevice,
    ProgramOnNonErased,
)
from fotasim.integrity import crc32
from fotasim.lka import PidGains, simulate
from fotasim.nvstore import APP_ENTER_REG, UPDATER_ENTER_REG, BackupRegisters, BootFlag
from fotasim.orchestrator import (
    CampaignMode,
    CampaignPlan,
    reduction_ratio,
    run_campaign,
    start_campaign,
)
from fotasim.scenario import (
    DEFAULT_SECRET,
    build_world,
    generate_image,
    mutate_blocks,
    provision_application,
)
from fotasim.simruntime import Task, TaskPriority
from fotasim.uds import KEY_LENGTH, SecuritySession, client_unlock, derive_key, server_handle


def check(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status} ({detail})"
    print(line, flush=True)
    assert ok, line


def timed(t0, budget_s):
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed < budget_s


def delta_plan(old, new, **overrides):
    fields = dict(mode=CampaignMode.DELTA, old_image=old, new_image=new,
                  shared_secret=DEFAULT_SECRET)
    fields.update(overrides)
    return CampaignPlan(**fields)


def app_readback(target, length):
    app = target.device.layout.region("application")
    data, _ = target.device.read(app.start, length, target.world.clock_us)
    return data


def test_criterion_01_delta_beats_full():
    # 128 KiB pair, 24 of 128 blocks changed, all inside one flash sector.
    # Requires reduction_ratio >= 0.5 and delta bytes <= 0.35 x full bytes;
    # each campaign under 10 s of wall clock.
    old = generate_image(128 * KIB, seed=41)
    new = mutate_blocks(old, count=24, seed=42, block_range=(0, 128))

    t0 = time.perf_counter()
    world_full, _, _ = build_world(old_image=old, seed=41)
    full = run_campaign(world_full, delta_plan(old, new, mode=CampaignMode.FULL))
    full_elapsed, full_in_time = timed(t0, 10.0)

    t0 = time.perf_counter()
    world_delta, _, _ = build_world(old_image=old, seed=41)
    delta = run_campaign(world_delta, delta_plan(old, new))
    delta_elapsed, delta_in_time = timed(t0, 10.0)

    ratio = reduction_ratio(delta, full)
    bytes_ratio = delta.bytes_on_bus / full.bytes_on_bus
    ok = (full.success and delta.success and ratio >= 0.5
          and bytes_ratio <= 0.35 and full_in_time and delta_in_time)
    check(1, "delta campaign beats full", ok,
          f"reduction={ratio:.4f} (>=0.5), bytes={bytes_ratio:.4f} (<=0.35), "
          f"wall {full_elapsed:.1f}s/{delta_elapsed:.1f}s (<10s each)")


def test_criterion_02_delta_round_trip():
    # 1000 random pairs, 1 KiB..128 KiB, mutation rates 0..100%, bit-exact
    # reconstruction, under 30 s.
    rng = Random(0xD417A)
    t0 = time.perf_counter()
    for i in range(1000):
        old_size = rng.randrange(KIB, 128 * KIB + 1)
        new_size = old_size if rng.random() < 0.8 else rng.randrange(KIB, 128 * KIB + 1)
        old = rng.randbytes(old_size)
        new = bytearray(old[:new_size])
        if len(new) < new_size:
            new += rng.randbytes(new_size - len(new))
        budget = int(rng.random() * new_size)
        while budget > 0:
            pos = rng.randrange(new_size)
            run = min(budget, rng.randint(1, 512), new_size - pos)
            new[pos : pos + run] = rng.randbytes(run)
            budget -= run
        new = bytes(new)
        rebuilt = apply_delta(old, build_delta(old, new))
        if rebuilt != new:
            check(2, "delta round trip", False, f"pair {i} diverged")
    elapsed, in_time = timed(t0, 30.0)
    check(2, "delta round trip", in_time,
          f"1000/1000 pairs bit-exact, wall {elapsed:.1f}s (<30s)")


def test_criterion_03_security_access_conformance():
    # 100/100 granted handshakes over a lossless bus, plus exact negative
    # response bytes for the three canonical failures.  The reference
    # hardware took 4.2 s per handshake; the simulated time is reported but
    # not matched.
    image = generate_image(2 * KIB, seed=1)
    granted = 0
    durations = []
    for seed in range(100):
        world, master, _ = build_world(old_image=image, seed=seed)
        results = []

        def handshake(w=world, m=master, out=results):
            result = yield from client_unlock(
                w.bus, m.endpoint, 0x101, DEFAULT_SECRET, lambda: w.clock_us)
            out.append(result)

        master.add_task(Task("unlock", TaskPriority.APP, handshake()))
        world.run_until(lambda w: bool(results), max_ticks=5000)
        if results and results[0].granted:
            granted += 1
            durations.append(results[0].duration_us)

    session = SecuritySession(DEFAULT_SECRET, rng_seed=5)
    server_handle(session, bytes([0x27, 0x01]), 0)
    wrong = server_handle(session, bytes([0x27, 0x02]) + bytes(KEY_LENGTH), 0)
    fresh = SecuritySession(DEFAULT_SECRET, rng_seed=5)
    premature = server_handle(fresh, bytes([0x27, 0x02]) + bytes(KEY_LENGTH), 0)
    third = SecuritySession(DEFAULT_SECRET, rng_seed=5)
    for _ in range(3):
        server_handle(third, bytes([0x27, 0x01]), 0)
        reply = server_handle(third, bytes([0x27, 0x02]) + bytes(KEY_LENGTH), 0)

    ok = (granted == 100
          and wrong == bytes([0x7F, 0x27, 0x35])
          and premature == bytes([0x7F, 0x27, 0x24])
          and reply == bytes([0x7F, 0x27, 0x36]))
    mean_ms = sum(durations) / len(durations) / 1000 if durations else 0
    check(3, "security access conformance", ok,
          f"granted {granted}/100, NRCs 35/24/36 exact, "
          f"mean handshake {mean_ms:.1f} ms simulated (hardware: 4200 ms, reported only)")


def test_criterion_04_boot_decision_table():
    # All 8 integrity x app-flag x updater-flag combinations, including the
    # flag reset on the bootloader path.  Exhaustive, under 1 s.
    t0 = time.perf_counter()
    failures = []
    for intact in (False, True):
        for app_flag in (False, True):
            for upd_flag in (False, True):
                device = FlashDevice()
                if intact:
                    provision_application(device, generate_image(2 * KIB, seed=1))
                regs = BackupRegisters()
                if app_flag:
                    regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
                if upd_flag:
                    regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
                if intact and app_flag:
                    expected = BootDecision.JUMP_APPLICATION
                elif upd_flag:
                    expected = BootDecision.JUMP_UPDATER
                else:
                    expected = BootDecision.JUMP_BOOTLOADER
                decision = boot_decide(device, regs)
                if decision is not expected:
                    failures.append((intact, app_flag, upd_flag, decision))
                if expected is BootDecision.JUMP_BOOTLOADER:
                    if (regs.read_flag(APP_ENTER_REG) is not BootFlag.NOT_ENTER
                            or regs.read_flag(UPDATER_ENTER_REG) is not BootFlag.NOT_ENTER):
                        failures.append((intact, app_flag, upd_flag, "flags kept"))
    elapsed, in_time = timed(t0, 1.0)
    check(4, "boot decision table", not failures and in_time,
          f"8/8 combinations, flags cleared on bootloader path, "
          f"wall {elapsed:.2f}s (<1s)" if not failures else f"failures: {failures}")


def test_criterion_05_flash_model_invariants():
    # Program-on-non-erased rejected, erase scoped to the addressed sectors,
    # no mutation while locked, and a 10k-op randomized sweep against a
    # shadow model.  Under 5 s.
    t0 = time.perf_counter()
    device = FlashDevice()
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    device.program(0, b"\x12\x34")
    try:
        device.program(0, b"\x56")
        overwrote = True
    except ProgramOnNonErased:
        overwrote = False

    device.erase_sectors(0)
    sector0 = device.layout.sectors[0]
    sector1 = device.layout.sectors[1]
    wiped, _ = device.read(sector0.start, sector0.size)
    neighbour, _ = device.read(sector1.start, sector1.size)
    scoped = (wiped == bytes([ERASED_BYTE]) * sector0.size
              and neighbour == bytes([ERASED_BYTE]) * sector1.size)

    locked = FlashDevice()
    try:
        locked.program(0, b"\x00")
        locked_mutated = True
    except LockedDevice:
        data, _ = locked.read(0, 1)
        locked_mutated = data != b"\xff"

    rng = Random(0xF1A5)
    device = FlashDevice()
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    shadow = bytearray([ERASED_BYTE]) * device.layout.size
    sweep_ok = True
    for _ in range(10_000):
        op = rng.random()
        if op < 0.40:
            addr = rng.randrange(device.layout.size - 64)
            data = rng.randbytes(rng.randint(1, 64))
            if all(b == ERASED_BYTE for b in shadow[addr : addr + len(data)]):
                device.program(addr, data)
                shadow[addr : addr + len(data)] = data
            else:
                try:
                    device.program(addr, data)
                    sweep_ok = False
                except ProgramOnNonErased:
                    pass
        elif op < 0.70:
            sector = rng.choice(device.layout.sectors)
            device.erase_sectors(sector.index)
            shadow[sector.start : sector.end] = bytes([ERASED_BYTE]) * sector.size
        else:
            addr = rng.randrange(device.layout.size - 64)
            length = rng.randint(1, 64)
            got, _ = device.read(addr, length)
            sweep_ok = sweep_ok and got == bytes(shadow[addr : addr + length])
    full, _ = device.read(0, device.layout.size)
    sweep_ok = sweep_ok and full == bytes(shadow)

    elapsed, in_time = timed(t0, 5.0)
    ok = not overwrote and scoped and not locked_mutated and sweep_ok and in_time
    check(5, "flash model invariants", ok,
          f"overwrite rejected, erase scoped, lock enforced, 10k-op sweep clean, "
          f"wall {elapsed:.1f}s (<5s)")


def test_criterion_06_campaigns_ride_out_corruption():
    # 20 seed-pinned delta campaigns at corruption probability 0.01 with the
    # stock retry budget of 3: every one succeeds, the read-back equals the
    # new image bit for bit, and the target boots its application.  < 60 s.
    t0 = time.perf_counter()
    succeeded = 0
    for seed in range(100, 120):
        old = generate_image(64 * KIB, seed=seed)
        new = mutate_blocks(old, count=12, seed=seed + 1000)
        config = BusConfig(corruption_probability=0.01, rng_seed=seed)
        world, _, target = build_world(old_image=old, seed=seed, bus=config)
        report = run_campaign(world, delta_plan(old, new))
        booted = any(e["event"] == "Decision" and e.get("decision") == "jump_application"
                     for e in world.events[-50:])
        if report.success and app_readback(target, len(new)) == new and booted:
            succeeded += 1
    elapsed, in_time = timed(t0, 60.0)
    check(6, "fault-tolerant campaigns", succeeded == 20 and in_time,
          f"{succeeded}/20 noisy campaigns bit-exact and rebooted, "
          f"wall {elapsed:.1f}s (<60s)")


def test_criterion_07_updater_rollback_exactness():
    # A fault injected at every step boundary leaves the bootloader region
    # equal to the old or the new image in full, never mixed.  < 5 s.
    t0 = time.perf_counter()
    old_bl = generate_image(24 * KIB, seed=71)
    new_bl = generate_image(20 * KIB, seed=72)
    results = []
    for step, survivor in (("backup", "old"), ("erase", "old"), ("program", "old"),
                           ("verify", "old"), ("finalize", "new")):
        device = FlashDevice()
        device.unlock(*DEFAULT_UNLOCK_KEYS)
        region = device.layout.region("bootloader")
        device.program(region.start, old_bl)
        device.reset()

        def hook(name, at=step):
            if name == at:
                raise InjectedFault(at)

        ctx = EcuContext(device=device, regs=BackupRegisters(),
                         session=SecuritySession(DEFAULT_SECRET, rng_seed=7),
                         updater_image=new_bl, fault_hook=hook)
        result = updater_silent(ctx)
        content, _ = device.read(region.start, region.size, ctx.now())
        image = old_bl if survivor == "old" else new_bl
        expected = image + bytes([ERASED_BYTE]) * (region.size - len(image))
        status_ok = result.status is (UpdaterStatus.ROLLED_BACK if survivor == "old"
                                      else UpdaterStatus.UPDATED)
        results.append((step, content == expected and status_ok))
    elapsed, in_time = timed(t0, 5.0)
    bad = [step for step, ok in results if not ok]
    check(7, "updater rollback exactness", not bad and in_time,
          f"faults at backup/erase/program/verify roll back whole, finalize commits, "
          f"wall {elapsed:.1f}s (<5s)" if not bad else f"mixed region after: {bad}")


def test_criterion_08_abort_between_erase_and_commit():
    # A full campaign killed after the erase but before the metadata commit
    # must leave a target that decides for its bootloader on the next boot.
    t0 = time.perf_counter()
    old = generate_image(16 * KIB, seed=81)
    new = mutate_blocks(old, count=2, seed=82)
    world, _, target = build_world(old_image=old, seed=81)
    handle = start_campaign(world, delta_plan(old, new, mode=CampaignMode.FULL))

    erased = world.run_until(
        lambda w: any(e["event"] == "CommandServed" and e.get("command") == "flash_erase"
                      for e in w.events),
        max_ticks=20_000)
    handle.cancel()
    world.power_cycle("target")  # the kill cuts power mid-erase
    mark = len(world.events)
    world.run_until(lambda w: any(e["event"] == "Decision" for e in w.events[mark:]),
                    max_ticks=100)
    decisions = [e["decision"] for e in world.events[mark:] if e["event"] == "Decision"]
    elapsed, in_time = timed(t0, 5.0)
    ok = erased.met and decisions == ["jump_bootloader"] and in_time
    check(8, "abort lands in the bootloader", ok,
          f"erase seen, post-abort decision={decisions}, wall {elapsed:.1f}s (<5s)")


def test_criterion_09_pid_endpoints():
    # Stock gains: a 10 degree step settles to within 0.5 degrees and a 30
    # degree step to within 1.0 degree, both inside 5 simulated seconds.
    t0 = time.perf_counter()
    gains = PidGains(2.0, 0.1, 0.5)
    residuals = {}
    for target, bound in ((10.0, 0.5), (30.0, 1.0)):
        trace = simulate(gains, target_deg=target, initial_deg=0.0, duration_s=5.0)
        residuals[target] = (trace[-1][1], bound)
    elapsed, in_time = timed(t0, 1.0)
    ok = all(err <= bound for err, bound in residuals.values()) and in_time
    check(9, "pid step endpoints", ok,
          ", ".join(f"{int(t)} deg -> {err:.3f} (<= {bound})"
                    for t, (err, bound) in residuals.items())
          + f", wall {elapsed:.2f}s (<1s)")


def test_criterion_10_crc_check_value():
    # The library CRC must produce the CRC-32/MPEG-2 check value and agree
    # with the committed bitwise reference.
    t0 = time.perf_counter()
    fast = crc32(b"123456789")
    reference = crc32_bitwise(b"123456789")
    elapsed, in_time = timed(t0, 1.0)
    ok = fast == reference == 0x0376E6E7 and in_time
    check(10, "crc check value", ok,
          f"crc32('123456789') = {fast:08X}, bitwise oracle {reference:08X}, "
          f"expected 0376E6E7")


def test_criterion_11_determinism_golden(tmp_path, capsys):
    # Two `sim run` invocations with the same seed must write byte-identical
    # event logs.  < 10 s.
    t0 = time.perf_counter()
    scenario = {
        "seed": 9,
        "images": {
            "old": {"size": 32 * KIB, "seed": 1},
            "new": {"base": "old", "change_blocks": 5, "seed": 2},
        },
        "bus": {"corruption_probability": 0.02},
        "campaign": {"mode": "delta"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))

    def run(name):
        trace = tmp_path / name
        code = cli_main(["sim", "run", str(path), "--trace", str(trace)])
        out = capsys.readouterr().out
        return code, out, (trace / "events.jsonl").read_bytes(), (trace / "frames.csv").read_bytes()

    first = run("a")
    second = run("b")
    elapsed, in_time = timed(t0, 10.0)
    ok = (first == second and first[0] == 0
          and len(first[2]) > 0 and len(first[3]) > 0 and in_time)
    check(11, "determinism golden", ok,
          f"two runs byte-identical ({len(first[2])} log bytes, "
          f"{len(first[3])} trace bytes), wall {elapsed:.1f}s (<10s)")
