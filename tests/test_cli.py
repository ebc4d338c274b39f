"""Command line behaviour: exit codes, stdout JSON, file round trips."""

import json
import tracemalloc

import pytest

from fotasim.cli import main
from fotasim.delta import DeltaPackage, encode_package
from fotasim.flashmodel import LAYOUT
from fotasim.integrity import crc32
from fotasim.lka import PidGains, read_gains
from fotasim.nvstore import APP_CAPACITY
from fotasim.orchestrator import CampaignMode, run_campaign
from fotasim.scenario import (
    ScenarioError,
    generate_image,
    load_scenario,
    mutate_blocks,
    world_from_scenario,
)

KIB = 1024


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, **overrides):
    spec = {
        "seed": 5,
        "images": {
            "old": {"size": 16 * KIB, "seed": 1},
            "new": {"base": "old", "change_blocks": 3, "seed": 2},
        },
        "campaign": {"mode": "delta"},
    }
    spec.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    return path


def test_crc_prints_eight_hex_digits(tmp_path, capsys):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"123456789")
    code, out, _ = run_cli(capsys, "crc", str(target))
    assert code == 0
    assert out == "0376E6E7\n"


def test_crc_missing_file_reports_a_json_error(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "crc", str(tmp_path / "absent.bin"))
    assert code == 1
    assert "error" in json.loads(out)


def test_image_pack_embeds_the_requested_gains(tmp_path, capsys):
    raw = tmp_path / "payload.bin"
    raw.write_bytes(generate_image(4 * KIB, seed=3))
    out_path = tmp_path / "image.bin"
    code, out, _ = run_cli(capsys, "image", "pack", str(raw),
                           "-o", str(out_path), "--gains", "3.5,0.25,0.75")
    assert code == 0
    image = out_path.read_bytes()
    assert read_gains(image) == PidGains(3.5, 0.25, 0.75)
    stats = json.loads(out)
    assert stats["length"] == len(image)
    assert stats["crc32"] == f"{crc32(image):08X}"
    assert stats["gains"] == [3.5, 0.25, 0.75]


def test_image_pack_rejects_malformed_gains(tmp_path, capsys):
    raw = tmp_path / "payload.bin"
    raw.write_bytes(b"\x00" * 4 * KIB)
    code, out, _ = run_cli(capsys, "image", "pack", str(raw),
                           "-o", str(tmp_path / "image.bin"), "--gains", "1,2")
    assert code == 1
    assert "gains" in json.loads(out)["error"]


def test_image_pack_rejects_non_finite_gains(tmp_path, capsys):
    raw = tmp_path / "payload.bin"
    raw.write_bytes(b"\x00" * 4 * KIB)
    code, out, _ = run_cli(capsys, "image", "pack", str(raw),
                           "-o", str(tmp_path / "image.bin"), "--gains", "1,2,nan")
    assert code == 1
    assert "finite" in json.loads(out)["error"]
    assert not (tmp_path / "image.bin").exists()


def test_delta_build_then_apply_round_trips(tmp_path, capsys):
    old = generate_image(16 * KIB, seed=4)
    new = mutate_blocks(old, count=3, seed=5)
    (tmp_path / "old.bin").write_bytes(old)
    (tmp_path / "new.bin").write_bytes(new)

    code, out, _ = run_cli(capsys, "delta", "build",
                           str(tmp_path / "old.bin"), str(tmp_path / "new.bin"),
                           "-o", str(tmp_path / "patch.fdp"))
    assert code == 0
    stats = json.loads(out)
    assert stats["blocks_changed"] == 3
    assert stats["blocks_total"] == 16
    assert stats["package_bytes"] == (tmp_path / "patch.fdp").stat().st_size
    assert stats["package_bytes"] < len(new)

    code, out, _ = run_cli(capsys, "delta", "apply",
                           str(tmp_path / "old.bin"), str(tmp_path / "patch.fdp"),
                           "-o", str(tmp_path / "rebuilt.bin"))
    assert code == 0
    rebuilt = (tmp_path / "rebuilt.bin").read_bytes()
    assert rebuilt == new
    assert json.loads(out) == {"length": len(new), "crc32": f"{crc32(new):08X}"}


def test_delta_apply_rejects_a_wrong_base(tmp_path, capsys):
    old = generate_image(8 * KIB, seed=6)
    new = mutate_blocks(old, count=2, seed=7)
    (tmp_path / "old.bin").write_bytes(old)
    (tmp_path / "new.bin").write_bytes(new)
    (tmp_path / "drifted.bin").write_bytes(mutate_blocks(old, count=2, seed=8))
    run_cli(capsys, "delta", "build", str(tmp_path / "old.bin"),
            str(tmp_path / "new.bin"), "-o", str(tmp_path / "patch.fdp"))
    code, out, _ = run_cli(capsys, "delta", "apply",
                           str(tmp_path / "drifted.bin"), str(tmp_path / "patch.fdp"),
                           "-o", str(tmp_path / "rebuilt.bin"))
    assert code == 1
    assert "error" in json.loads(out)
    assert not (tmp_path / "rebuilt.bin").exists()


def test_delta_apply_refuses_an_image_past_the_application_region(tmp_path, capsys):
    # A header-only package may declare a 4 GiB image: refused before a
    # stage of that size is padded.
    (tmp_path / "base.bin").write_bytes(bytes(2 * KIB))
    header_only = encode_package(DeltaPackage(1024, 0xFFFFFFFF, 0, ()))
    (tmp_path / "huge.fdp").write_bytes(header_only)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "delta", "apply", str(tmp_path / "base.bin"),
                               str(tmp_path / "huge.fdp"), "-o", str(tmp_path / "rebuilt.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert str(APP_CAPACITY) in json.loads(out)["error"]
    assert peak < 1 << 20
    assert not (tmp_path / "rebuilt.bin").exists()


def test_delta_build_refuses_blocks_past_the_16_bit_offsets(tmp_path, capsys):
    (tmp_path / "image.bin").write_bytes(bytes(4 * KIB))
    code, out, _ = run_cli(capsys, "delta", "build", str(tmp_path / "image.bin"),
                           str(tmp_path / "image.bin"), "-o", str(tmp_path / "patch.fdp"),
                           "--block-size", "131072")
    assert code == 1
    assert "16-bit" in json.loads(out)["error"]
    assert not (tmp_path / "patch.fdp").exists()


@pytest.mark.parametrize("argv, needle", [
    pytest.param(["delta", "build", "image.bin", "image.bin", "-o", "patch.fdp",
                  "--block-size", "0"], "block_size", id="delta-build-block-size-zero"),
    pytest.param(["delta", "build", "image.bin", "image.bin", "-o", "patch.fdp",
                  "--gap-merge", "-1"], "gap_merge", id="delta-build-gap-merge-negative"),
    pytest.param(["image", "pack", "image.bin", "-o", "."], "directory",
                 id="image-pack-onto-a-directory"),
    pytest.param(["sim", "run", "scenario.json", "--trace", "image.bin"], "cannot write trace",
                 id="sim-run-trace-onto-a-file"),
])
def test_a_command_that_cannot_do_its_work_exits_one_with_a_json_error(
        tmp_path, capsys, monkeypatch, argv, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "image.bin").write_bytes(bytes(4 * KIB))
    write_scenario(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert needle in json.loads(out)["error"]
    assert not (tmp_path / "patch.fdp").exists()
    assert (tmp_path / "image.bin").read_bytes() == bytes(4 * KIB)


def test_a_scenario_path_that_is_a_directory_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario(tmp_path)


def test_uds_demo_reports_a_granted_handshake(capsys):
    code, out, err = run_cli(capsys, "uds", "demo", "--seed", "3")
    assert code == 0
    result = json.loads(out)
    assert result["outcome"] == "granted"
    assert result["nrc"] is None
    assert result["duration_us"] > 0
    assert "id=" in err  # the frame-by-frame trace goes to stderr


def test_uds_demo_accepts_a_custom_secret(capsys):
    # Both ends of the demo share the given secret, so any value unlocks.
    code, out, _ = run_cli(capsys, "uds", "demo", "--secret", "0x1234")
    assert code == 0
    assert json.loads(out)["outcome"] == "granted"


def test_uds_demo_rejects_a_malformed_secret(capsys):
    code, out, _ = run_cli(capsys, "uds", "demo", "--secret", "not-a-number")
    assert code == 1
    assert "secret" in json.loads(out)["error"]


def test_sim_run_missing_scenario_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sim", "run", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert "not found" in err


GOOD_IMAGES = {"old": {"size": 16 * KIB, "seed": 1},
               "new": {"base": "old", "change_blocks": 3, "seed": 2}}


@pytest.mark.parametrize("spec, needle", [
    pytest.param({"seed": 1}, "images", id="no-images"),
    pytest.param({"images": [1, 2]}, "images", id="images-list"),
    pytest.param({"images": GOOD_IMAGES, "bus": [1]}, "bus", id="bus-list"),
    pytest.param({"images": GOOD_IMAGES, "seed": "x"}, "seed", id="seed-not-a-number"),
    pytest.param({"images": {"old": {"base": "old"}, "new": {"base": "old"}}},
                 "images.old derives from itself", id="image-based-on-itself"),
    pytest.param({"images": {"old": {"base": "new"}, "new": {"base": "old"}}},
                 "derives from itself", id="image-base-cycle"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"block_size": 0}},
                 "block_size", id="block-size-zero"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"retry_budget": "x"}},
                 "campaign", id="retry-budget-not-a-number"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"mode": "delta", "block_size": 0x10001}},
                 "block_size", id="delta-block-size-past-16-bit-offsets"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"mode": "full", "block_size": 65529}},
                 "block_size", id="full-block-size-past-one-mem-write"),
    pytest.param({"images": GOOD_IMAGES,
                  "bus": {"corruption_probability": 0.1, "max_auto_retransmit": "x"}},
                 "max_auto_retransmit", id="retransmit-budget-a-string"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"max_auto_retransmit": -1}},
                 "max_auto_retransmit", id="retransmit-budget-negative"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "change_blocks": -1}}},
                 "images.new", id="negative-change-blocks"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "block_range": [1]}}},
                 "images.new", id="block-range-one-bound"),
    pytest.param({"images": {"old": {"size": KIB, "gains": "abc"}, "new": {"size": KIB}}},
                 "images.old", id="gains-not-numbers"),
    pytest.param({"images": {"old": {"path": "empty.bin"}, "new": {"size": KIB}}},
                 "images.old", id="empty-path-image"),
    pytest.param({"images": GOOD_IMAGES, "lka": {"deviations": 5}},
                 "lka.deviations", id="deviations-a-number"),
    pytest.param({"images": GOOD_IMAGES, "lka": {"deviations": [5]}},
                 "lka.deviations", id="deviations-of-numbers"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"frame_time_us": -500}},
                 "frame_time_us", id="frame-time-negative"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"frame_time_us": 0}},
                 "frame_time_us", id="frame-time-zero"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"corruption_probability": 2}},
                 "probabilities", id="corruption-above-one"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"corruption_probability": -1}},
                 "probabilities", id="corruption-negative"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"corruption_probability": "nan"}},
                 "probabilities", id="corruption-nan"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"drop_probability": 1.5}},
                 "probabilities", id="drop-above-one"),
    pytest.param({"images": GOOD_IMAGES,
                  "bus": {"corruption_probability": 0.6, "drop_probability": 0.5}},
                 "sum", id="fault-probabilities-sum-past-one"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"retry_budget": -3}},
                 "retry_budget", id="retry-budget-negative"),
    pytest.param({"images": {"old": {"size": KIB, "gains": [1, 2]}, "new": {"size": KIB}}},
                 "images.old", id="gains-two-numbers"),
    pytest.param({"images": {"old": {"size": KIB, "gains": [1, 2, "nan"]},
                             "new": {"size": KIB}}},
                 "images.old", id="gains-nan"),
    pytest.param({"images": {"old": {"size": KIB, "gains": ["2", True, 0.5]},
                             "new": {"size": KIB}}},
                 "images.old", id="gains-a-string-and-a-bool"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"secret": True}},
                 "secret", id="secret-a-bool"),
    # Every count is a JSON integer: no fraction is rounded, no bool or string read as one.
    pytest.param({"images": GOOD_IMAGES, "bus": {"frame_time_us": 1.9}},
                 "bus.frame_time_us", id="frame-time-a-fraction"),
    pytest.param({"images": {"old": {"size": 8192.5}, "new": {"size": KIB}}},
                 "images.old", id="size-a-fraction"),
    pytest.param({"images": {"old": {"size": 8192, "seed": 1.7}, "new": {"size": KIB}}},
                 "images.old", id="image-seed-a-fraction"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "change_blocks": 2.9}}},
                 "images.new", id="change-blocks-a-fraction"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "seed": 2.5}}},
                 "images.new", id="derived-image-seed-a-fraction"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "block_range": [0.5, 4]}}},
                 "images.new", id="block-range-a-fraction"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "block_range": [True, 4]}}},
                 "images.new", id="block-range-a-bool"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"block_size": 1024.7}},
                 "campaign.block_size", id="block-size-a-fraction"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"retry_budget": 2.9}},
                 "campaign.retry_budget", id="retry-budget-a-fraction"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"gap_merge": 8.5}},
                 "campaign.gap_merge", id="gap-merge-a-fraction"),
    pytest.param({"images": GOOD_IMAGES, "seed": 1.5}, "seed", id="seed-a-fraction"),
    pytest.param({"images": GOOD_IMAGES, "seed": True}, "seed", id="seed-a-bool"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "change_blocks": True}}},
                 "images.new", id="change-blocks-a-bool"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"frame_time_us": "500"}},
                 "bus.frame_time_us", id="frame-time-a-string"),
    pytest.param({"images": {"old": {"size": "8192"}, "new": {"size": KIB}}},
                 "images.old", id="size-a-string"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"block_size": "1024"}},
                 "campaign.block_size", id="block-size-a-string"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"corruption_probability": False}},
                 "probabilities", id="corruption-a-bool"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"drop_probability": "0"}},
                 "probabilities", id="drop-a-string"),
    pytest.param({"images": {"old": {"size": 0}, "new": {"size": KIB}}},
                 "images.old: image size must be positive", id="size-zero"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"],
                             "new": {"base": "old", "block_range": [6, 2]}}},
                 "block range", id="block-range-reversed"),
    pytest.param('{"images": ', "not valid JSON", id="invalid-json"),
    pytest.param([GOOD_IMAGES], "root must be an object", id="root-a-list"),
    pytest.param({"images": {"old": GOOD_IMAGES["old"]}}, "images.new missing",
                 id="new-image-missing"),
    pytest.param({"images": {"old": {"seed": 1}, "new": {"size": KIB}}},
                 "needs a path, a size or a base", id="image-of-nothing"),
    pytest.param({"images": GOOD_IMAGES, "bus": {"corruption_probability": 10**400}},
                 "sum to at most 1", id="corruption-past-a-float"),
    pytest.param({"images": GOOD_IMAGES, "campaign": {"mode": "sideways"}},
                 "campaign.mode", id="mode-unknown"),
])
def test_sim_run_bad_scenario_is_an_operation_error(tmp_path, capsys, spec, needle):
    (tmp_path / "empty.bin").write_bytes(b"")
    path = tmp_path / "broken.json"
    path.write_text(spec if type(spec) is str else json.dumps(spec))  # a str is the file's text
    code, out, _ = run_cli(capsys, "sim", "run", str(path))
    assert code == 1
    assert needle in json.loads(out)["error"]


@pytest.mark.parametrize("mode, largest", [("delta", 0x10000), ("full", 65528)])
def test_block_size_at_the_mode_limit_is_accepted(mode, largest):
    spec = {"seed": 3,
            "images": {"old": {"size": 16 * KIB, "seed": 1}, "new": {"size": 16 * KIB, "seed": 2}},
            "campaign": {"mode": mode, "block_size": largest}}
    world, plan = world_from_scenario(spec)
    assert (plan.mode, plan.block_size) == (CampaignMode(mode), largest)
    assert run_campaign(world, plan).success
    spec["campaign"]["block_size"] = largest + 1
    with pytest.raises(ScenarioError, match="block_size"):
        world_from_scenario(spec)


def test_null_retransmit_budget_lifts_it():
    spec = {"images": GOOD_IMAGES, "bus": {"max_auto_retransmit": None}}
    world, _ = world_from_scenario(spec)
    assert world.bus.config.max_auto_retransmit is None


def test_sim_run_executes_a_delta_campaign(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, err = run_cli(capsys, "sim", "run", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "success"
    assert report["mode"] == "delta"
    assert report["blocks_transferred"] == 3
    assert "delta campaign: success" in err


def test_sim_run_logs_a_deviation_that_overflows_as_bad(tmp_path, capsys):
    huge = "9" * 400 + ".00\n"
    path = write_scenario(tmp_path, lka={"deviations": [huge, "0.10\n", huge]})
    trace = tmp_path / "trace"
    code, out, _ = run_cli(capsys, "sim", "run", str(path), "--trace", str(trace))
    assert code == 0
    assert json.loads(out)["outcome"] == "success"
    events = [json.loads(line) for line in (trace / "events.jsonl").read_text().splitlines()]
    assert [e["line"] for e in events if e["event"] == "BadDeviation"] == [repr(huge)] * 2


def test_sim_run_failure_exits_one_with_the_report(tmp_path, capsys):
    # 300 KiB needs more 1 KiB block slots than the metadata record holds.
    path = write_scenario(tmp_path, images={
        "old": {"size": 16 * KIB, "seed": 1},
        "new": {"size": 300 * KIB, "seed": 2},
    })
    code, out, _ = run_cli(capsys, "sim", "run", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "failed"
    assert report["reason"] == "image_too_large"


@pytest.mark.parametrize("source", ["size", "path"])
def test_sim_run_refuses_an_image_past_the_flash_device(tmp_path, capsys, source):
    """An image one byte past the flash device is refused, naming the limit,
    before it is generated or read in full; one the device's size runs, and
    fails as too large for the application region."""
    def new_image(size):
        if source == "size":
            return {"size": size, "seed": 2}
        (tmp_path / "new.bin").write_bytes(bytes(size))
        return {"path": "new.bin"}

    old = {"size": 16 * KIB, "seed": 1}
    path = write_scenario(tmp_path, images={"old": old, "new": new_image(LAYOUT.size + 1)})
    code, out, _ = run_cli(capsys, "sim", "run", str(path))
    assert code == 1
    assert f"{LAYOUT.size} bytes" in json.loads(out)["error"]
    path = write_scenario(tmp_path, images={"old": old, "new": new_image(LAYOUT.size)})
    code, out, _ = run_cli(capsys, "sim", "run", str(path))
    assert (code, json.loads(out)["reason"]) == (1, "image_too_large")


def test_sim_run_writes_trace_files(tmp_path, capsys):
    path = write_scenario(tmp_path)
    trace = tmp_path / "trace"
    code, _, _ = run_cli(capsys, "sim", "run", str(path), "--trace", str(trace))
    assert code == 0
    events = (trace / "events.jsonl").read_text()
    frames = (trace / "frames.csv").read_text()
    assert any(json.loads(line)["event"] == "CampaignDone"
               for line in events.splitlines())
    assert frames.startswith("time_us,id_hex,dlc,data_hex,kind\n")
    assert len(frames.splitlines()) > 10


def test_sim_run_same_seed_is_bit_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, bus={"corruption_probability": 0.01})

    def run(seed, name):
        trace = tmp_path / name
        code, out, _ = run_cli(capsys, "sim", "run", str(path),
                               "--seed", str(seed), "--trace", str(trace))
        assert code == 0
        return (out, (trace / "events.jsonl").read_bytes(),
                (trace / "frames.csv").read_bytes())

    first = run(77, "a")
    second = run(77, "b")
    assert first == second
    different = run(78, "c")
    assert different[1] != first[1]


def test_seed_override_beats_the_scenario_seed(tmp_path, capsys):
    path = write_scenario(tmp_path, bus={"corruption_probability": 0.05})
    _, out_default, _ = run_cli(capsys, "sim", "run", str(path))
    _, out_override, _ = run_cli(capsys, "sim", "run", str(path), "--seed", "5")
    # The scenario's own seed is 5, so overriding with 5 changes nothing.
    assert json.loads(out_default) == json.loads(out_override)
