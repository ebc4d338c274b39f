"""Shared fixtures and reference implementations used across the suite."""

from __future__ import annotations

import pytest

from fotasim.flashmodel import FlashDevice
from fotasim.lka import PidGains
from fotasim.scenario import build_world, generate_image, mutate_blocks


def crc32_bitwise(data: bytes, init: int = 0xFFFFFFFF) -> int:
    """Reference CRC-32/MPEG-2: plain shift register, one bit at a time.

    Deliberately independent of the table/zlib path in ``fotasim.integrity``
    so the two can check each other.  Non-reflected, no final XOR.
    """
    crc = init
    for byte in data:
        crc ^= byte << 24
        for _ in range(8):
            if crc & 0x8000_0000:
                crc = ((crc << 1) ^ 0x04C1_1DB7) & 0xFFFF_FFFF
            else:
                crc = (crc << 1) & 0xFFFF_FFFF
    return crc


@pytest.fixture
def device():
    return FlashDevice()


@pytest.fixture
def small_images():
    """A 16 KiB image pair differing in a handful of blocks."""
    old = generate_image(16 * 1024, seed=101, gains=PidGains())
    new = mutate_blocks(old, 3, seed=102)
    return old, new


@pytest.fixture
def stock_world():
    """Master + provisioned target, 120 KiB-ish app, clean bus."""
    old = generate_image(120 * 1024, seed=11, gains=PidGains())
    world, master, target = build_world(old_image=old, seed=7)
    return world, master, target, old
