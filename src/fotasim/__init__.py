"""Deterministic firmware-over-the-air simulator for a CAN-connected ECU.

The package models the full update path — sectored flash, backup registers,
a segmented CAN transport, seed/key security access, a three-stage boot chain
and block-level delta packages — as plain Python objects driven by a
tick-based scheduler, so every campaign replays bit-for-bit from a seed.
"""

from .canbus import Bus, BusConfig, CanFrame, recv_segmented, send_segmented
from .delta import apply_delta, build_delta, decode_package, encode_package
from .flashmodel import FlashDevice
from .integrity import crc32
from .lka import PidGains, simulate
from .orchestrator import (
    CampaignMode,
    CampaignPlan,
    CampaignReport,
    reduction_ratio,
    run_campaign,
    start_campaign,
)
from .scenario import build_world, generate_image, mutate_blocks, provision_application
from .simruntime import Node, RunResult, World
from .uds import SecuritySession, client_unlock, derive_key, server_handle

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "BusConfig",
    "CampaignMode",
    "CampaignPlan",
    "CampaignReport",
    "CanFrame",
    "FlashDevice",
    "Node",
    "PidGains",
    "RunResult",
    "SecuritySession",
    "World",
    "__version__",
    "apply_delta",
    "build_delta",
    "build_world",
    "client_unlock",
    "crc32",
    "decode_package",
    "derive_key",
    "encode_package",
    "generate_image",
    "mutate_blocks",
    "provision_application",
    "reduction_ratio",
    "run_campaign",
    "send_segmented",
    "recv_segmented",
    "simulate",
    "server_handle",
    "start_campaign",
]
