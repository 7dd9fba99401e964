"""Seeded inputs for every workload.

The benchmark seed is the only source of variation: the same seed gives
the same Triple-DES plaintext and keys, edge image, edited pipeline stage
and campaign seeds. The program only ever sees the generated inputs.
"""

from __future__ import annotations

import random
import string

#: loopback sizes of the paper's Figures 4 and 5
LOOPBACK_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
SWEEP_LEVELS = ("none", "unoptimized", "optimized")
PIPELINE_STAGES = 8
CAMPAIGN_LEVELS = ("none", "optimized")
CAMPAIGN_COUNT = 8
#: the simulate command's edge image (the 128x64 build is for synthesis)
SIM_EDGE = (16, 8)

_TEXT_CHARS = string.ascii_letters + string.digits + " "


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"{what}:{seed}")


def tdes_text(seed: int) -> str:
    """Sixteen printable characters (two DES blocks), so the ASCII-range
    assertions hold on the golden run."""
    rng = _rng(seed, "tdes-text")
    return "".join(rng.choice(_TEXT_CHARS) for _ in range(16))


def tdes_keys(seed: int) -> tuple[int, int, int]:
    rng = _rng(seed, "tdes-keys")
    return tuple(rng.getrandbits(64) for _ in range(3))


def edge_pixels(seed: int) -> list[int]:
    width, height = SIM_EDGE
    rng = _rng(seed, "edge-pixels")
    return [rng.randrange(256) for _ in range(width * height)]


def simulate_feed(seed: int) -> list[int]:
    """The header the 16x8 hardware asserts on, then the seeded image."""
    return [*SIM_EDGE, *edge_pixels(seed)]


def pipeline_edit(seed: int) -> tuple[int, int]:
    """(stage index, new delta) of the edit pass."""
    rng = _rng(seed, "pipeline-edit")
    return rng.randrange(PIPELINE_STAGES), rng.randrange(1, 1000)


def campaign_seed(seed: int, unit: int) -> int:
    return _rng(seed, f"campaign-{unit}").randrange(2 ** 31)


def sweep_apps(seed: int, edited: bool = False) -> list:
    """The sweep's app axis: Triple-DES, edge 128x64, the loopback
    series and the editable 8-stage pipeline (edited in the edit pass)."""
    from repro.lab.sweep import AppSpec

    apps = [
        AppSpec.make("tripledes", text=tdes_text(seed)),
        AppSpec.make("edge", width=128, height=64),
    ]
    apps += [AppSpec.make("loopback", n=n) for n in LOOPBACK_SIZES]
    if edited:
        apps.append(AppSpec.make("pipeline", stages=PIPELINE_STAGES,
                                 edits=(pipeline_edit(seed),)))
    else:
        apps.append(AppSpec.make("pipeline", stages=PIPELINE_STAGES))
    return apps


def sweep_spec(seed: int, edited: bool = False):
    from repro.lab.sweep import SweepSpec

    return SweepSpec.cross("perfbench", sweep_apps(seed, edited),
                           levels=SWEEP_LEVELS)


def campaign_target(seed: int):
    """The built-in Triple-DES campaign target with seeded text and keys
    (same watchdog budgets)."""
    from repro.apps.tripledes import build_tdes_app
    from repro.faults.campaign import CampaignTarget, builtin_targets

    text = tdes_text(seed).encode()
    keys = tdes_keys(seed)
    return CampaignTarget(
        "tripledes",
        lambda: build_tdes_app(text=text, keys=keys),
        builtin_targets()["tripledes"].watchdog,
    )


def cli_sources(seed: int) -> dict[str, str]:
    """File name -> dialect-C source for the cli workload."""
    from repro.apps.edge_detect import edge_source
    from repro.apps.tripledes import tdes_source

    return {
        "tdes.c": tdes_source(*tdes_keys(seed)),
        "edge.c": edge_source(128, 64),
        "edge16.c": edge_source(*SIM_EDGE),
    }


def cli_commands() -> list[list[str]]:
    """One cycle of the cli workload (file names relative to the inputs
    directory; ``{feed}`` is replaced with the simulate feed)."""
    cmds = []
    for name in ("tdes", "edge"):
        cmds += [
            ["report", f"inputs/{name}.c"],
            ["compile", f"inputs/{name}.c", "-o", f"out/{name}"],
            ["synth", f"inputs/{name}.c"],
        ]
    cmds.append(["simulate", "inputs/edge16.c", "--feed", "{feed}"])
    return cmds
