"""Byte-identical default output: the correctness oracle for performance work.

Each digest is the sha256 of `<command>.csv` followed by `summary.json`, for
one run of the command with the default configuration (seed 1).  A change
that moves any of them changes what fplab reports; if that is intended, say
so and re-pin the digest in the same change.

The region predicates compare integers over one denominator, so the
piecewise and raw subgroup regions agree exactly on every check grid: the
default 200x200 grid, and the 82x82 and 128x128 grids, where float64 once
made one disagreement each on a raw line, write one `region_agreement` row
that passes with 0 disagreements.  The 82x82 grid's digest pins that.  The cap
sweep (`sweep_primes = 65521,262139,1048573`) pins the kernels at p near 2^20,
where the int64 guards and the length-p routes are closest to their limits;
the ceiling sweep (`sweep_primes = 4194301,16777213`, `max_p = 2^24`) pins
them at the largest primes `max_p` admits.  The default charsum character
(m = 50 at p = 101) is quadratic, read off the squares bitmap; `--m 25`,
`--m 10` and `--m 1` pin the discrete-log route at orders 4 (exact roots),
10 and 100.
"""

import hashlib

import pytest

from fplab.cli import main

GOLDEN = {
    "identities": "c50a0dddb75830ae78491d5eaf9499a2e818dd8c34574e8ce0c21d7a917b717b",
    "oracles": "a047e837b8586191c535dda02bd1077b1e7b3cc5bf02d13389c4c12229f74d1b",
    "sweep": "35becedc1c4d7280744eed1ab9509379147f7e5884df195093d42578f5aa9144",
    "regions": "90564bb691ef1c214403f5be9b2c21fe8665bc0cf140edfbebe8d539f474ac25",
    "charsum": "60f7695ad7ec3ee43610360959746a39715e8f48c4fe52a58aa81c27d41791ad",
}
REGIONS_GRID_82 = "d2878dba97114b032818e5babf21657152cbf977ba761513ae0868f8a3ea1058"
SWEEP_CAP = "e3f29c237b7eb5247c36b2aac2f3b7d258d8eddeea0de334181192ba90b37357"
SWEEP_CEILING = "21cbf36367b273da162f31e6c7b2fd6c3d9c51ce9af0b51653939a2ba1bf6ae6"
CHARSUM_NONREAL = {
    25: "dfb7884bb15f3961a97c1058e3080b4309787a9b754756cf8405324c46fd233e",
    10: "a8e936dbc9a1caf937b34ecfe32cc42b9f5fae2c85e5cfe1e104c16d674386a9",
    1: "e889ccaa3498e1b04b73f164ede9f405a2c1e575fc382fced06e7ce6a7854714",
}


def _digest(out, command):
    digest = hashlib.sha256()
    for name in (f"{command}.csv", "summary.json"):
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_output_digest(command, tmp_path):
    assert main([command, "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path, command) == GOLDEN[command]


@pytest.mark.parametrize("m", sorted(CHARSUM_NONREAL))
def test_nonreal_charsum_digest(m, tmp_path):
    assert main(["charsum", "--m", str(m), "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path, "charsum") == CHARSUM_NONREAL[m]


@pytest.mark.parametrize("n", [82, 128])
def test_regions_grid_agrees_exactly(n, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"region_check_grid = {n}\n")
    out = tmp_path / "out"
    assert main(["regions", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "regions.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("region_agreement,")] == [
        f"region_agreement,0,grid={n}x{n},0,0,,pass,0"]
    assert not [line for line in lines if "flag=" in line]
    if n == 82:
        assert _digest(out, "regions") == REGIONS_GRID_82


def test_cap_sweep_digest(tmp_path):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("sweep_primes = 65521,262139,1048573\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert _digest(out, "sweep") == SWEEP_CAP


def test_ceiling_sweep_digest(tmp_path):
    cfg = tmp_path / "ceiling.cfg"
    cfg.write_text("sweep_primes = 4194301,16777213\nmax_p = 16777216\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert _digest(out, "sweep") == SWEEP_CEILING
