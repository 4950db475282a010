"""Byte-identical default output: the correctness oracle for performance work.

Each digest is the sha256 of `<command>.csv` followed by `summary.json`, for
one run of the command with the default configuration (seed 1).  A change
that moves any of them changes what fplab reports; if that is intended, say
so and re-pin the digest in the same change.

The default 200x200 region grid has no disagreement between the piecewise
and raw subgroup regions, so it writes no `flag=disagree` row; the 82x82 grid
writes exactly one (zeta=0.282716;xi=0.293210) and pins that path.  The cap
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
    "regions": "d57b2bf7798a2ad0c3ca65c7a9cf06a86b997c8c30c2ab25999386a470c8565b",
    "charsum": "60f7695ad7ec3ee43610360959746a39715e8f48c4fe52a58aa81c27d41791ad",
}
REGIONS_GRID_82 = "994a206c643f849800746a629866a2e1d458e5f11165c320c50f4ab9eebe4db5"
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


def test_regions_flag_row_digest(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("region_check_grid = 82\n")
    out = tmp_path / "out"
    assert main(["regions", "--config", str(cfg), "--out", str(out)]) == 0
    flags = [line for line in (out / "regions.csv").read_text().splitlines()
             if "flag=disagree" in line]
    assert flags == ["region_agreement,0,flag=disagree;zeta=0.282716;xi=0.293210,,,,report,0"]
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
