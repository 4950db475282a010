"""Byte-identical default output: the correctness oracle for performance work.

Each digest is the sha256 of `<command>.csv` followed by `summary.json`, for
one run of the command with the default configuration (seed 1).  A change
that moves any of them changes what fplab reports; if that is intended, say
so and re-pin the digest in the same change.
"""

import hashlib

import pytest

from fplab.cli import main

GOLDEN = {
    "identities": "bc034f90443812aaa35c52ec36fd9c5d374b6ecf5f5acfda1574197801df0642",
    "oracles": "a047e837b8586191c535dda02bd1077b1e7b3cc5bf02d13389c4c12229f74d1b",
    "sweep": "e4c8e7a99b947381dab935022a567fa0ddc2b8f2e257a9d70db22dfb437cead9",
    "regions": "d57b2bf7798a2ad0c3ca65c7a9cf06a86b997c8c30c2ab25999386a470c8565b",
    "charsum": "60f7695ad7ec3ee43610360959746a39715e8f48c4fe52a58aa81c27d41791ad",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_output_digest(command, tmp_path):
    assert main([command, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for name in (f"{command}.csv", "summary.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == GOLDEN[command]
