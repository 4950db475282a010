import csv
import gc
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fplab
from fplab import bounds, cli, field, suites
from fplab.cli import DEFAULTS, main, parse_config_file, resolve_config, write_resolved_config
from fplab.errors import ConfigError
from fplab.field import build_field
from fplab.geometry import collinear_triples
from fplab.report import ReportRow, count_failures, summarize, write_csv
from fplab.sets import random_set


class _Args:
    def __init__(self, **kw):
        self.config = None
        for k, v in kw.items():
            setattr(self, k, v)

    def __getattr__(self, name):
        return None


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_config_parse_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("primes = 5,7\nseed = 9\n# comment\nworkers = 3\n")
    parsed = parse_config_file(cfg_file)
    assert parsed == {"primes": "5,7", "seed": "9", "workers": "3"}
    cfg = resolve_config(_Args(config=str(cfg_file), seed=4))
    assert cfg["primes"] == [5, 7]
    assert cfg["seed"] == 4  # flag wins
    assert cfg["workers"] == 3


def test_config_rejects_bad_values(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("primes = 5,4,7\n")
    with pytest.raises(ConfigError, match="4 is not prime"):
        resolve_config(_Args(config=str(cfg_file)))
    cfg_file.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        resolve_config(_Args(config=str(cfg_file)))
    cfg_file.write_text("workers 2\n")
    with pytest.raises(ConfigError):
        resolve_config(_Args(config=str(cfg_file)))
    for key in ("region_check_grid", "region_table_grid"):
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"{key}: need >= 2, got 1"):
            resolve_config(_Args(config=str(cfg_file)))


@pytest.mark.parametrize("key", ["region_check_grid", "region_table_grid"])
@pytest.mark.parametrize("n", [cli.REGION_GRID_MAX + 1, 10**12])
def test_config_rejects_region_grid_past_budget(tmp_path, key, n):
    # rejected before any grid is built; the budget's largest grid keeps its
    # den = 100 (n - 1) inside the guard of `bounds`, and its n x n int64
    # temporaries at 32 MiB
    largest = cli.REGION_GRID_MAX
    assert 100 * (largest - 1) < bounds._DEN_LIMIT and 8 * largest**2 <= 32 * 2**20
    cfg_file = tmp_path / "grid.cfg"
    cfg_file.write_text(f"{key} = {n}\n")
    message = f"{key}: need <= {largest} (grid budget), got {n}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(_Args(command="regions", config=str(cfg_file)))


def test_every_flag_overrides_its_key(tmp_path):
    # each flag at a value other than its default; resolve_config must carry
    # every one of them into resolved.cfg
    out = tmp_path / "o"
    flags = {"--seed": "5", "--workers": "2", "--max-p": "1000",
             "--out": str(out), "--p": "61", "--m": "30", "--set-size": "5",
             "--x-len": "7", "--r": "2", "--subgroup-order": "12"}
    argv = ["charsum", "--timings"] + [t for pair in flags.items() for t in pair]
    assert main(argv) == 0
    lines = (out / "resolved.cfg").read_text().splitlines()
    resolved = dict(line.split(" = ", 1) for line in lines)
    want = {"seed": "5", "workers": "2", "max_p": "1000", "out": str(out),
            "timings": "True", "charsum_p": "61", "charsum_m": "30", "charsum_n": "5",
            "charsum_x": "7", "charsum_r": "2", "charsum_subgroup": "12"}
    assert all(str(DEFAULTS[key]) != value for key, value in want.items())
    assert {key: resolved[key] for key in want} == want


def test_max_p_filters_primes():
    cfg = resolve_config(_Args(max_p=7))
    assert cfg["primes"] == [p for p in DEFAULTS["primes"] if p <= 7]
    assert cfg["sweep_primes"] == []
    dropped = {}
    resolve_config(_Args(max_p=7), dropped)
    assert dropped == {"primes": [11, 13], "sweep_primes": DEFAULTS["sweep_primes"]}
    dropped = {}
    resolve_config(_Args(), dropped)
    assert dropped == {}


def test_report_row_helpers(tmp_path):
    rows = [
        ReportRow("a", 5, "x=1", 3, 3, None, "pass"),
        ReportRow("a", 5, "x=2", 3, 4, 0.75, "fail"),
        ReportRow("b", 7, "", None, None, None, "skip"),
    ]
    assert count_failures(rows) == 1
    summary = summarize(rows)
    assert summary["suites"]["a"] == {"pass": 1, "fail": 1, "skip": 0, "report": 0}
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "suite,p,params,measured,skeleton,ratio,status,ms"
    assert text[2] == "a,5,x=2,3,4,0.75,fail,0"
    with pytest.raises(ValueError):
        ReportRow("a", 5, "", status="bogus")


def _write_cfg(tmp_path, body):
    cfg_file = tmp_path / "t.cfg"
    cfg_file.write_text(body)
    return str(cfg_file)


def test_identities_command_green(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "primes = 5,7\n")
    out = tmp_path / "out"
    rc = main(["identities", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "identities.csv").read_text().splitlines()
    assert lines[0] == "suite,p,params,measured,skeleton,ratio,status,ms"
    assert all(",fail," not in line for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["suites"]["gram_structure"]["pass"] == 3
    resolved = (out / "resolved.cfg").read_text()
    assert "primes = 5,7" in resolved and "seed = 1" in resolved


def test_identities_empty_primes_exit_zero(tmp_path):
    # no per-prime rows: the gram rows, and the amplification rows at the
    # fallback p = 61, or their one skip row once max_p is below 61
    cfg = _write_cfg(tmp_path, "primes =\n")
    gram = {("gram_structure", q, "pass") for q in ("2", "3", "5")}
    for max_p, amp in (("61", {("amp_total", "61", "pass"), ("amp_second_moment", "61", "pass")}),
                       ("59", {("amp_total", "0", "skip")})):
        out = tmp_path / max_p
        assert main(["identities", "--config", cfg, "--max-p", max_p, "--out", str(out)]) == 0
        with open(out / "identities.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {(row["suite"], row["p"], row["status"]) for row in rows} == gram | amp
    assert rows[-1]["params"] == "requested_p=61;reason=AboveMaxP"  # the max_p = 59 run


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "primes = 6\n")
    rc = main(["identities", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "6 is not prime" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["primes", "sweep_primes"])
def test_config_rejects_two(tmp_path, key):
    cfg = _write_cfg(tmp_path, f"{key} = 5,2\n")
    with pytest.raises(ConfigError, match=f"{key}: 2 "):
        resolve_config(_Args(config=cfg))


@pytest.mark.parametrize("key", ["primes", "sweep_primes"])
def test_config_rejects_repeated_prime(tmp_path, key):
    cfg = _write_cfg(tmp_path, f"{key} = 61,61,127\n")
    with pytest.raises(ConfigError, match=f"{key}: 61 is repeated"):
        resolve_config(_Args(config=cfg))


def test_resolved_config_round_trips(tmp_path):
    # list keys as the comma strings that a flag or a config file carries
    off = {"primes": "7,11", "sweep_primes": "61", "seed": 5, "workers": 2,
           "max_p": 1000, "out": "elsewhere", "region_check_grid": 10, "region_table_grid": 3, "timings": True, "charsum_p": 61, "charsum_m": 30,
           "charsum_n": 5, "charsum_x": 7, "charsum_r": 2, "charsum_subgroup": 12}
    assert off.keys() == DEFAULTS.keys()
    assert all(off[key] != DEFAULTS[key] for key in DEFAULTS)
    path = tmp_path / "resolved.cfg"
    for cfg in (resolve_config(_Args()), resolve_config(_Args(**off))):
        write_resolved_config(cfg, path)
        assert resolve_config(_Args(config=str(path))) == cfg
    assert cfg == {**off, "primes": [7, 11], "sweep_primes": [61]}
    # a config file line ends at '#', so an out path holding one would not read back
    with pytest.raises(ConfigError, match="out: 'o#1'"):
        resolve_config(_Args(out="o#1"))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_lists_every_key(tmp_path):
    # the block, read as a config file, is resolved.cfg at the defaults
    block = README.read_text().split("### Configuration", 1)[1].split("```ini", 1)[1]
    documented = tmp_path / "readme.cfg"
    documented.write_text(block.split("```", 1)[0])
    resolved = tmp_path / "resolved.cfg"
    write_resolved_config(DEFAULTS, resolved)
    assert parse_config_file(documented) == parse_config_file(resolved)


def test_readme_flag_paragraph_lists_every_flag():
    text = README.read_text().split("Every command takes", 1)[1].split(".  ", 1)[0]
    common, charsum_only = text.split("`fplab charsum` alone also takes")
    for part, charsum in ((common, False), (charsum_only, True)):
        want = [f"{flag} {metavar}" if metavar else flag
                for flag, (key, metavar, _) in cli.FLAGS.items()
                if key.startswith("charsum_") == charsum]
        assert sorted(re.findall(r"`(--[^`]+)`", part)) == sorted(want)


def test_oracles_reproducible_and_skips(tmp_path):
    cfg = _write_cfg(tmp_path, "primes = 7,37\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["oracles", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["oracles", "--config", cfg, "--out", str(out2)]) == 0
    assert _read(out1 / "oracles.csv") == _read(out2 / "oracles.csv")
    text = (out1 / "oracles.csv").read_text()
    assert ",skip," in text  # p = 37 exceeds the oracle prime cap
    # the e3 referee's cost does not grow with p, so it runs at p = 37 too
    assert [line.split(",")[-2] for line in text.splitlines()
            if line.startswith("e3_oracle,37,")] == ["pass"] * 5


def test_sweep_max_p_50_reports_dropped_primes(tmp_path):
    out = tmp_path / "s"
    assert main(["sweep", "--max-p", "50", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dropped_primes"] == {"sweep_primes": DEFAULTS["sweep_primes"]}
    assert summary["slopes"] == {}
    assert set(summary["failed_fits"].values()) == {"need >= 4 usable rows, have 0"}


def test_sweep_above_the_default_cap(tmp_path):
    # max_p raised past DEFAULT_CAP = 2^20: every cell builds its field under
    # the 2^24 ceiling, not under the default cap
    cfg = tmp_path / "one.cfg"
    cfg.write_text("sweep_primes = 1048583\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--max-p", "2000000", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["p"] for row in rows} == {"1048583"}


def test_sweep_at_p3_skips_the_subgroup_cell(tmp_path):
    # X = 3 is no interval length in F_3
    out = tmp_path / "s"
    cfg = _write_cfg(tmp_path, "sweep_primes = 3\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("sweep_subgroup")] == [
        "sweep_subgroup,3,X=3;reason=precondition,,,,skip,0"]


def test_sweep_reports_failed_fits(tmp_path):
    cfg = _write_cfg(tmp_path, "sweep_primes = 61,127,251\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--max-p", "200", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dropped_primes"] == {"sweep_primes": [251]}
    assert summary["slopes"] == {}
    failed = summary["failed_fits"]
    assert sorted(failed) == ["poly_e2_d2", "poly_e2_d3", "poly_t3_d2", "poly_t3_d3",
                              "subgroup_e3", "thm11_ratio"]
    assert failed["subgroup_e3"] == "driver must span at least one decade"
    assert failed["thm11_ratio"] == "need >= 4 usable rows, have 2"


def test_sweep_workers_agree(tmp_path):
    cfg = _write_cfg(tmp_path, "sweep_primes = 61,127\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert _read(out1 / "sweep.csv") == _read(out2 / "sweep.csv")
    assert _read(out1 / "summary.json") == _read(out2 / "summary.json")
    summary = json.loads((out1 / "summary.json").read_text())
    # every family writes a row here (skip rows count), and nothing else does
    assert set(summary["suites"]) == {f"sweep_{name}" for name in suites._FAMILIES}


def test_sweep_pool_runs_largest_p_first_and_fits_in_task_order(tmp_path, monkeypatch):
    # the serial and the pooled sweep run one task list, largest p first, so
    # every fit reads the same records in the same order (the fit's own order
    # independence is tested in test_bounds)
    ran, fit_inputs = [], []
    run_cell = suites._run_cell

    def recording_run_cell(task):
        ran.append(task[:2])
        return run_cell(task)

    def in_process_fork_map(fn, tasks, workers):
        return [fn(task) for task in tasks]

    real_fit = bounds.exponent_fit

    def recording_fit(recs, quantity, driver):
        fit_inputs.append((quantity, driver, list(recs)))
        return real_fit(recs, quantity, driver)

    monkeypatch.setattr(suites, "_run_cell", recording_run_cell)
    monkeypatch.setattr(suites, "_fork_map", in_process_fork_map)
    monkeypatch.setattr(bounds, "exponent_fit", recording_fit)
    cfg = _write_cfg(tmp_path, "sweep_primes = 61,127,251\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    serial_cells, serial_fits = list(ran), list(fit_inputs)
    ran[:], fit_inputs[:] = [], []
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "pool"),
                 "--workers", "2"]) == 0
    # four families at each of the three primes, plus the one poly cell
    families = ["tabc", "nsxy", "subgroup", "thm11"]
    want = ([(f, 251) for f in families] + [("poly", 251)]
            + [(f, p) for p in (127, 61) for f in families])
    assert serial_cells == ran == want and len(want) == 13
    assert fit_inputs == serial_fits


@pytest.mark.parametrize("sweep_primes", [DEFAULTS["sweep_primes"], [65521, 262139, 1048573]],
                         ids=["default", "cap"])
def test_every_fit_record_names_a_fit_spec(monkeypatch, sweep_primes):
    # run_sweep reads fit records by name, so a record named after no spec in
    # _FAMILIES would be dropped without a word
    records = []
    run_cell = suites._run_cell

    def recording_run_cell(task):
        rows, fits, ms = run_cell(task)
        records.extend(fits)
        return rows, fits, ms

    monkeypatch.setattr(suites, "_run_cell", recording_run_cell)
    rows, fits = suites.run_sweep({**DEFAULTS, "sweep_primes": sweep_primes})
    specs = {fit[0] for family in suites._FAMILIES.values() for fit in family.fits}
    assert {rec["family"] for rec in records} == specs
    summary = summarize(rows, fits)
    assert set(summary["slopes"]) | set(summary.get("failed_fits", {})) == specs


def test_commands_leave_unused_modules_unimported(tmp_path):
    # numpy 2.x imports numpy.ma (about 10 ms) the first time a bare
    # np.unique or an np.unique(axis=...) runs; the default sweep runs neither.
    # No command needs hashlib (OpenSSL's libcrypto, about 3.6 MB),
    # fractions and decimal (about 0.4 MB), or a pool library (about 1.3 MB:
    # the sweep forks its workers itself), or argparse with the gettext and
    # locale it imports (about 5.5 ms a command), so no process pays for them
    unused = ["numpy.ma", "hashlib", "_hashlib", "fractions", "decimal",
              "concurrent.futures", "multiprocessing", "argparse", "gettext", "locale"]
    code = (
        "import sys\n"
        "from fplab.cli import main\n"
        f"if main(['sweep', '--out', {str(tmp_path / 'sweep')!r}]) != 0:\n"
        "    raise SystemExit('sweep failed')\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    raise SystemExit('numpy.ma imported')\n"
        "for command in ['identities', 'oracles', 'regions', 'charsum']:\n"
        f"    if main([command, '--out', {str(tmp_path)!r} + '/' + command]) != 0:\n"
        "        raise SystemExit(command + ' failed')\n"
        "serial = [name for name in ('select', 'signal') if name in sys.modules]\n"
        "if serial:\n"
        "    raise SystemExit(f'imported by a serial command: {serial}')\n"
        f"if main(['sweep', '--workers', '2', '--out', {str(tmp_path / 'pool')!r}]) != 0:\n"
        "    raise SystemExit('pooled sweep failed')\n"
        f"imported = [name for name in {unused!r} if name in sys.modules]\n"
        "if imported:\n"
        "    raise SystemExit(f'imported: {imported}')\n"
    )
    src = str(Path(fplab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(-2**70, -1), st.just(0), st.integers(2**64, 2**70), st.integers()),
    st.lists(st.one_of(st.integers(), st.text(st.characters(blacklist_categories=("Cs",)))),
             max_size=4),
)
def test_subseed_is_sha256_prefix(master, parts):
    # referee: the first 16 hex digits of hashlib's SHA-256 of the |-joined parts
    text = "|".join(str(x) for x in (master, *parts))
    assert suites.subseed(master, *parts) == int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def test_subseed_pinned_values():
    assert suites.subseed(1000, "sw_tabc", 1048573, 2) == 12140595170225197533
    assert suites.subseed(13, "sw_thm11", 1021) == 9631163229440233484
    assert suites.subseed(-1, 7, "a|b") == 16167355168178841572


def test_tabc_deviation_matches_fraction_referee():
    # dev = |t - (|A||B||C|)^2 / p|, rounded once from the exact rational
    for p in (8191, 1048573):
        fld = build_field(p)
        target = max(2, round(p**0.3))
        rows, _ = suites._cell_tabc(p, 1000)
        for i in range(3):
            rng = random.Random(suites.subseed(1000, "sw_tabc", p, i))
            a, b, c = (suites._draw(fld, rng, max(1, target // 2), target) for _ in range(3))
            abc = len(a) * len(b) * len(c)
            dev = float(abs(Fraction(collinear_triples(a, b, c)) - Fraction(abc * abc, p)))
            assert [row.measured for row in rows[3 * i:3 * i + 3]] == [dev] * 3


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16777213), st.integers(1, 2**40), st.integers(-2**20, 2**20))
@example(16777213, 3 * 2**31, 0)
@example(16777213, 3 * 2**31, 1)
@example(16777213, 2**40, -2**20)
def test_integer_deviation_matches_fraction(p, abc, offset):
    # the tabc cell's dev in ints, at t near abc^2 / p, with abc^2 past 2^63
    t = max(0, abc * abc // p + offset)
    assert abs(t * p - abc * abc) / p == float(abs(Fraction(t) - Fraction(abc * abc, p)))


CAP_PRIMES = [65521, 262139, 1048573]


def test_default_commands_reach_no_blas_or_lapack(tmp_path, monkeypatch):
    # the slope fits are exact integer least squares and a real character's
    # sums are integer counts, so no default command loads LAPACK (np.polyfit
    # through numpy.linalg.lstsq) or calls a BLAS dot
    def no_blas(*args, **kw):
        raise AssertionError("reached BLAS or LAPACK")

    monkeypatch.setattr(np, "polyfit", no_blas)
    monkeypatch.setattr(np.linalg, "lstsq", no_blas)
    monkeypatch.setattr(np, "dot", no_blas)
    cap = _write_cfg(tmp_path, f"sweep_primes = {','.join(map(str, CAP_PRIMES))}\n")
    assert main(["sweep", "--workers", "1", "--out", str(tmp_path / "s")]) == 0
    assert main(["sweep", "--config", cap, "--workers", "1", "--out", str(tmp_path / "c")]) == 0
    assert main(["charsum", "--out", str(tmp_path / "ch")]) == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["slopes"]


def test_cap_sweep_builds_no_index_table(tmp_path, monkeypatch):
    # the sweep reads the squares bitmap for its real character, once a
    # prime, and Fermat inverses for its ratio keys, never a discrete-log table
    def no_index_table(p, g):
        raise AssertionError(f"ind built at p = {p}")

    bitmaps = []
    squares_bitmap = field._squares_bitmap
    monkeypatch.setattr(field, "_index_table", no_index_table)
    monkeypatch.setattr(field, "_squares_bitmap", lambda p: bitmaps.append(p) or squares_bitmap(p))
    cfg = _write_cfg(tmp_path, f"sweep_primes = {','.join(map(str, CAP_PRIMES))}\n")
    assert main(["sweep", "--config", cfg, "--workers", "1", "--out", str(tmp_path / "s")]) == 0
    assert sorted(bitmaps) == CAP_PRIMES


def test_sweep_frees_its_fields(monkeypatch):
    # no field outlives the sweep that built it, so neither do its tables
    built = []

    def recording_build_field(*args):
        fld = build_field(*args)
        built.append(weakref.ref(fld))
        return fld

    monkeypatch.setattr(suites, "build_field", recording_build_field)
    rows, fits = suites.run_sweep({**DEFAULTS, "sweep_primes": CAP_PRIMES})
    gc.collect()
    assert rows and fits and built
    assert [ref() for ref in built] == [None] * len(built)


@pytest.mark.parametrize("cell, seed, budget", [
    (suites._cell_tabc, 2, 20e6),
    (suites._cell_tabc, 1000, 20e6),
    (suites._cell_thm11, 2, 7e6),
])
def test_ceiling_cells_memory_budget(cell, seed, budget):
    # at p = 16777213, field tables included: the int32 ind table alone is
    # 67 MB, and the cells peaked at 83.6 (tabc, seed 2), 134.7 (tabc, seed
    # 1000) and 70.9 MB (thm11) when they built it.  thm11 peaks at 4.9 MB
    # with the squares as 2.1 MB of packed words (17.6 MB with the bool
    # bitmap of 1 byte per residue)
    tracemalloc.start()
    try:
        cell(16777213, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


@pytest.mark.parametrize("cell, p, budget", [
    (suites._cell_poly, 1048573, 2e6),
    (suites._cell_poly, 16777213, 2e6),
    (suites._cell_thm11, 1048573, 1e6),
])
def test_sweep_cells_memory_budget(cell, p, budget):
    # field tables included.  The poly cell peaks at 1.32 MB at 1048573 and
    # 1.16 MB at 16777213: its largest T3 scatters into one int16 window of
    # 2^17 sums at a time (256 KB), where a length-p int16 array (2.1 and
    # 33.6 MB) took it to 2.67 and 13.2 MB.  thm11 peaks at 0.69 MB, counting
    # its row sums off the 131 KB squares words at the windows' ends
    tracemalloc.start()
    try:
        cell(p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def _legendre_sum(s_set, x_len):
    """sum over s in S and x in the interval {1, ..., x_len} of the Legendre
    symbol of s + x, by Euler's criterion with pow."""
    p = s_set.field.p
    symbols = (pow((s + x) % p, (p - 1) // 2, p) for s in s_set for x in range(1, x_len + 1))
    return sum(-1 if e == p - 1 else e for e in symbols)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return {(row["p"], row["params"]): row for row in csv.DictReader(fh)}


def test_real_character_sums_read_exact_zeros(tmp_path):
    # the quadratic character's sums are integers: where W = 0 the rows read
    # 0, not the 1e-14 that roots of unity from np.exp left (4.5e-14 in the
    # sweep's row, 5.5e-15 in charsum's), and the zero ratio drops out of the
    # thm11_ratio fit (n = 7, not 8)
    rng = random.Random(suites.subseed(13, "sw_thm11", 1021))
    assert _legendre_sum(random_set(build_field(1021), 32, rng.randrange(2**31)), 23) == 0
    assert main(["sweep", "--seed", "13", "--out", str(tmp_path / "s")]) == 0
    row = _csv_rows(tmp_path / "s" / "sweep.csv")[("1021", "S=32;X=23;r=3;chi=quadratic")]
    assert (row["suite"], row["measured"], row["ratio"]) == ("sweep_thm11", "0", "0")
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["slopes"]["thm11_ratio"]["n"] == 7

    s_set = random_set(build_field(101), 10, suites.subseed(19, "charsum", 101))
    assert _legendre_sum(s_set, 9) == 0
    assert main(["charsum", "--seed", "19", "--out", str(tmp_path / "c")]) == 0
    rows = _csv_rows(tmp_path / "c" / "charsum.csv")
    for params in ("m=50;nS=10;X=9;stat=W", "m=50;nS=10;X=9;r=3;stat=rhs"):
        assert (rows["101", params]["measured"], rows["101", params]["ratio"]) == ("0", "0")


@pytest.mark.parametrize("flags, pools", [
    (["--workers", "5000"], [5]),  # one prime: four families plus the poly cell
    (["--workers", "5000", "--max-p", "50"], []),  # no cells: no pool at all
    (["--workers", "2"], [2]),
    ([], []),  # one worker runs the cells in-process
])
def test_sweep_pool_never_outnumbers_cells(tmp_path, monkeypatch, flags, pools):
    # a pool forks all its workers up front, so its size must be capped at the
    # cell count; the fake records the size and runs the cells in-process
    made = []

    def recording_fork_map(fn, tasks, workers):
        made.append(workers)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(suites, "_fork_map", recording_fork_map)
    cfg = _write_cfg(tmp_path, "sweep_primes = 61\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 0
    assert made == pools


_FORK_MAP_CASES = {
    # the 20,000 replies, about 100 bytes each, are 30 times a pipe's 64 KiB,
    # so the workers fill their result pipes before the parent reads them
    "order": (
        "got = suites._fork_map(lambda x: [-x] * 16, range(20000), 2)\n"
        "assert got == [[-x] * 16 for x in range(20000)]\n"
    ),
    # the idle workers read the end token and leave
    "more_workers_than_items": (
        "assert suites._fork_map(lambda x: -x - 1, range(1), 3) == [-1]\n"
    ),
    "exception": (
        "def fn(x):\n"
        "    if x == 7:\n"
        "        raise ValueError('cell 7 failed')\n"
        "    return x\n"
        "try:\n"
        "    suites._fork_map(fn, range(20), 3)\n"
        "except ValueError as exc:\n"
        "    assert str(exc) == 'cell 7 failed', exc\n"
        "else:\n"
        "    raise AssertionError('no error')\n"
    ),
    "exit": (
        "def fn(x):\n"
        "    if x == 7:\n"
        "        os._exit(3)\n"
        "    return x\n"
        "try:\n"
        "    suites._fork_map(fn, range(20), 3)\n"
        "except ChildProcessError as exc:\n"
        "    assert 'exit status 3' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no error')\n"
    ),
    # a worker that exits with status 0 mid-item still returns no result
    "exit0": (
        "def fn(x):\n"
        "    if x == 7:\n"
        "        os._exit(0)\n"
        "    return x\n"
        "try:\n"
        "    suites._fork_map(fn, range(20), 3)\n"
        "except ChildProcessError as exc:\n"
        "    assert 'exit status 0' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no error')\n"
    ),
    "signal": (
        "import signal\n"
        "try:\n"
        "    suites._fork_map(lambda x: os.kill(os.getpid(), signal.SIGKILL), range(4), 2)\n"
        "except ChildProcessError as exc:\n"
        "    assert f'signal {signal.SIGKILL:d}' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no error')\n"
    ),
}


@pytest.mark.parametrize("case", sorted(_FORK_MAP_CASES))
def test_fork_map_returns_raises_and_reaps(case):
    # in a subprocess with a timeout, so a deadlock fails the test instead of
    # stalling the suite; afterwards no worker may be left unreaped
    code = (
        "import os\n"
        "from fplab import suites\n"
        + _FORK_MAP_CASES[case]
        + "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a worker is left unreaped')\n"
    )
    # in its own session, so a timeout kills the forked workers with it
    src = str(Path(fplab.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{case} did not finish in 60 s")
    assert proc.returncode == 0, err


@pytest.mark.parametrize("value, threads", [(None, 1), ("2", 2)])
def test_openblas_pool_is_one_thread_unless_set(value, threads):
    # importing fplab caps OpenBLAS at one thread, so numpy starts no pool
    # thread, and keeps a cap the caller set
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    env["PYTHONPATH"] = str(Path(fplab.__file__).resolve().parents[1])
    code = "import os, fplab.cli\nprint(len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == threads


def test_regions_command(tmp_path):
    cfg = _write_cfg(tmp_path, "region_check_grid = 40\nregion_table_grid = 8\n")
    out = tmp_path / "r"
    rc = main(["regions", "--config", cfg, "--out", str(out)])
    assert rc == 0
    text = (out / "regions.csv").read_text()
    assert "region_boundary" in text and "region_table" in text
    assert ",fail," not in text


def test_charsum_command(tmp_path):
    out = tmp_path / "c"
    rc = main(
        ["charsum", "--out", str(out), "--p", "101", "--m", "50",
         "--set-size", "8", "--x-len", "9"]
    )
    assert rc == 0
    text = (out / "charsum.csv").read_text()
    assert "stat=W" in text and "stat=modulus" in text


PARAM = re.compile(r"[A-Za-z_]\w*=[^;=\s]+")


@pytest.mark.parametrize("command, body", [
    ("identities", ""), ("oracles", ""), ("sweep", ""), ("regions", ""), ("charsum", ""),
    ("sweep", f"sweep_primes = {','.join(map(str, CAP_PRIMES))}\n"),
], ids=["identities", "oracles", "sweep", "regions", "charsum", "sweep_cap"])
def test_every_row_params_grammar(tmp_path, command, body):
    out = tmp_path / "o"
    assert main([command, "--config", _write_cfg(tmp_path, body), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as fh:
        params = [row["params"] for row in csv.DictReader(fh)]
    assert params
    bad = [ps for ps in params if not all(PARAM.fullmatch(f) for f in ps.split(";"))]
    assert not bad, bad


@pytest.mark.parametrize("command, max_p, skipped", [
    ("identities", 12, "amp_total"),  # no prime in [13, 61]; the fallback 61 is above
    ("identities", 4, "amp_total"),  # and the fixed gram rows stop at p = 3
    ("oracles", 4, "count_n_oracle"),  # no prime left; the fallback 31 is above
])
def test_fallback_primes_stay_within_max_p(tmp_path, command, max_p, skipped):
    out = tmp_path / "o"
    assert main([command, "--max-p", str(max_p), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(int(row["p"]) <= max_p for row in rows)
    skips = [row for row in rows if row["suite"] == skipped]
    assert [row["status"] for row in skips] == ["skip"]
    fields = skips[0]["params"].split(";")
    assert all(PARAM.fullmatch(f) for f in fields), fields
    assert fields[-1] == "reason=AboveMaxP"


@pytest.mark.parametrize("x_len, reason", [
    (40, "PreconditionViolatedError"),  # S^2 X > p^2
    (60, "LengthOutOfRangeError"),  # the radius-X symmetric interval exceeds F_p
])
def test_charsum_skip_row_params_grammar(tmp_path, x_len, reason):
    out = tmp_path / "c"
    rc = main(
        ["charsum", "--out", str(out), "--p", "101", "--set-size", "60",
         "--x-len", str(x_len)]
    )
    assert rc == 0
    with open(out / "charsum.csv", newline="") as fh:
        skips = [row for row in csv.DictReader(fh) if row["status"] == "skip"]
    assert len(skips) == 1
    fields = skips[0]["params"].split(";")
    assert all(PARAM.fullmatch(f) for f in fields), fields
    assert f"reason={reason}" in fields


def test_charsum_subgroup_source(tmp_path):
    out = tmp_path / "cs"
    rc = main(
        ["charsum", "--out", str(out), "--p", "61", "--m", "30",
         "--subgroup-order", "12", "--x-len", "7"]
    )
    assert rc == 0
    assert "nS=12" in (out / "charsum.csv").read_text()


def test_timings_flag_stamps_rows(tmp_path):
    cfg = _write_cfg(tmp_path, "primes = 5\n")
    out = tmp_path / "t"
    assert main(["identities", "--config", cfg, "--out", str(out), "--timings"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "elapsed_ms" in summary


def test_timings_stamp_each_sweep_cell(tmp_path):
    cfg = _write_cfg(tmp_path, "sweep_primes = 61,4093\n")
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    assert main(["sweep", "--config", cfg, "--out", str(plain)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(timed), "--timings"]) == 0
    plain_summary = json.loads((plain / "summary.json").read_text())
    assert "timings" not in plain_summary and "elapsed_ms" not in plain_summary
    assert all(line.endswith(",0") for line in (plain / "sweep.csv").read_text().splitlines()[1:])
    cells = {}
    for line in (timed / "sweep.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        cells.setdefault((fields[0], int(fields[1])), set()).add(int(fields[-1]))
    # every row of a cell carries that cell's own wall time, and cells differ
    assert all(len(ms) == 1 for ms in cells.values())
    assert len({ms for (ms,) in cells.values()}) >= 2
    timings = json.loads((timed / "summary.json").read_text())["timings"]
    assert set(timings) == {suite for suite, _ in cells}
    for suite, total in timings.items():
        assert total == sum(ms for (s, _), (ms,) in cells.items() if s == suite)


@pytest.mark.parametrize("body, flags, message", [
    ("epsilon = 0.5\n", [], "unknown config key 'epsilon'"),
    ("identity_trials = 3\n", [], "unknown config key 'identity_trials'"),
    ("amp_trials = 3\n", [], "unknown config key 'amp_trials'"),
    ("oracle_trials = 3\n", [], "unknown config key 'oracle_trials'"),
    ("timings = maybe\n", [], "timings: expected true or false, got 'maybe'"),
    (None, [], "missing.cfg: No such file or directory"),
    ("", ["--set-size", "0"], "charsum_n: need >= 1, got 0"),
    ("charsum_x = 0\n", [], "charsum_x: need >= 1, got 0"),
    ("oracle_max_size = 8\n", [], "unknown config key 'oracle_max_size'"),
    ("", ["--p", "100"], "charsum_p: 100 is not prime"),
    ("charsum_p = 2\n", [], "charsum_p: 2 is below 3"),
    ("", ["--p", "211", "--max-p", "150"], "charsum_p: 211 is above max_p = 150"),
    ("", ["--m", "500"], "charsum_m: need <= 99 at charsum_p = 101, got 500"),
    ("charsum_m = -1\n", [], "charsum_m: need >= 0, got -1"),
    ("", ["--r", "0"], "charsum_r: need >= 1, got 0"),
    ("", ["--x-len", "200"], "charsum_x: need <= 100 at charsum_p = 101, got 200"),
    ("", ["--set-size", "500"], "charsum_n: need <= 101 at charsum_p = 101, got 500"),
    ("", ["--subgroup-order", "7"], "charsum_subgroup: 7 does not divide charsum_p - 1 = 100"),
    ("charsum_subgroup = -4\n", [], "charsum_subgroup: need >= 0, got -4"),
    ("max_p = 16777217\n", [], "max_p: need <= 16777216, got 16777217"),
    ("", ["--seed", "abc"], "seed: expected an integer, got 'abc'"),
    ("", ["--workers", "2.5"], "workers: expected an integer, got '2.5'"),
    ("", ["--workers", "-1"], "workers: need >= 1, got -1"),
], ids=["epsilon", "identity_trials", "amp_trials", "oracle_trials", "timings", "missing_file",
        "charsum_n_flag", "charsum_x", "oracle_max_size", "charsum_p_not_prime", "charsum_p_below_3", "charsum_p_above_max_p",
        "charsum_m_above", "charsum_m_below", "charsum_r_below", "charsum_x_above",
        "charsum_n_above", "charsum_subgroup_not_divisor", "charsum_subgroup_below",
        "max_p_above_ceiling", "seed_flag", "workers_flag_float",
        "workers_flag_negative"])
def test_config_input_errors_exit_2(tmp_path, capsys, body, flags, message):
    cfg = tmp_path / "missing.cfg"
    if body is not None:
        cfg.write_text(body)
    rc = main(["charsum", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_flag_value_and_flag_equals_value_agree(tmp_path):
    out = tmp_path / "o"
    flags = {"--seed": "5", "--max-p": "1000", "--p": "61", "--m": "30",
             "--set-size": "5", "--x-len": "7", "--r": "2", "--subgroup-order": "12",
             "--out": str(out)}
    assert main(["charsum"] + [t for pair in flags.items() for t in pair]) == 0
    spaced = _read(out / "resolved.cfg")
    assert main(["charsum"] + [f"{flag}={value}" for flag, value in flags.items()]) == 0
    assert _read(out / "resolved.cfg") == spaced
    assert b"charsum_subgroup = 12" in spaced


@pytest.mark.parametrize("argv, token", [
    ([], "expected a command"),
    (["bogus", "--out", "o"], "'bogus'"),
    (["sweep", "--bogus", "1", "--out", "o"], "'--bogus'"),
    (["sweep", "--epsilon", "0.5", "--out", "o"], "fplab sweep takes no flag '--epsilon'"),
    (["sweep", "--p", "61", "--out", "o"], "fplab sweep takes no flag '--p'"),
    (["charsum", "--set", "5", "--out", "o"], "'--set'"),
    (["sweep", "--out", "o", "--seed"], "--seed needs a value"),
    (["sweep", "--seed", "--out", "o"], "--seed needs a value"),
    (["sweep", "--out", "o", "--timings=yes"], "'--timings=yes'"),
], ids=["no_command", "unknown_command", "unknown_flag", "epsilon_flag",
        "charsum_flag_on_sweep", "abbreviation", "missing_last_value", "value_is_a_flag",
        "switch_with_value"])
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv, token):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert token in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["charsum", "-h"], ["charsum", "--help"],
                                  ["sweep", "-h"], ["sweep", "--seed", "3", "--help"]],
                         ids=["h", "help", "charsum_h", "charsum_help", "sweep_h",
                              "sweep_help_after_a_flag"])
def test_help_lists_commands_and_flags(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    if len(argv) == 1:
        assert all(f"\n  {name} " in text for name in cli.COMMANDS)
        return
    command = argv[0]
    listed = {flag for flag in cli.FLAGS if f"\n  {flag} " in text}
    want = {flag for flag, (key, _, _) in cli.FLAGS.items()
            if command == "charsum" or not key.startswith("charsum_")}
    assert listed == want and len(want) == (12 if command == "charsum" else 6)


def test_module_entry_point_reads_sys_argv(tmp_path):
    # `python -m fplab.cli` runs sys.exit(main()) on sys.argv
    src = str(Path(fplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, "-m", "fplab.cli"]
    done = subprocess.run(run + ["--help"], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and "charsum" in done.stdout
    done = subprocess.run(run + ["sweep", "--bogus"], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "'--bogus'" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["charsum", "-h"], ["regions", "--out", "o"]],
                         ids=["help", "regions"])
def test_closed_stdout_is_no_error(tmp_path, argv, unbuffered):
    # `fplab charsum -h | head -1`: the reader may close the pipe before fplab
    # writes; under PYTHONUNBUFFERED the print itself meets the closed pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(fplab.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "fplab.cli", *argv], env=env,
                              cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_unwritable_out_exits_2_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    # out under a regular file cannot be made; the command must say so
    # before its runner spends any compute
    def no_run(cfg, timer):
        raise AssertionError("the runner ran")

    blocker = tmp_path / "file"
    blocker.write_text("")
    doc, _ = cli.COMMANDS["regions"]
    monkeypatch.setitem(cli.COMMANDS, "regions", (doc, no_run))
    out = blocker / "sub"
    assert main(["regions", "--out", str(out)]) == 2
    assert f"config error: out: {out}: Not a directory" in capsys.readouterr().err
