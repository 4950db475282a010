"""Command-line front end.

Commands: identities, oracles, sweep, regions, charsum.  Each run writes
<out>/<command>.csv, <out>/summary.json and <out>/resolved.cfg; the process
exits nonzero exactly when some pass/fail row failed.  Report-only rows
(bound-skeleton ratios) never affect the exit code.

Configuration is a flat `key = value` text file; command-line flags override
file values.  With the default settings output files are byte-identical for
identical (config, seed); --timings stamps each row with the wall time of
the block that produced it (a sweep cell, or one loop of a suite) and adds
per-suite totals to the summary, at the cost of that byte-stability.
Flag names are exact (no abbreviations), and -h prints the commands or one
command's flags.  Usage and config errors exit 2.
"""

import math
import os
import sys
import time
from types import SimpleNamespace

from .errors import ConfigError, FplabError, UsageError
from .field import DEFAULT_CAP, P_CEILING, is_prime
from .report import count_failures, summarize, write_csv, write_json
from .suites import (
    BlockTimer,
    run_charsum,
    run_identity_suite,
    run_oracle_suite,
    run_region_suite,
    run_sweep,
)

DEFAULTS = {
    "primes": [5, 7, 11, 13],
    "sweep_primes": [61, 127, 251, 509, 1021, 2039, 4093, 8191],
    "seed": 1,
    "workers": 1,
    "epsilon": 0.0,
    "max_p": DEFAULT_CAP,
    "out": "fplab-out",
    "identity_trials": 8,
    "amp_trials": 6,
    "oracle_trials": 10,
    "region_check_grid": 200,
    "region_table_grid": 24,
    "timings": False,
    "charsum_p": 101,
    "charsum_m": 50,
    "charsum_n": 10,
    "charsum_x": 9,
    "charsum_r": 3,
    "charsum_subgroup": 0,
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}

# command: (help, runner).  A runner takes (cfg, timer) and returns (rows,
# fits).  Each lambda looks its suite up in this module when it runs, so a
# wrapper rebound over that name (as perfbench/tracer.py does) is the one called.
COMMANDS = {
    "identities": ("exact identity suite (lines, Gram, amplification, Fourier)",
                   lambda cfg, timer: run_identity_suite(cfg, timer)),
    "oracles": ("fast-path vs brute-force equality suite",
                lambda cfg, timer: run_oracle_suite(cfg, timer)),
    "sweep": ("bound-skeleton sweep with fitted slopes",
              lambda cfg, timer: run_sweep(cfg, timer)),
    "regions": ("exponent-region table and threshold checks",
                lambda cfg, timer: run_region_suite(cfg, timer)),
    "charsum": ("single bilinear character-sum evaluation",
                lambda cfg, timer: run_charsum(cfg, timer)),
}

# flag: (config key, metavar, help).  Only `fplab charsum` takes the flags of
# the charsum_* keys; --timings, the one bool key, takes no value.
FLAGS = {
    "--config": ("config", "PATH", "path to a key = value config file"),
    "--seed": ("seed", "N", "master seed for all randomness"),
    "--workers": ("workers", "N", "parallel workers for sweep cells"),
    "--out": ("out", "DIR", "output directory"),
    "--epsilon": ("epsilon", "F", "exponent standing in for p^o(1)"),
    "--max-p": ("max_p", "N", "drop primes above this"),
    "--timings": ("timings", None, "stamp wall times into rows (breaks byte-identical outputs)"),
    "--p": ("charsum_p", "N", "the prime p"),
    "--m": ("charsum_m", "N", "character index in [0, p - 2]"),
    "--set-size": ("charsum_n", "N", "random-set size"),
    "--x-len": ("charsum_x", "N", "interval length"),
    "--r": ("charsum_r", "N", "the parameter r of the main bound"),
    "--subgroup-order": ("charsum_subgroup", "N", "S is the subgroup of this order when nonzero"),
}
_USAGE = "usage: fplab {} [--flag VALUE | --flag=VALUE | --timings] ..."


def parse_config_file(path) -> dict:
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}")
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _coerce(key, value):
    """Parse value as the type of the key's default."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    if kind is list:
        items = [t for t in str(value).replace(",", " ").split() if t]
        try:
            return [int(t) for t in items]
        except ValueError:
            raise ConfigError(f"{key}: expected integers, got {value!r}")
    if kind is float:
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if not math.isfinite(number):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return number
    if kind is bool:
        try:
            return _BOOL_WORDS[str(value).lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected true or false, got {value!r}")
    if kind is str:
        return str(value)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _check_prime(key, p):
    if not is_prime(p):
        raise ConfigError(f"{key}: {p} is not prime")
    if p < 3:
        raise ConfigError(f"{key}: {p} is below 3 (p = 2 is not supported)")


def resolve_config(args, dropped=None) -> dict:
    """Defaults, then the config file, then flags.  Primes above max_p are
    removed; a `dropped` dict receives them as {key: [p, ...]}."""
    cfg = dict(DEFAULTS)
    if args.config:
        for key, value in parse_config_file(args.config).items():
            cfg[key] = _coerce(key, value)
    # each given flag sits under its config key, as the string a file carries
    for key, value in vars(args).items():
        if key in DEFAULTS:
            cfg[key] = _coerce(key, value)
    if cfg["max_p"] > P_CEILING:
        raise ConfigError(f"max_p: need <= {P_CEILING}, got {cfg['max_p']}")
    for key in ("primes", "sweep_primes"):
        for p in cfg[key]:
            _check_prime(key, p)
            if cfg[key].count(p) > 1:
                raise ConfigError(f"{key}: {p} is repeated")
        above = [p for p in cfg[key] if p > cfg["max_p"]]
        if above and dropped is not None:
            dropped[key] = above
        cfg[key] = [p for p in cfg[key] if p <= cfg["max_p"]]
    p = cfg["charsum_p"]
    _check_prime("charsum_p", p)
    # a default charsum_p above a small max_p concerns only `fplab charsum`
    if args.command == "charsum" and p > cfg["max_p"]:
        raise ConfigError(f"charsum_p: {p} is above max_p = {cfg['max_p']}")
    for key, least in (("workers", 1), ("region_check_grid", 2), ("region_table_grid", 2),
                       ("charsum_n", 1), ("charsum_x", 1),
                       ("identity_trials", 0), ("amp_trials", 0), ("oracle_trials", 0),
                       ("charsum_m", 0), ("charsum_r", 1), ("charsum_subgroup", 0)):
        if cfg[key] < least:
            raise ConfigError(f"{key}: need >= {least}, got {cfg[key]}")
    for key, most in (("charsum_m", p - 2), ("charsum_n", p), ("charsum_x", p - 1)):
        if cfg[key] > most:
            raise ConfigError(f"{key}: need <= {most} at charsum_p = {p}, got {cfg[key]}")
    order = cfg["charsum_subgroup"]
    if order and (p - 1) % order:
        raise ConfigError(f"charsum_subgroup: {order} does not divide charsum_p - 1 = {p - 1}")
    # parse_config_file cuts lines at '#', so resolved.cfg could not hold it
    if "#" in cfg["out"]:
        raise ConfigError(f"out: {cfg['out']!r} holds '#', which a config file cannot")
    return cfg


def write_resolved_config(cfg, path):
    with open(path, "w") as fh:
        for key in sorted(cfg):
            value = cfg[key]
            if isinstance(value, list):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {value}\n")


def _help(command):
    """The commands, or the flags that one command takes."""
    if command is None:
        rows = [(name, doc) for name, (doc, _) in COMMANDS.items()]
    else:
        rows = [(f"{flag} {metavar or ''}", doc) for flag, (key, metavar, doc) in FLAGS.items()
                if command == "charsum" or not key.startswith("charsum_")]
    about = COMMANDS[command][0] if command else "exact-counting suites over prime fields"
    lines = [_USAGE.format(command or "<command>"), "", about, ""]
    return "\n".join(lines + [f"  {name:<22}{doc}" for name, doc in rows])


def _print(text):
    """print, flushed.  A reader that has closed stdout (`fplab -h | head -1`)
    is no error: stdout then goes to os.devnull, and the command keeps its
    own exit status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_args(argv):
    """The command, and each given flag's value under its config key as the
    raw string a config file would carry; None once -h or --help, anywhere
    in argv, has printed the help."""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        _print(_help(command if command in COMMANDS else None))
        return None
    if command not in COMMANDS:
        got = repr(command) if argv else "none"
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {got}")
    args, rest = SimpleNamespace(command=command, config=None), iter(argv[1:])
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag not in FLAGS or FLAGS[flag][0].startswith("charsum_") and command != "charsum":
            raise UsageError(f"fplab {command} takes no flag {token!r}")
        key, metavar, _ = FLAGS[flag]
        if metavar is None:
            if eq:
                raise UsageError(f"{flag} takes no value, got {token!r}")
            value = "true"
        elif not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        setattr(args, key, value)
    return args


def main(argv=None) -> int:
    dropped = {}
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        cfg = resolve_config(args, dropped)
    except UsageError as exc:
        print(f"usage error: {exc}\n{_USAGE.format('<command>')}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:  # before the run, so an unwritable out costs no compute
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:
        print(f"config error: out: {cfg['out']}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    timer = BlockTimer() if cfg["timings"] else None
    t0 = time.perf_counter()
    try:
        rows, fits = COMMANDS[args.command][1](cfg, timer)
    except FplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - t0) * 1000)

    csv_path = os.path.join(cfg["out"], f"{args.command}.csv")
    write_csv(rows, csv_path)
    summary = summarize(rows, fits)
    if dropped:
        summary["dropped_primes"] = dropped
    if timer:
        summary["elapsed_ms"] = elapsed_ms
        summary["timings"] = timer.totals
    write_json(summary, os.path.join(cfg["out"], "summary.json"))
    write_resolved_config(cfg, os.path.join(cfg["out"], "resolved.cfg"))

    lines = [f"{suite}: pass={counts['pass']} fail={counts['fail']} "
             f"skip={counts['skip']} report={counts['report']}"
             for suite, counts in sorted(summary["suites"].items())]
    lines += [f"slope {name}: {fit['slope']:.4f} (rms {fit['residual']:.4f}, n={fit['n']})"
              for name, fit in sorted(summary["slopes"].items())]
    failures = count_failures(rows)
    _print("\n".join(lines + [f"wrote {csv_path} ({len(rows)} rows); failures: {failures}"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
