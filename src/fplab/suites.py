"""Suite runners: exact-identity checks, oracle equalities, bound sweeps,
and exponent-region tables.

A suite is a pure function from a resolved configuration to (rows, fits): a
list of ReportRow and the slope fits by name, {} for every suite but the
sweep.  Randomness is derived per row from (seed, suite, p, index) so
suites reproduce regardless of execution order.  The sweep runs its cells
largest p first, with workers > 1 in forked worker processes (`_fork_map`,
POSIX os.fork only); the order changes no output.  The sweep plan is the
`_FAMILIES` table: each family's cell runner, the primes its cells run at,
and the slope fits that read its records.
"""

import os
import pickle
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple
# builtin SHA-256, as random.py takes sha512: hashlib maps OpenSSL (3.6 MB)
try:
    from _sha2 import sha256
except ImportError:  # Python 3.10-3.11
    from _sha256 import sha256

import numpy as np

from . import bounds, charsums, energy, geometry
from .errors import (
    InsufficientDataError,
    LengthOutOfRangeError,
    PreconditionViolatedError,
)
from .field import build_field, character
from .report import ReportRow
from .sets import (
    from_elements,
    interval,
    poly_image,
    primes_upto,
    random_set,
    subgroup,
    symmetric_interval,
)

ORACLE_SIZE_CAP = 8
ORACLE_PRIME_CAP = 31
AMP_SIZE_CAP = 6
AMP_RADIUS_CAP = 8
# check-suite trials: per prime, but per run for amp_total and count_n_oracle
IDENTITY_TRIALS = 8  # line_identity and pair_identity each
AMP_TRIALS = 6
COLLINEAR_TRIALS = 10
E3_TRIALS = COUNT_N_TRIALS = 5


def subseed(master: int, *parts) -> int:
    """Stable 64-bit stream id for a row, independent of execution order."""
    text = "|".join(str(x) for x in (master, *parts))
    return int(sha256(text.encode()).hexdigest()[:16], 16)


def _ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


class BlockTimer:
    """Wall times for `--timings`: each row is stamped with the wall time of
    the block that produced it (a sweep cell, or one loop of a suite), and
    totals sums block times per row suite."""

    def __init__(self):
        self.totals = {}

    def record(self, rows, ms: int):
        for row in rows:
            row.ms = ms
        for suite in dict.fromkeys(row.suite for row in rows):
            self.totals[suite] = self.totals.get(suite, 0) + ms

    @contextmanager
    def block(self, rows):
        """Time the body; the rows it appends to `rows` form the block."""
        start, t0 = len(rows), time.perf_counter()
        yield
        self.record(rows[start:], _ms_since(t0))


def _block(timer, rows):
    return timer.block(rows) if timer else nullcontext()


def _agree(suite, p, params, measured, expected) -> ReportRow:
    """An equality verdict: the row passes exactly when measured == expected."""
    return ReportRow(suite, p, params, measured, expected, None,
                     "pass" if measured == expected else "fail")


def _ratio(suite, p, params, measured, skeleton) -> ReportRow:
    """A report-only row: measured against its bound skeleton."""
    return ReportRow(suite, p, params, measured, skeleton, measured / skeleton, "report")


def _skip(suite, p, params) -> ReportRow:
    """An instance that was not run; params end in its reason."""
    return ReportRow(suite, p, params, None, None, None, "skip")


def _draw(fld, rng, lo, hi):
    """A random set whose size and seed are the next two draws of rng."""
    return random_set(fld, rng.randint(lo, hi), rng.randrange(2**31))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def run_identity_suite(cfg, timer=None):
    rows = []
    seed = cfg["seed"]
    for p in cfg["primes"]:
        with _block(timer, rows):
            fld = build_field(p)
            for i in range(IDENTITY_TRIALS):
                rng = random.Random(subseed(seed, "line", p, i))
                a = _draw(fld, rng, 1, min(p, 10))
                lhs = geometry.line_spectrum(a).total
                rhs = (p + 1) * len(a) ** 2
                rows.append(_agree("line_identity", p, f"n={len(a)};trial={i}", lhs, rhs))
        with _block(timer, rows):
            if p <= 31:
                for i in range(IDENTITY_TRIALS):
                    rng = random.Random(subseed(seed, "pair", p, i))
                    a, b = _draw(fld, rng, 1, min(p, 8)), _draw(fld, rng, 1, min(p, 8))
                    lhs, rhs = geometry.pair_spectrum_identity(a, b)
                    rows.append(_agree("pair_identity", p,
                                       f"nA={len(a)};nB={len(b)};trial={i}", lhs, rhs))
        with _block(timer, rows):
            for i in range(2):
                rng = random.Random(subseed(seed, "tkf", p, i))
                nsets = rng.randint(2, 3)
                sets_ = [_draw(fld, rng, 1, min(p, 6)) for _ in range(nsets)]
                exact = energy.t_k(sets_)
                resid = abs(exact - energy.t_k_fourier(sets_))
                rows.append(ReportRow("tk_fourier", p, f"k={nsets};trial={i}", resid, exact, None,
                                      "pass" if resid < 1e-6 * max(exact, 1) else "fail"))
    with _block(timer, rows):
        for p in (q for q in (2, 3, 5) if q <= cfg["max_p"]):
            rows.append(_agree("gram_structure", p, "scope=full",
                               geometry.gram_structure_check(p), 0))
    with _block(timer, rows):
        amp_primes = [p for p in cfg["primes"] if 13 <= p <= 61] or [61] * (61 <= cfg["max_p"])
        if not amp_primes:
            rows.append(_skip("amp_total", 0, "requested_p=61;reason=AboveMaxP"))
            return rows, {}
        for i in range(AMP_TRIALS):
            rng = random.Random(subseed(seed, "amp", i))
            p = rng.choice(amp_primes)
            fld = build_field(p)
            n = rng.randint(2, min(AMP_SIZE_CAP, p - 1))
            radius = rng.randint(4, min(AMP_RADIUS_CAP, (p - 1) // 2))
            s = random_set(fld, n, rng.randrange(2**31))
            params = charsums.AmplificationParams(y=rng.randint(1, radius // 4), z=1)
            m = charsums.amplification_map(s, radius, params)
            window = charsums.prime_window(params, p)
            # each (s, t, x, y) with s != t is counted once
            expected = n * (n - 1) * (2 * radius + 1) * len(window)
            base = f"n={n};X={radius};Y={params.y};trial={i}"
            rows.append(_agree("amp_total", p, base, m.total, expected))
            yset = from_elements(fld, window)
            # the brute-force referee: count_n's row intersections would also
            # match, but the row stays independent of both production routes
            brute = charsums.count_n_bruteforce(s, symmetric_interval(fld, radius), yset)
            rows.append(_agree("amp_second_moment", p, base, m.second_moment, brute))
    return rows, {}


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def run_oracle_suite(cfg, timer=None):
    rows = []
    seed = cfg["seed"]
    primes = [p for p in cfg["primes"] if p >= 5]
    for p in primes:
        with _block(timer, rows):
            fld = build_field(p)
            if p > ORACLE_PRIME_CAP:
                rows.append(_skip("collinear_oracle", p, f"requested_p={p};reason=TooLarge"))
            for i in range(COLLINEAR_TRIALS if p <= ORACLE_PRIME_CAP else 0):
                rng = random.Random(subseed(seed, "tri", p, i))
                a, b, c = (_draw(fld, rng, 1, min(p, ORACLE_SIZE_CAP)) for _ in range(3))
                fast = geometry.collinear_triples(a, b, c)
                brute = geometry.collinear_triples_bruteforce(a, b, c)
                rows.append(_agree("collinear_oracle", p,
                                   f"nA={len(a)};nB={len(b)};nC={len(c)};trial={i}",
                                   fast, brute))
        with _block(timer, rows):  # the referee's cost is bounded by ORACLE_SIZE_CAP, not p
            for i in range(E3_TRIALS):
                rng = random.Random(subseed(seed, "e3o", p, i))
                u, v, w = (_draw(fld, rng, 1, min(p, ORACLE_SIZE_CAP)) for _ in range(3))
                fast = energy.e3(u, v, w)
                brute = energy.e3_bruteforce(u, v, w)
                rows.append(_agree("e3_oracle", p,
                                   f"nU={len(u)};nV={len(v)};nW={len(w)};trial={i}",
                                   fast, brute))
    with _block(timer, rows):
        cno_primes = [q for q in primes if q <= 61] or [31] * (31 <= cfg["max_p"])
        if not cno_primes:
            rows.append(_skip("count_n_oracle", 0, "requested_p=31;reason=AboveMaxP"))
            return rows, {}
        for i in range(COUNT_N_TRIALS):
            rng = random.Random(subseed(seed, "cno", i))
            p = rng.choice(cno_primes)
            fld = build_field(p)
            s = _draw(fld, rng, 2, min(p - 1, AMP_SIZE_CAP))
            radius = rng.randint(2, min(AMP_RADIUS_CAP, (p - 1) // 2))
            xset = symmetric_interval(fld, radius)
            ys = [q for q in (2, 3, 5, 7) if q < p][: rng.randint(1, 2)]
            yset = from_elements(fld, ys)
            fast = charsums.count_n(s, xset, yset)
            brute = charsums.count_n_bruteforce(s, xset, yset)
            rows.append(_agree("count_n_oracle", p,
                               f"nS={len(s)};X={radius};nY={len(ys)};trial={i}", fast, brute))
    return rows, {}


# ---------------------------------------------------------------------------
# sweep suite
# ---------------------------------------------------------------------------

def _cell_tabc(p, seed):
    fld = build_field(p)
    rows, fits = [], []
    target = max(2, round(p**0.3))
    for i in range(3):
        rng = random.Random(subseed(seed, "sw_tabc", p, i))
        a, b, c = (_draw(fld, rng, max(1, target // 2), target) for _ in range(3))
        t = geometry.collinear_triples(a, b, c)
        abc = len(a) * len(b) * len(c)
        dev = abs(t * p - abc * abc) / p
        skels = bounds.tabc_skeletons(p, len(a), len(b), len(c))[:3]
        base = f"nA={len(a)};nB={len(b)};nC={len(c)};trial={i}"
        for name, skel in zip(("flat_p", "three_halves", "seven_sixths"), skels):
            rows.append(_ratio("sweep_tabc", p, f"{base};skel={name}", dev, skel))
    return rows, fits


def _cell_nsxy(p, seed):
    fld = build_field(p)
    rows, fits = [], []
    rng = random.Random(subseed(seed, "sw_nsxy", p))
    nS = min(max(4, round(p**0.35)), 24)
    x_len = min(max(4, round(p**0.4)), 48)
    y_bound = min(16, max(3, round(p**0.25)))
    if x_len * x_len > p or nS * nS * x_len > p * p:
        rows.append(_skip("sweep_nsxy", p, f"nS={nS};X={x_len};reason=precondition"))
        return rows, fits
    s = random_set(fld, nS, rng.randrange(2**31))
    xset = interval(fld, 0, x_len)
    ys = [q for q in primes_upto(y_bound) if q < p]  # holds 2: y_bound >= 3, p > 16
    yset = from_elements(fld, ys)
    measured = charsums.count_n(s, xset, yset)
    e3v = energy.e3(s, s, xset)
    skeleton = y_bound * e3v + nS**3 * x_len**1.5 + nS**2 * x_len**2
    rows.append(_ratio("sweep_nsxy", p, f"nS={nS};X={x_len};Ybound={y_bound}",
                       measured, skeleton))
    return rows, fits


def _cell_subgroup(p, seed):
    fld = build_field(p)
    rows, fits = [], []
    cap = round(p**0.4)
    divisors = [t for t in range(2, cap + 1) if (p - 1) % t == 0]
    if len(divisors) > 8:  # thin to ~log-spaced picks, keeping the extremes
        step = (len(divisors) - 1) / 7
        divisors = sorted({divisors[round(i * step)] for i in range(8)})
    x_len = max(3, round(p**0.3))
    if x_len >= p:
        rows.append(_skip("sweep_subgroup", p, f"X={x_len};reason=precondition"))
        return rows, fits
    iv = interval(fld, 0, x_len)
    for t in divisors:
        g = subgroup(fld, t)
        measured = energy.e3(g, g, iv)
        s1, s2, flagged = bounds.subgroup_e3_skeletons(p, t, x_len)
        base = f"T={t};X={x_len}" + (";flag=T_above_p25" if flagged else "")
        for name, skel in (("energy_49_20", s1), ("coset_sum", s2)):
            rows.append(_ratio("sweep_subgroup", p, f"{base};skel={name}", measured, skel))
        fits.append({"family": "subgroup_e3", "p": p, "T": t, "measured": measured})
    return rows, fits


def _cell_poly(p, seed):
    fld = build_field(p)
    rows, fits = [], []
    for d, coeffs in ((2, [1, 1, 1]), (3, [2, 0, 1, 1])):
        k = bounds.poly_t_index(d)
        for x_len in (8, 16, 32, 64, 128):
            if x_len**3 > p * p or x_len >= p:
                continue
            img = poly_image(coeffs, interval(fld, 0, x_len))
            e2 = energy.additive_energy(img)
            tk = energy.t_k([img] * k)
            t_skel, e_skel = bounds.poly_energy_skeletons(p, x_len, d)
            rows.append(_ratio("sweep_poly", p, f"d={d};X={x_len};stat=E2", e2, e_skel))
            rows.append(_ratio("sweep_poly", p, f"d={d};X={x_len};stat=T{k}", tk, t_skel))
            fits.append({"family": f"poly_e2_d{d}", "p": p, "X": x_len, "measured": e2})
            fits.append({"family": f"poly_t{k}_d{d}", "p": p, "X": x_len, "measured": tk})
    return rows, fits


def _thm11_rhs(fld, s, x_len, r):
    """thm11_rhs at E3(S, S, [-X, X]): LengthOutOfRangeError from the
    interval comes before thm11_rhs's PreconditionViolatedError."""
    e3v = energy.e3(s, s, symmetric_interval(fld, x_len))
    return bounds.thm11_rhs(fld.p, len(s), x_len, r, e3v)


def _cell_thm11(p, seed):
    fld = build_field(p)
    rows, fits = [], []
    rng = random.Random(subseed(seed, "sw_thm11", p))
    r = 3
    x_len = max(3, round(p**0.45))
    n_s = max(2, round(p**0.5))
    try:
        bounds.check_thm11(p, n_s, x_len, r)
    except PreconditionViolatedError:
        rows.append(_skip("sweep_thm11", p, f"S={n_s};X={x_len};reason=precondition"))
        return rows, fits
    s = random_set(fld, n_s, rng.randrange(2**31))
    chi = character(fld, (p - 1) // 2)
    iv = interval(fld, 0, x_len)
    w = abs(charsums.bilinear_sum(chi, s, iv))
    rhs = _thm11_rhs(fld, s, x_len, r)
    rows.append(_ratio("sweep_thm11", p, f"S={n_s};X={x_len};r={r};chi=quadratic", w, rhs))
    fits.append({"family": "thm11_ratio", "p": p, "ratio": w / rhs})
    return rows, fits


def _every_prime(cfg):
    return cfg["sweep_primes"]


def _largest_prime(cfg):
    return [max(cfg["sweep_primes"])] if cfg["sweep_primes"] else []


class _Family(NamedTuple):
    runner: Callable  # (p, seed) -> (rows, fit records)
    primes: Callable  # cfg -> the primes its cells run at
    fits: tuple = ()  # (fit name, quantity, driver, cfg -> primes whose records it reads)


# The sweep plan.  Cells run largest p first, families at one p in table order.
_FAMILIES = {
    "tabc": _Family(_cell_tabc, _every_prime),
    "nsxy": _Family(_cell_nsxy, _every_prime),
    # T-dependence only reads cleanly at a single p
    "subgroup": _Family(_cell_subgroup, _every_prime,
                        (("subgroup_e3", "measured", "T", _largest_prime),)),
    "thm11": _Family(_cell_thm11, _every_prime,
                     (("thm11_ratio", "ratio", "p", _every_prime),)),
    "poly": _Family(_cell_poly, _largest_prime, tuple(
        (name, "measured", "X", _largest_prime)
        for name in ("poly_e2_d2", "poly_e2_d3", "poly_t3_d2", "poly_t3_d3"))),
}


def _run_cell(args):
    family, p, seed = args
    t0 = time.perf_counter()
    rows, fits = _FAMILIES[family].runner(p, seed)
    return rows, fits, _ms_since(t0)


def _serve(fn, items, token_r, token_w, result_w):
    """A worker's loop: take the token k, pass k + 1 on, and send back
    (k, ok, fn's result or its exception); past the last item, pass the
    token on unchanged, so that the other workers stop too, and send None."""
    with open(result_w, "wb") as out:
        while (k := int.from_bytes(os.read(token_r, 4), "little")) < len(items):
            os.write(token_w, (k + 1).to_bytes(4, "little"))
            try:
                reply = k, True, fn(items[k])
            except Exception as exc:
                reply = k, False, exc
            pickle.dump(reply, out)
            out.flush()
        os.write(token_w, k.to_bytes(4, "little"))
        pickle.dump(None, out)


def _fork_map(fn, items, workers):
    """[fn(item) for item in items] on `workers` forked processes, in item
    order; a free worker takes the next item.

    The workers share one token pipe, which holds the index of the next item
    to run: the parent writes 0 into it before the first fork and never
    writes to any pipe after that.  Each worker sends its pickled replies
    down its own result pipe, and the parent waits on the result pipes with
    select, so no side can block another at any item count.  An exception in
    fn is re-raised here; a worker whose pipe ends before its None marker
    raises ChildProcessError.  Workers leave by os._exit and are all reaped
    before this returns or raises, so their rusage counts in the parent's
    RUSAGE_CHILDREN."""
    # imported here, so that only a pooled sweep pays for them
    import select
    import signal

    results = [None] * len(items)
    pool = {}  # result reader -> worker pid
    token_r, token_w = os.pipe()
    os.write(token_w, (0).to_bytes(4, "little"))
    try:
        # long-lived workers: a fork costs about 1.7 ms with numpy loaded, and
        # a fork per cell took the pooled cap sweep from 0.039 to 0.078 s.  On 2 CPUs
        # the five-prime sweep to 16777213 took 0.186 s [0.174-0.195] at 2 workers and
        # 0.313 s [0.285-0.315] at 1 (seed 2, median [quartiles]; won 10 of 10 pairs)
        for _ in range(workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _serve(fn, items, token_r, token_w, result_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(result_w)
            pool[open(result_r, "rb")] = pid
        while pool:
            # a reply that a reader has buffered is read on a later wake, at
            # the latest at its worker's EOF, which stays readable
            for reader in select.select(list(pool), [], [])[0]:
                try:
                    reply = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    reply = False  # the pipe ended before the None marker
                if reply:
                    k, ok, value = reply
                    if not ok:
                        raise value
                    results[k] = value
                    continue
                reader.close()
                pid = pool.pop(reader)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if reply is False:
                    cause = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(f"sweep worker {pid} died without a result ({cause})")
        return results
    finally:
        # after a failure (Ctrl-C included) the rest are killed, all of them
        # before any is reaped
        os.close(token_r)
        os.close(token_w)
        for pid in pool.values():
            os.kill(pid, signal.SIGKILL)
        for reader, pid in pool.items():
            os.waitpid(pid, 0)
            reader.close()


def run_sweep(cfg, timer=None):
    """Run every cell of _FAMILIES, largest p first, serial or pooled alike;
    returns (rows, fits) with fits mapping each fit name to its FitResult, or
    to the reason the fit failed."""
    # largest p first, so no big cell starts last in a pool; the order changes
    # no output, as the rows are sorted and exponent_fit is order-independent
    tasks = sorted(((family, p, cfg["seed"])
                    for family, spec in _FAMILIES.items() for p in spec.primes(cfg)),
                   key=lambda task: -task[1])
    workers = min(cfg["workers"], len(tasks))  # every worker is forked up front
    results = _fork_map(_run_cell, tasks, workers) if workers > 1 else map(_run_cell, tasks)
    rows, fitrecords = [], []
    for r, f, ms in results:
        if timer:
            timer.record(r, ms)
        rows.extend(r)
        fitrecords.extend(f)
    rows.sort(key=lambda row: (row.suite, row.p, row.params))
    fits = {}
    for spec in _FAMILIES.values():
        for name, quantity, driver, read_primes in spec.fits:
            read = read_primes(cfg)
            recs = [r for r in fitrecords if r["family"] == name and r["p"] in read]
            try:
                fits[name] = bounds.exponent_fit(recs, quantity, driver)
            except InsufficientDataError as exc:
                fits[name] = str(exc)
    return rows, fits


# ---------------------------------------------------------------------------
# regions suite
# ---------------------------------------------------------------------------

def run_region_suite(cfg, timer=None):
    rows = []
    with _block(timer, rows):
        # each threshold on the diagonal zeta = xi: one step of 1/den above it, then at it
        den = 462 * 10**5
        diag = np.array([t + step for t in (7 * den // 22, den // 3, 2 * den // 7)
                         for step in (1, 0)])
        chang, kar, sub = (m.tolist() for m in bounds.region_marks(diag, diag, den))
        for name, marks, thr in (("chang_diag", chang[0:2], 7 / 22),
                                 ("karatsuba_diag", kar[2:4], 1 / 3)):
            above, at = (mark == "T" for mark in marks)
            rows.append(ReportRow("region_boundary", 0, f"which={name};thr={thr:.9f}",
                                  int(above), int(not at), None,
                                  "pass" if above and not at else "fail"))
        words = {"T": "inside", "F": "outside", "-": "out_of_domain"}
        inside, outside = words[sub[4]], words[sub[5]]
        rows.append(ReportRow("region_boundary", 0, "which=subgroup_diag;thr=2/7",
                              inside, outside, None,
                              "pass" if inside == "inside" and outside == "outside" else "fail"))
    with _block(timer, rows):
        # Karatsuba strictly dominates Chang on the open window (1/4, 2/7):
        # the samples 1/4 + (2/7 - 1/4) i/65 are (455 + i)/1820
        samples = 64
        a = 455 + np.arange(1, samples + 1)
        wins = int(np.count_nonzero(bounds.karatsuba_below_chang(a, 1820)))
        rows.append(_agree("region_window", 0, f"window=(1/4,2/7);samples={samples}",
                           wins, samples))
    with _block(timer, rows):
        # zeta = 0.01 + 0.47 i/(n - 1) down the rows, xi = 0.01 + 0.37 j/(n - 1)
        # across the columns, both over den = 100 (n - 1)
        n = cfg["region_check_grid"]
        a, b = (n - 1) + 47 * np.arange(n)[:, None], (n - 1) + 37 * np.arange(n)
        disagree = int(np.count_nonzero(~bounds.subgroup_agreement(a, b, 100 * (n - 1))))
        rows.append(_agree("region_agreement", 0, f"grid={n}x{n}", disagree, 0))
    with _block(timer, rows):
        # the i-th exponent is (2 (m - 1) + 96 i)/(100 (m - 1)); its label alone is the
        # float 0.02 + 0.96 i/(m - 1): a/den prints another 4th decimal at m = 257, 513, 769
        m = cfg["region_table_grid"]
        a = 2 * (m - 1) + 96 * np.arange(m)
        chang, kar, sub = (x.tolist() for x in bounds.region_marks(a[:, None], a, 100 * (m - 1)))
        labels = (0.02 + 0.96 * np.arange(m) / (m - 1)).tolist()
        for i, zeta in enumerate(labels):
            for j, xi in enumerate(labels):
                rows.append(ReportRow("region_table", 0,
                                      f"zeta={zeta:.4f};xi={xi:.4f};chang={chang[i][j]};"
                                      f"karatsuba={kar[i][j]};subgroup={sub[i][j]}",
                                      None, None, None, "report"))
    return rows, {}


# ---------------------------------------------------------------------------
# single charsum evaluation
# ---------------------------------------------------------------------------

def run_charsum(cfg, timer=None):
    rows = []
    with _block(timer, rows):
        p = cfg["charsum_p"]
        fld = build_field(p)
        m = cfg["charsum_m"]
        chi = character(fld, m)
        x_len = cfg["charsum_x"]
        iv = interval(fld, 0, x_len)
        if cfg["charsum_subgroup"]:
            s = subgroup(fld, cfg["charsum_subgroup"])
        else:
            s = random_set(fld, cfg["charsum_n"], subseed(cfg["seed"], "charsum", p))
        w = abs(charsums.bilinear_sum(chi, s, iv))
        mod = charsums.modulus_sum(chi, s, iv)
        base, r = f"m={m};nS={len(s)};X={x_len}", cfg["charsum_r"]
        rows += [_ratio("charsum", p, f"{base};stat=W", w, len(s) * x_len),
                 _ratio("charsum", p, f"{base};stat=modulus", mod, len(s) * x_len)]
        try:
            rhs = _thm11_rhs(fld, s, x_len, r)
            rows.append(_ratio("charsum", p, f"{base};r={r};stat=rhs", w, rhs))
        except (LengthOutOfRangeError, PreconditionViolatedError) as exc:
            rows.append(_skip("charsum", p, f"{base};r={r};reason={type(exc).__name__}"))
    return rows, {}
