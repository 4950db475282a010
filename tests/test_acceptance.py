"""Acceptance suite: one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces its runtime budget.  Identity and oracle criteria assert exact
equality; skeleton monitoring only checks that every admissible instance
produces a finite ratio.
"""

import cmath
import math
import random
import time

import numpy as np

from fplab import bounds, charsums, energy, geometry
from fplab.cli import DEFAULTS
from fplab.field import build_field, character
from fplab.report import summarize
from fplab.sets import (
    from_elements,
    interval,
    primes_upto,
    random_set,
    subgroup,
    symmetric_interval,
)
from fplab.suites import run_region_suite, run_sweep
from library import line_deviation_l2, plane_contains, sumset


def _primes(lo, hi):
    return [p for p in primes_upto(hi) if p >= lo]


def _finish(num, label, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} ({label}): {status} [{elapsed:.1f}s / {budget}s]")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_line_identity():
    t0 = time.perf_counter()
    ok = True
    for p in _primes(5, 101):
        fld = build_field(p)
        for i in range(50):
            rng = random.Random(10_000 * p + i)
            a = random_set(fld, rng.randint(1, min(p, 10)), rng.randrange(2**31))
            ok = ok and geometry.line_spectrum(a).total == (p + 1) * len(a) ** 2
    _finish(1, "line identity", ok, t0, 30)


def test_criterion_02_pair_identity():
    t0 = time.perf_counter()
    ok = True
    for p in _primes(3, 31):
        fld = build_field(p)
        for i in range(50):
            rng = random.Random(20_000 * p + i)
            a = random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
            b = random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
            lhs, rhs = geometry.pair_spectrum_identity(a, b)
            ok = ok and lhs == rhs
    _finish(2, "pair identity", ok, t0, 30)


def test_criterion_03_gram_structure():
    t0 = time.perf_counter()
    ok = all(geometry.gram_structure_check(p) == 0 for p in (2, 3, 5))
    # independent spot check of the p = 2 entries: diagonal 7, off-diagonal 3
    points = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    planes = geometry.all_planes(2)
    m = np.array(
        [[plane_contains(pl, q, 2) for pl in planes] for q in points],
        dtype=np.int64,
    )
    gram = m @ m.T
    ok = ok and set(np.diag(gram)) == {7}
    off = gram[~np.eye(8, dtype=bool)]
    ok = ok and set(off.tolist()) == {3}
    _finish(3, "Gram structure", ok, t0, 60)


def test_criterion_04_collinear_oracle_gate():
    t0 = time.perf_counter()
    ok = True
    for p in _primes(7, 31):
        fld = build_field(p)
        for i in range(100):
            rng = random.Random(30_000 * p + i)
            mk = lambda: random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
            a, b, c = mk(), mk(), mk()
            fast = geometry.collinear_triples(a, b, c)
            ok = ok and fast == geometry.collinear_triples_bruteforce(a, b, c)
    _finish(4, "collinear-triples oracle gate", ok, t0, 120)


def test_criterion_05_amplification_identities():
    t0 = time.perf_counter()
    ok = True
    pool = _primes(13, 61)
    for i in range(20):
        rng = random.Random(40_000 + i)
        p = rng.choice(pool)
        fld = build_field(p)
        s = random_set(fld, rng.randint(2, min(6, p - 1)), rng.randrange(2**31))
        radius = rng.randint(4, min(8, (p - 1) // 2))
        params = charsums.AmplificationParams(y=rng.randint(1, radius // 4), z=1)
        mp = charsums.amplification_map(s, radius, params)
        window = charsums.prime_window(params, p)
        n = len(s)
        ok = ok and mp.total == n * (n - 1) * (2 * radius + 1) * len(window)
        yset = from_elements(fld, window)
        brute = charsums.count_n_bruteforce(s, symmetric_interval(fld, radius), yset)
        ok = ok and mp.second_moment == brute
    _finish(5, "amplification identities", ok, t0, 60)


def test_criterion_06_energy_cross_checks():
    t0 = time.perf_counter()
    ok = energy.additive_energy(from_elements(build_field(11), [0, 1, 2])) == 19
    rng = random.Random(50_000)
    for _ in range(12):
        p = rng.choice([5, 13, 31, 101])
        fld = build_field(p)
        sets_ = [
            random_set(fld, rng.randint(1, min(p - 1, 8)), rng.randrange(2**31))
            for _ in range(rng.randint(2, 4))
        ]
        exact = energy.t_k(sets_)
        ok = ok and abs(exact - energy.t_k_fourier(sets_)) < 1e-6 * max(exact, 1)
    for _ in range(10):
        p = rng.choice([7, 13, 31])
        fld = build_field(p)
        mk = lambda: random_set(fld, rng.randint(1, min(p, 8)), rng.randrange(2**31))
        u, v, w = mk(), mk(), mk()
        ok = ok and energy.e3(u, v, w) == energy.e3_bruteforce(u, v, w)
    _finish(6, "energy cross-checks", ok, t0, 60)


def test_criterion_07_exact_inequalities():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(60_000)
    instances = []
    for p in (13, 31, 61, 101):
        fld = build_field(p)
        instances.append(random_set(fld, rng.randint(2, 10), rng.randrange(2**31)))
        instances.append(interval(fld, rng.randrange(p), rng.randint(2, 9)))
    instances.append(subgroup(build_field(61), 12))
    instances.append(subgroup(build_field(101), 20))
    for s in instances:
        fld = s.field
        p = fld.p
        n = len(s)
        # trivial triple-energy ceiling
        u = random_set(fld, rng.randint(1, 8), rng.randrange(2**31))
        v = random_set(fld, rng.randint(1, 8), rng.randrange(2**31))
        cards = sorted((n, len(u), len(v)))
        ok = ok and energy.e3(s, u, v) <= cards[0] * cards[1] * cards[2] * cards[0]
        # interval bound on the triple energy
        iv = interval(fld, 0, min(8, (p - 1) // 2))
        ok = ok and energy.e3(s, s, iv) <= len(iv) * energy.additive_energy(s)
        # moment chain
        e2 = energy.additive_energy(s)
        for k in (3, 4):
            ok = ok and e2 ** (k - 1) <= energy.t_k([s] * k) * n ** (k - 2)
        # centered line-count second moment
        ok = ok and line_deviation_l2(s) <= p * n * n
        # Ruzsa triangle
        plus = len(sumset(s, s, "+"))
        minus = len(sumset(s, s, "-"))
        ok = ok and minus * n <= plus * plus
        # Cauchy step of the bilinear-sum opening
        chi = character(fld, rng.randrange(1, p - 1))
        alpha = np.array([cmath.exp(1j * rng.uniform(0, 7)) for x in s.elems])
        w = abs(charsums.bilinear_sum(chi, s, iv, alpha))
        inner = sum(
            abs(sum(w_a * chi(a + x) for w_a, a in zip(alpha, s.elems))) ** 2
            for x in iv.elems
        )
        ok = ok and w * w <= len(iv) * inner * (1 + 1e-6) + 1e-9
    _finish(7, "exact inequality suite", ok, t0, 60)


def test_criterion_08_weil_check():
    t0 = time.perf_counter()
    ok = True
    asserted = 0
    total = 0
    for p in _primes(31, 199):
        fld = build_field(p)
        rng = random.Random(70_000 + p)
        chi_distinct = character(fld, rng.randrange(1, p - 1))
        z1, z2 = rng.sample(range(p), 2)
        ok = ok and abs(charsums.complete_product_sum(chi_distinct, (z1, z2)) + 1) < 1e-9
        for i in range(1000):
            r = 1 + i % 3
            shifts = tuple(rng.randrange(p) for _ in range(2 * r))
            chi = character(fld, rng.randrange(1, p - 1))
            total += 1
            if charsums.weil_applicable(chi, shifts):
                asserted += 1
                val = abs(charsums.complete_product_sum(chi, shifts))
                ok = ok and val <= charsums.weil_bound(p, r) + 1e-9
    ok = ok and asserted > total // 2  # the check must not be vacuous
    _finish(8, "Weil check", ok, t0, 120)


def test_criterion_09_region_predicates():
    t0 = time.perf_counter()
    eps = 1e-9
    diag = np.array([7 / 22 + eps, 7 / 22 - eps, 1 / 3 + eps, 1 / 3 - eps])
    chang, kar, _ = (marks.tolist() for marks in bounds.region_marks(diag, diag))
    ok = chang[:2] == ["T", "F"] and kar[2:] == ["T", "F"]
    for i in range(100):
        z = 0.25 + (2 / 7 - 0.25) * (i + 1) / 101
        k = math.floor(1 / z)
        chang_thr = (3 * k - 2 - 4 * k * z) / (6 * k - 8)
        ok = ok and (1 - z) / 2 < chang_thr
    n = 200
    steps = np.arange(n, dtype=np.float64)
    zeta = (0.01 + (0.49 - 0.02) * steps / (n - 1))[:, None]
    xi = (0.01 + (0.39 - 0.02) * steps / (n - 1))[None, :]
    disagreements = int((~bounds.subgroup_agreement(zeta, xi)).sum())
    if disagreements:
        # disagreement is not a failure if the report flags it
        rows, _ = run_region_suite({"region_check_grid": 200, "region_table_grid": 2})
        flagged = [r for r in rows if "flag=disagree" in r.params]
        ok = ok and len(flagged) > 0
        print(f"criterion 09 note: {disagreements} grid disagreements, flagged")
    _finish(9, "region predicates", ok, t0, 10)


def test_criterion_10_skeleton_sweep():
    t0 = time.perf_counter()
    cfg = dict(DEFAULTS)
    rows, fits = run_sweep(cfg)
    ok = len(rows) > 0
    for row in rows:
        if row.status != "report":
            continue
        ok = ok and row.skeleton is not None and float(row.skeleton) > 0
        ok = ok and row.ratio is not None and math.isfinite(float(row.ratio))
        ok = ok and float(row.ratio) >= 0
    ok = ok and max(r.p for r in rows) == 8191
    summary = summarize(rows, fits)
    ok = ok and len(summary["slopes"]) >= 4
    for fit in summary["slopes"].values():
        ok = ok and math.isfinite(fit["slope"])
    _finish(10, "skeleton sweep", ok, t0, 600)
