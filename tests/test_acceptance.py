"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Run with `pytest tests/test_acceptance.py -s`
to see every line."""

import random
import time

from a11yfuse.belief import (
    combine_conjunctive,
    discount,
    make_mass,
    pignistic,
    vacuous,
)
from a11yfuse.cli import main
from a11yfuse.engine import (
    AccessLevel,
    EstimationParts,
    discretize,
    masses_from_estimates,
    score_page,
)
from a11yfuse.reports import parse_report
from a11yfuse.wcag import DeficiencyFrame, WeightConfig, load_config

from oracle import (AC, EMPTY, NAC, OMEGA, combine_bruteforce,
                    masses_close, to_setmap)


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  criterion {criterion} ({elapsed * 1000:.2f} ms){suffix}")
    return ok


def random_mass(rng):
    vals = [rng.random() for _ in range(3)]
    s = sum(vals)
    return make_mass(*(v / s for v in vals))


def test_criterion_1_default_constants():
    WeightConfig()  # warm-up
    t0 = time.perf_counter()
    w = WeightConfig()
    ok = ((w.alpha_a, w.alpha_aa, w.alpha_aaa) == (1.0, 0.8, 0.6)
          and (w.beta_err, w.beta_likely, w.beta_potential) == (1.0, 0.5, 1.0)
          and w.delta == 1.0
          and (w.s1, w.s2, w.s3, w.s4) == (0.6, 0.7, 0.8, 0.9))
    elapsed = time.perf_counter() - t0
    assert report("1: default constants", ok and elapsed < 1e-3, elapsed)


# the 15 published per-site decision cells (the one anomalous cell whose
# printed arrow contradicts the thresholds is excluded)
TABLE_CELLS = [
    (0.972, "↑"), (0.989, "↑"), (0.974, "↑"), (0.971, "↑"),
    (0.769, "→"), (0.924, "↑"), (0.838, "↗"),
    (0.701, "→"), (0.718, "→"), (0.717, "→"), (0.686, "↘"),
    (0.630, "↘"), (0.725, "→"), (0.673, "↘"), (0.627, "↘"),
]


def test_criterion_2_discretization_golden():
    w = WeightConfig()
    discretize(0.5, w)  # warm-up
    t0 = time.perf_counter()
    ok = all(discretize(d, w).glyph == arrow for d, arrow in TABLE_CELLS)
    elapsed = time.perf_counter() - t0
    assert len(TABLE_CELLS) == 15
    assert report("2: discretization golden cells", ok and elapsed < 1e-3,
                  elapsed)


def test_criterion_3_belief_property_suite():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        a, b, c = (random_mass(rng) for _ in range(3))
        ab = combine_conjunctive(a, b)
        ba = combine_conjunctive(b, a)
        ok &= abs(ab.ac + ab.nac + ab.omega + ab.empty - 1.0) <= 1e-9
        ok &= min(ab.ac, ab.nac, ab.omega, ab.empty) >= -1e-9
        ok &= masses_close(ab, ba, 1e-12)
        left = combine_conjunctive(ab, c)
        right = combine_conjunctive(a, combine_conjunctive(b, c))
        ok &= masses_close(left, right, 1e-12)
        ok &= masses_close(combine_conjunctive(a, vacuous()), a, 1e-12)
        ok &= masses_close(discount(a, 1.0), a, 1e-12)
        ok &= 0.0 <= pignistic(ab) <= 1.0 if ab.empty < 1 - 1e-12 else True
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    assert report("3: belief algebra properties (10k cases)",
                  ok and elapsed < 10.0, elapsed)


def test_criterion_4_oracle_equivalence():
    rng = random.Random(99)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1_000):
        a, b = random_mass(rng), random_mass(rng)
        got = combine_conjunctive(a, b)
        ref = combine_bruteforce(to_setmap(a.ac, a.nac, a.omega, a.empty),
                                 to_setmap(b.ac, b.nac, b.omega, b.empty))
        ok &= (abs(got.ac - ref[AC]) <= 1e-12
               and abs(got.nac - ref[NAC]) <= 1e-12
               and abs(got.omega - ref[OMEGA]) <= 1e-12
               and abs(got.empty - ref[EMPTY]) <= 1e-12)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    assert report("4: brute-force combination oracle (1k pairs)",
                  ok and elapsed < 5.0, elapsed)


def test_criterion_5_worked_micro_pipeline():
    # given inputs: n_ok=8, n_err=2, t_err=4, n_likely=1, t_likely=2,
    # total tests = 10, stock weights (level-A criterion, beta_likely = 0.5)
    def oracle():
        e_ac = 8 * 1.0 / 10
        e_nac = 2 * 1.0 * 1.0 / 4
        e_om = 1 * 1.0 * 0.5 / 2
        s = e_ac + e_nac + e_om
        m_ac, m_nac, m_om = e_ac / s, e_nac / s, e_om / s
        d = m_ac + m_om / 2
        return (e_ac, e_nac, e_om), (m_ac, m_nac, m_om), d

    w = WeightConfig()
    t0 = time.perf_counter()
    parts = EstimationParts(num_ac=8 * 1.0, den_ac=10.0,
                            num_nac=2 * 1.0 * w.beta_err, den_nac=4.0,
                            num_omega=1 * 1.0 * w.beta_likely, den_omega=2.0)
    e = parts.triple()
    m = discount(masses_from_estimates(e), 1.0)
    d = pignistic(m)
    level = discretize(d, w)
    elapsed = time.perf_counter() - t0

    (oe, om, od) = oracle()
    e_ac, e_nac, e_omega = e
    ok = (all(abs(x - y) <= 1e-3 for x, y in
              zip((e_ac, e_nac, e_omega), oe))
          and all(abs(x - y) <= 1e-3 for x, y in zip((m.ac, m.nac, m.omega), om))
          and abs(d - od) <= 1e-3
          and abs(e_ac - 0.8) <= 1e-3 and abs(e_nac - 0.5) <= 1e-3
          and abs(e_omega - 0.25) <= 1e-3
          and abs(m.ac - 0.5161) <= 1e-3 and abs(m.nac - 0.3226) <= 1e-3
          and abs(m.omega - 0.1613) <= 1e-3
          and abs(d - 0.5968) <= 1e-3
          and level is AccessLevel.VERY_BAD)
    assert report("5: worked micro-pipeline", ok and elapsed < 1e-3, elapsed)


def test_criterion_6_fusion_strengthening():
    # stated contract: for two sources each with m(Ac) > m(NotAc) and
    # m(Omega) > 0, the fused pignistic value is >= each individual one
    rng = random.Random(7)

    def agreeing_mass():
        while True:
            m = random_mass(rng)
            if m.ac > m.nac and m.omega > 0:
                return m

    t0 = time.perf_counter()
    counterexample = None
    for _ in range(1_000):
        a, b = agreeing_mass(), agreeing_mass()
        fused_p = pignistic(combine_conjunctive(a, b))
        if fused_p < max(pignistic(a), pignistic(b)) - 1e-12:
            counterexample = (a, b, fused_p)
            break
    elapsed = time.perf_counter() - t0
    detail = ""
    if counterexample is not None:
        a, b, fused_p = counterexample
        detail = (f"counterexample: a=({a.ac:.3f},{a.nac:.3f},{a.omega:.3f}) "
                  f"b=({b.ac:.3f},{b.nac:.3f},{b.omega:.3f}) "
                  f"fused BetP={fused_p:.3f} < "
                  f"max individual {max(pignistic(a), pignistic(b)):.3f}")
    ok = counterexample is None
    assert report("6: fusion strengthening", ok, elapsed, detail)


def test_criterion_7_error_monotonicity():
    catalog, w = load_config(
        [{"id": "c1", "level": "A", "frames": ["visual"]}])
    visual = DeficiencyFrame.VISUAL
    t0 = time.perf_counter()
    decisions = []
    for n_err in range(5):
        doc = {"assessor": {"name": "t"}, "url": "u",
               "observations": [{"criterion": "c1", "n_ok": 10,
                                 "n_err": n_err, "n_likely": 1,
                                 "n_potential": 0, "t_err": 10,
                                 "t_likely": 4, "t_potential": 0}]}
        r = parse_report(doc)
        decisions.append(score_page([r], catalog, w, (visual,))[visual]
                         .decision)
    elapsed = time.perf_counter() - t0
    ok = all(a > b for a, b in zip(decisions, decisions[1:]))
    assert report("7: error monotonicity (5 levels)", ok, elapsed)


def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    fx_dir = tmp_path / "fx"
    assert main(["fixtures", "--seed", "100", "--kind", "balanced",
                 "--count", "20", "--out", str(fx_dir)]) == 0
    args = ["score", "--format", "json"]
    for p in sorted(fx_dir.iterdir()):
        args += ["--page", str(p)]
    t0 = time.perf_counter()
    runs = []
    for _ in range(2):
        assert main(list(args)) == 0
        runs.append(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    ok = (runs[0] == runs[1]
          and len(runs[0].splitlines()) == 20)
    with capsys.disabled():
        assert report("8: end-to-end determinism (20 pages, 2 runs)",
                      ok and elapsed < 2.0, elapsed)
