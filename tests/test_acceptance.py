"""Acceptance checks: one test and one printed pass/fail line per criterion."""

import json
import math
import random

from qsinc import (
    IdentityId,
    QParams,
    SeriesParams,
    cli,
    main_series,
    symmetric_series,
    verify,
)

from conftest import rel_err


def _record(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_triple_product():
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        for z in (0.5, 1.0, 1.5, 0.6 + 0.6j):
            report = verify(IdentityId.TripleProduct, {"z": z, "q": q})
            worst = max(worst, report.rel_err)
    _record(1, "triple product vs bilateral sum", worst <= 1e-10,
            f"max rel_err {worst:.2e}")


def test_criterion_02_base_integral():
    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        report = verify(IdentityId.BaseIntegral, {"q": q})
        worst = max(worst, report.rel_err)
    _record(2, "base integral closed form", worst <= 1e-10,
            f"max rel_err {worst:.2e}")


def test_criterion_03_main_identity_grid():
    worst = 0.0
    for q in (0.4, 0.6, 0.8):
        for ratio in (0.3, 0.5, 0.7):
            for z in (1.0, 0.5 + 0.5j, 2.0):
                report = verify(IdentityId.Main,
                                {"a": 0.2, "b": 0.3, "z": z, "q": q,
                                 "p": ratio * q})
                worst = max(worst, report.rel_err)
    _record(3, "main series = integral (27 points)", worst <= 1e-7,
            f"max rel_err {worst:.2e}")


def test_criterion_04_symmetric_and_qbinomial_forms():
    worst = 0.0
    for q, p, z in [(0.5, 0.2, 1.0), (0.5, 0.2, 0.3 + 0.4j),
                    (0.6, 0.3, 1.0), (0.6, 0.3, 0.8), (0.7, 0.2, 1.2),
                    (0.4, 0.15, 1.0)]:
        report = verify(IdentityId.Symmetric,
                        {"a": 0.1, "b": 0.2, "z": z, "q": q, "p": p})
        worst = max(worst, report.rel_err)
    for alpha in (0.3, 0.5, 0.7):
        for p in (0.3, 0.5):
            report = verify(IdentityId.QBinomialForm,
                            {"a": 2.0, "b": 1.0, "alpha": alpha, "p": p,
                             "z": 1.0})
            worst = max(worst, report.rel_err)
    _record(4, "symmetric and q-binomial forms (12 points)", worst <= 1e-7,
            f"max rel_err {worst:.2e}")


def test_criterion_05_functional_equations():
    eps = 1e-13
    rng = random.Random(20260824)
    worst = 0.0
    for _ in range(50):
        q = rng.uniform(0.3, 0.8)
        p = rng.uniform(0.1, 0.6) * q
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        z = rng.uniform(0.5, 1.8)

        def f(aa, bb, zz):
            return main_series(
                SeriesParams(qp=QParams(p=p, q=q), a=aa, b=bb, z=zz),
                eps).value

        base = f(a, b, z)
        worst = max(worst,
                    rel_err(base, f(a, b * p, z) - b * f(a, b * p, z * q)),
                    rel_err(base, f(a * p, b, z) - a * f(a * p, b, z / q)),
                    rel_err(base, f(b, a, q / z)))
    _record(5, "functional equations and symmetry (50 draws)",
            worst <= 1e-9, f"max rel_err {worst:.2e}")


def test_criterion_06_invariance():
    eps = 1e-13
    rng = random.Random(99)
    base = symmetric_series(
        SeriesParams(qp=QParams(p=0.3, q=0.6), a=0.2, b=0.3, z=1.0),
        eps).value
    worst = 0.0
    for _ in range(20):
        mag = rng.uniform(0.6, 1.5)
        ang = rng.uniform(-11 * math.pi / 12, 11 * math.pi / 12)
        c = mag * complex(math.cos(ang), math.sin(ang))
        moved = symmetric_series(
            SeriesParams(qp=QParams(p=0.3, q=0.6), a=0.2 / c, b=0.3 * c,
                         z=c), eps).value
        worst = max(worst, rel_err(base, moved))
    _record(6, "invariance in (b/z, az) (20 z-moves)", worst <= 1e-9,
            f"max rel_err {worst:.2e}")


def test_criterion_07_fourier_and_poisson():
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 3.0):
        report = verify(IdentityId.Fourier,
                        {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "y": y})
        worst = max(worst, report.rel_err)
    vanish = 0.0
    for m in (1, 2):
        report = verify(IdentityId.PoissonVanishing,
                        {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": m})
        vanish = max(vanish, report.abs_err)
    ok = worst <= 1e-6 and vanish <= 1e-8
    _record(7, "Fourier transform and Poisson vanishing", ok,
            f"max rel_err {worst:.2e}, max |I(2 pi m)| {vanish:.2e}")


def test_criterion_08_weighted():
    worst = 0.0
    for m in (-2, -1, 0, 1, 2):
        report = verify(IdentityId.WeightedM,
                        {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": m})
        worst = max(worst, report.rel_err)
    _record(8, "weighted sum = integral (m in -2..2)", worst <= 1e-7,
            f"max rel_err {worst:.2e}")


def test_criterion_09_bailey():
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(7):
        q = rng.uniform(0.3, 0.8)
        params = {
            "q": q, "p": rng.uniform(0.1, 0.6) * q,
            "a1": rng.uniform(-0.5, 0.5), "a2": rng.uniform(-0.5, 0.5),
            "b1": rng.uniform(-0.5, 0.5), "b2": rng.uniform(-0.5, 0.5),
            "z": rng.uniform(0.5, 1.6),
        }
        worst = max(worst, verify(IdentityId.Bailey, params).rel_err)
    for theta in (-1.2, 0.0, 0.7):
        report = verify(IdentityId.BaileyBinomial,
                        {"p": 0.5, "alpha": 0.4, "a1": 2.0, "b1": 1.0,
                         "a2": 3.0, "b2": 1.0, "theta": theta})
        worst = max(worst, report.rel_err)
    _record(9, "Bailey transformation (10 draws)", worst <= 1e-8,
            f"max rel_err {worst:.2e}")


def test_criterion_10_multibasic():
    worst = 0.0
    for alpha_sum in (0.5, 0.8):
        for p1, p2 in [(0.2, 0.3), (0.15, 0.35), (0.25, 0.3)]:
            report = verify(IdentityId.Multibasic,
                            {"p1": p1, "p2": p2, "alpha_sum": alpha_sum,
                             "a1": 2.0, "b1": 1.0, "a2": 3.0, "b2": 1.0,
                             "z": 1.0})
            worst = max(worst, report.rel_err)
    _record(10, "multibasic sum = integral (6 points)", worst <= 1e-6,
            f"max rel_err {worst:.2e}")


def test_criterion_11_appell_lerch():
    worst = 0.0
    for a, q in [(0.5, 0.5), (2.0, 0.5), (0.7, 0.7), (0.49 ** -0.5, 0.49)]:
        report = verify(IdentityId.AppellLerch, {"a": a, "q": q})
        worst = max(worst, report.rel_err)
    _record(11, "Appell-Lerch specialization", worst <= 1e-8,
            f"max rel_err {worst:.2e}")


def test_criterion_12_classical_limits():
    worst_osler = 0.0
    for a, alpha, theta in [(2.0, 0.5, 0.0), (2.0, 1.0, 0.0),
                            (1.5, 0.5, 0.4), (3.0, 0.7, -0.8),
                            (2.5, 1.0, 1.0)]:
        report = verify(IdentityId.Osler,
                        {"a": a, "alpha": alpha, "theta": theta})
        worst_osler = max(worst_osler, report.rel_err)
    worst_classical = 0.0
    for a, l, alpha in [(2.0, 1, 1.0), (2.0, 2, 1.0), (3.0, 2, 1.0),
                        (2.0, 4, 0.5), (2.5, 3, 2.0 / 3.0)]:
        report = verify(IdentityId.ClassicalSumInt,
                        {"a": a, "l": l, "alpha": alpha})
        worst_classical = max(worst_classical, report.rel_err)
    from qsinc import qgamma

    gamma_errs = [abs(qgamma(1.5, 1 - 10.0 ** (-k)) - math.gamma(1.5))
                  for k in (2, 3, 4)]
    decreasing = gamma_errs[0] > gamma_errs[1] > gamma_errs[2]
    ok = worst_osler <= 1e-6 and worst_classical <= 1e-6 and decreasing
    _record(12, "classical limits", ok,
            f"osler {worst_osler:.2e}, classical {worst_classical:.2e}, "
            f"gamma ladder {['%.1e' % e for e in gamma_errs]}")


def test_criterion_13_determinism(capsys):
    flags = ["sweep", "--identity", "main", "--q", "0.4,0.6", "--ratio",
             "0.5", "--z", "1,2", "--a", "0.2", "--b", "0.3"]
    outputs = []
    for threads in ("1", "4", "1"):
        code = cli.main(flags + ["--threads", threads])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    identical = outputs[0] == outputs[1] == outputs[2]
    parsed = json.loads(outputs[0])
    round_trip = json.dumps(parsed, separators=(",", ":")) + "\n" == outputs[0]
    _record(13, "byte-identical sweeps across reruns and threads",
            identical and round_trip)
