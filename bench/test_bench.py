"""Tests of the benchmark itself: each check rejects a corrupted result, the
tracer's two node totals agree, and BENCHMARK.json names what the worker
prints.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from planch import forms, limitcheck  # noqa: E402
from planch.field import LocalFieldSpec  # noqa: E402
from planch.tempered import OrthTriple  # noqa: E402
from planch.wdrep import WDAtom, WDRep  # noqa: E402

IN_PAIR = OrthTriple(dual_pairs=((WDAtom(F(7, 60), 1), 1),))
CFG = limitcheck.QuadConfig(s0=0.1, s_count=6, n_base=128, rhs_n=512, tol=1e-2)


def test_limit_check_rejects_perturbed_extrapolation():
    rep = limitcheck.verify(IN_PAIR, limitcheck.ConstantPhi(1.0),
                            workloads.SPEC3, CFG)
    checks.check_limit(rep, CFG.tol, CFG.extrap_order)
    for factor in (1 + 1e-6, 1.05):
        bad = dataclasses.replace(
            rep, lhs_extrapolated=rep.lhs_extrapolated * factor)
        with pytest.raises(checks.CheckFailed):
            checks.check_limit(bad, CFG.tol, CFG.extrap_order)
    with pytest.raises(checks.CheckFailed):
        checks.check_limit(dataclasses.replace(rep, budget_exceeded=True),
                           CFG.tol, CFG.extrap_order)


def test_limit_oracles_accept_verify_and_reject_a_wrong_rhs():
    op = workloads.limit_op(IN_PAIR, limitcheck.ConstantPhi(1.5),
                            workloads.SPEC3, CFG, 1.5)
    rep = op.call()
    op.oracle(rep)
    with pytest.raises(checks.CheckFailed):
        op.oracle(dataclasses.replace(rep, rhs=rep.rhs * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailed):
        checks.check_mass(0.5 * (1 + 1e-9), [1, 1])


def test_eq13_check_rejects_a_swapped_side():
    rng = random.Random(5)
    triple = workloads.EQ13_TRIPLES[4]
    sides = [limitcheck.eq13_values(
        triple, workloads.generic_free_point(rng, triple), workloads.SPEC3)
        for _ in range(2)]
    for lhs, rhs in sides:
        checks.check_eq13(lhs, rhs)
    with pytest.raises(checks.CheckFailed):
        checks.check_eq13(sides[0][0], sides[1][1])


def test_pinch_test_matches_the_engine():
    """A point the benchmark calls generic is accepted by eq13_values; one on
    an extra pinch locus is refused with NonGenericPoint."""
    triple = workloads.EQ13_TRIPLES[2]   # Io = {1} x 3: one free coordinate
    _, blocks = checks.mirrored_blocks(triple)
    assert checks.forced_pinch_count(blocks) == 2
    assert checks.is_generic(blocks, [F(3, 209)])
    limitcheck.eq13_values(triple, [F(3, 209)], workloads.SPEC3)
    assert not checks.is_generic(blocks, [F(1, 2)])
    with pytest.raises(limitcheck.NonGenericPoint):
        limitcheck.eq13_values(triple, [F(1, 2)], workloads.SPEC3)


def test_functional_equation_check_rejects_a_wrong_sign():
    spec = LocalFieldSpec(3, 3, 1)
    rep = WDRep.of((F(1, 12), 2), (F(5, 12), 1))
    g, gd = rep.gamma_factor(spec), rep.dual().gamma_factor(spec)
    points = [complex(0.3, 0.7), complex(-1.1, 0.2)]
    checks.check_functional_equation(
        [(g.evaluate(s), gd.evaluate(1 - s)) for s in points])
    with pytest.raises(checks.CheckFailed):
        checks.check_functional_equation(
            [(g.evaluate(s), gd.evaluate(-(1 - s))) for s in points])
    with pytest.raises(checks.CheckFailed):
        checks.check_functional_equation(
            [(g.evaluate(s), -gd.evaluate(1 - s)) for s in points])


def test_singular_check_uses_the_pinch_count():
    ops = workloads.exact_identity(random.Random(8))
    sing = [op for op in ops if op.kind == "singular-exponent"]
    for op in sing:
        op.check(op.call())
    law, engine = sing[0].call()
    with pytest.raises(checks.CheckFailed):
        checks.check_singular(law, engine, law + 1)


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def scaled(a, c):
    return [[c * x for x in row] for row in a]


def test_so_check_rejects_a_changed_entry_of_u1():
    rng = random.Random(10)
    for d in (2, 3):
        op = workloads.so_op(d, *workloads._nbar_data(rng, d, False))
        g, bg, inside, (u1, mt, u2) = op.call()
        op.check((g, bg, inside, (u1, mt, u2)))
        bad = [list(r) for r in u1]
        bad[0][d + 1] += 1
        with pytest.raises(checks.CheckFailed):
            op.check((g, bg, inside, (bad, mt, u2)))
        # still in the group, but the product is no longer g
        with pytest.raises(checks.CheckFailed, match="u1 mtilde u2"):
            op.check((g, bg, inside, (identity(2 * d + 1), mt, u2)))
        # the same product, but u1 is no longer in the group
        with pytest.raises(checks.CheckFailed, match="u1"):
            op.check((g, bg, inside, (scaled(u1, 2), scaled(mt, F(1, 2)), u2)))
        with pytest.raises(checks.CheckFailed):
            op.check((g, bg, not inside, (u1, mt, u2)))
    op = workloads.so_op(3, *workloads._nbar_data(rng, 3, True))
    res = op.call()
    assert res[2] is False
    op.check(res)


def test_twist_check_rejects_a_changed_label():
    op = workloads.forms_exact(random.Random(3))[-1]
    bc, labels, polys = op.call()
    op.check((bc, labels, polys))
    with pytest.raises(checks.CheckFailed):
        op.check((bc, labels, (polys[0], polys[0][:-1] + (2,))))
    other = "gamma_0" if labels[0].kind != "gamma_0" else "outside_sharp"
    with pytest.raises(checks.CheckFailed):
        op.check((bc, (labels[0], forms.OrbitLabel(other)), polys))


def test_traced_node_totals_agree_and_wrappers_come_off():
    original = limitcheck.gamma_parts
    ops = workloads.limit_sweep(random.Random(1))[:14]
    run = worker.Run(ops, tracing.Tracer())
    run.round()
    run.round()
    assert limitcheck.gamma_parts is original
    assert limitcheck.FactorProgram.__dict__["compile"].__func__.__name__ \
        == "compile"
    integrand, fine = tracing.node_totals(run.tracer.spans)
    nodes = sum(r.nodes_used for r in run.reports[True])
    assert integrand == nodes > fine > 0
    metrics = worker.per_layer(run)
    assert not run.wrong and not run.errors
    assert metrics["limitcheck.nodes"] == nodes   # one round's worth
    assert metrics["limitcheck.model_builds"] == len(ops)
    assert metrics["limitcheck.coarse_nodes"] > 0
    assert set(worker.PER_LAYER) <= set(metrics)


def test_op_figures_scale_wall_time_by_the_probe():
    run = worker.Run([])
    ref = run.probe.ref_s
    # (op index, wall seconds, probe seconds around it)
    run.times[False] = [(0, 2e-3, 2 * ref), (0, 4e-3, 2 * ref), (1, 1e-3, ref)]
    ops_per_s, op_p50_s = worker.op_figures(run, scaled=True)
    assert ops_per_s == pytest.approx(3 / 4e-3)
    assert op_p50_s == pytest.approx((1.5e-3 + 1e-3) / 2)
    ops_per_s, op_p50_s = worker.op_figures(run, scaled=False)
    assert ops_per_s == pytest.approx(3 / 7e-3)
    assert op_p50_s == pytest.approx((3e-3 + 1e-3) / 2)


def test_benchmark_json_names_what_the_worker_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
