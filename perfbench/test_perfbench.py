"""Self-test of the benchmark: the span wrappers reach every importer, every
expected span fires on each kind of op, tracing leaves exact output
unchanged, and the phi-haar inputs and oracle behave as documented.

Ops run at small sizes so the whole file stays within a few seconds.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import phi
import run
import spans

SEED = 7


def test_install_reaches_every_importer_and_uninstall_restores():
    import sphmop
    from sphmop import cli, family, geometry, orthogonality
    from sphmop.polynomials import MatrixPolynomial
    before = (cli.verify_rows, geometry.eval_H, sphmop.eval_H,
              cli.commutant, orthogonality.commutant,
              MatrixPolynomial.__mul__)
    tracer = spans.Tracer().install()
    try:
        assert tracer.missing == []
        assert family.eval_H is geometry.eval_H is sphmop.eval_H
        assert cli.commutant is orthogonality.commutant
        after = (cli.verify_rows, geometry.eval_H, sphmop.eval_H,
                 cli.commutant, orthogonality.commutant,
                 MatrixPolynomial.__mul__)
        assert all(a is not b and a.__wrapped__ is b
                   for a, b in zip(after, before))
    finally:
        tracer.uninstall()
    assert (cli.verify_rows, geometry.eval_H, sphmop.eval_H, cli.commutant,
            orthogonality.commutant, MatrixPolynomial.__mul__) == before


VERIFY = ["verify", "--ell", "2", "--wmax", "1"]
OPS = {"plain": ["cli", "0", *VERIFY], "traced": ["cli", "1", *VERIFY],
       "phi": ["phi", "1", str(SEED), "0", f"ops:{phi.NEAR_RAY_EVERY}"]}


@pytest.fixture(scope="module")
def ops():
    # the three op processes are independent; running them side by side
    # keeps this file within the tier-1 time budget
    with ThreadPoolExecutor(max_workers=len(OPS)) as pool:
        futures = {name: pool.submit(run.spawn, argv)
                   for name, argv in OPS.items()}
        return {name: f.result() for name, f in futures.items()}


def test_verify_spans_fire_and_tracing_keeps_output(ops):
    plain, traced = ops["plain"], ops["traced"]
    assert plain["rc"] == traced["rc"] == 0
    assert traced["out"] == plain["out"]
    summary = traced["record"]["spans"]
    assert traced["record"]["missing"] == []
    silent = [s for s in spans.EXPECTED["verify"]
              if summary[f"{s}.calls"] == 0]
    assert silent == []
    assert summary["exact_linalg.max_system_entries"] > 0
    assert summary["family.height_bits"] > 0


def test_phi_spans_fire_on_a_short_traced_segment(ops):
    op = ops["phi"]
    assert op["rc"] == 0
    summary = op["record"]["spans"]
    silent = [s for s in spans.EXPECTED["phi"] if summary[f"{s}.calls"] == 0]
    assert silent == []
    data = json.loads(op["out"])
    n = phi.NEAR_RAY_EVERY
    assert data["visits"] == [1] * n + [0] * (phi.POOL_SIZE - n)
    assert len(data["values"]) + len(data["raised"]) == n


def test_pool_is_seeded_with_one_near_ray_point_in_sixteen():
    a, b = phi.make_pool(SEED), phi.make_pool.__wrapped__(SEED)
    assert len(a) == phi.POOL_SIZE
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][2], phi.make_pool(SEED + 1)[0][2])
    lo, hi = phi.NEAR_RAY_RANGE
    for i, (w, k, g) in enumerate(a[:64]):
        assert np.max(np.abs(g.T @ g - np.eye(4))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12
        y = g[:3, 3]
        off_ray = math.hypot(y[1], y[2])
        if phi.is_near_ray(i):
            assert y[0] < 0 and 0.99 * lo < off_ray < 1.01 * hi
        else:
            assert off_ray > 1e-5 or y[0] > 0


@pytest.fixture(scope="module")
def oracle():
    return phi.Oracle()


def test_oracle_accepts_program_output_and_rejects_a_perturbation(oracle):
    from sphmop.geometry import reconstruct_phi
    w, k, g = phi.make_pool(SEED)[5]
    value = reconstruct_phi(phi.ELL, w, k, g)
    assert oracle.error(w, k, g, value) < phi.PHI_TOL
    value[1, 2] += 10 * phi.PHI_TOL
    assert oracle.error(w, k, g, value) > phi.PHI_TOL
    k1, k2 = phi.equivariance_pairs(SEED)[0]
    assert oracle.equivariance_error(w, k, g, k1, k2) < phi.EQUIVARIANCE_TOL


def test_oracle_section_is_a_rotation_on_and_off_the_excluded_ray():
    # the reference chart must not share the program's excluded ray, so
    # near-ray points are judged on their values
    e1 = np.array([1.0, 0.0, 0.0])
    for y in ([-1.0, 1e-9, 0.0], [-1.0, 0.0, 0.0], [1.0, 1e-9, 0.0],
              [0.3, -0.5, 0.8]):
        y = np.array(y)
        r = phi.Oracle.section(y)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(r) - 1.0) < 1e-14
        assert np.max(np.abs(r @ e1 - y / np.linalg.norm(y))) < 1e-15


def test_timed_loop_flags_a_repeat_that_differs_and_keeps_one_output():
    pool = phi.make_pool(SEED)[:3]
    calls = []

    def fake(ell, w, k, g):
        calls.append(1)
        if len(calls) == 5:          # second visit of index 1
            return np.ones((ell + 1, ell + 1))
        if len(calls) == 3:          # first visit of index 2
            raise ValueError("matrix is not orthogonal within tolerance")
        return np.zeros((ell + 1, ell + 1))

    data = phi.timed_loop(fake, pool, 0, ops=7)
    assert data["visits"] == [3, 2, 2]
    assert data["mismatch"] == [1, 2]
    assert sorted(data["values"]) == ["0", "1"]
    assert data["raised"] == {"2": "ValueError: matrix is not orthogonal "
                                    "within tolerance"}
    assert np.array_equal(phi.decode(data["values"]["1"]),
                          np.zeros((phi.ELL + 1, phi.ELL + 1)))


NEAR, FAR = phi.NEAR_RAY_EVERY - 1, 5
KNOWN = "ValueError: matrix is not orthogonal within tolerance"


def segment(values=(), raised=()):
    values, raised = dict(values), dict(raised)
    visits = [0] * phi.POOL_SIZE
    for idx in [*values, *raised]:
        visits[idx] = 2
    return {"visits": visits, "op_s": [0.0] * phi.POOL_SIZE,
            "values": {str(i): phi.encode(v) for i, v in values.items()},
            "raised": {str(i): t for i, t in raised.items()},
            "mismatch": []}


@pytest.fixture(scope="module")
def far_value():
    from sphmop.geometry import reconstruct_phi
    w, k, g = phi.make_pool(SEED)[FAR]
    return reconstruct_phi(phi.ELL, w, k, g)


@pytest.mark.parametrize("near, correct", [
    ({"raised": {NEAR: KNOWN}}, True),
    ({"raised": {NEAR: "LinAlgError: Singular matrix"}}, True),
    ({"raised": {NEAR: "TypeError: bad operand"}}, False),
    ({"values": {NEAR: np.eye(phi.ELL + 1)}}, False),
    ({"values": {NEAR: np.full((phi.ELL + 1,) * 2, np.nan)}}, False),
])
def test_judge_excuses_only_the_known_raises_near_the_ray(
        oracle, far_value, near, correct):
    data = segment({FAR: far_value, **near.get("values", {})},
                   near.get("raised", {}))
    verdict = phi.judge(SEED, [data], oracle)
    assert verdict["correct"] is correct
    assert verdict["bad"] == {NEAR}
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)


def test_judge_fails_the_known_raise_away_from_the_ray(oracle):
    verdict = phi.judge(SEED, [segment(raised={FAR: KNOWN})], oracle)
    assert not verdict["correct"]
    assert verdict["notes"]["failed_elsewhere"] == 1


def test_judge_fails_op_processes_that_disagree(oracle, far_value):
    other = far_value.copy()
    other[0, 0] += 1e-15
    verdict = phi.judge(SEED, [segment({FAR: far_value}),
                               segment({FAR: other})], oracle)
    assert not verdict["correct"] and verdict["bad"] == {FAR}
