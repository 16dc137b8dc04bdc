"""Tests for scenario construction, consecutive refinements, and builtins."""

import dataclasses

import numpy as np
import pytest

from ludercheck.protocol import (
    Mode,
    ProtocolConfig,
    StageKind,
    Verdict,
    classify_refinement_oracle,
    discriminate,
    resolve_target,
)
from ludercheck.quantum import build_spin_operator, spectral_decompose
from ludercheck.scenarios import (
    ConsecutiveSpec,
    build_consecutive,
    builtin_scenarios,
    default_initial_state,
    get_builtin,
    instantiate,
    resolve_expression,
)

from conftest import full_von_neumann, group_vectors, is_luders, random_unitary
from test_quantum import MINUS_PLUS, PLUS_MINUS, total_z


def test_resolve_expression_terms_and_matrix():
    a = resolve_expression(2, ((1.0, "ZI"), (1.0, "IZ")))
    assert np.allclose(a, np.diag([2, 0, 0, -2]))
    m = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(resolve_expression(None, m), m)
    with pytest.raises(ValueError):
        resolve_expression(None, ((1.0, "ZI"),))
    with pytest.raises(ValueError):
        resolve_expression(1, m + np.array([[0, 1], [0, 0]]))


def test_build_consecutive_single_site_z_pair():
    # measuring z on each site in turn refines total z into the full basis
    d = spectral_decompose(total_z())
    obs = (build_spin_operator(2, ((1.0, "ZI"),)),
           build_spin_operator(2, ((1.0, "IZ"),)))
    ref = build_consecutive(d, obs).reveal_refinement()
    assert full_von_neumann(ref)
    assert ref.block_count(1) == 2
    # the refining vectors are the computational ones
    group = group_vectors(ref, 1)
    overlaps = {round(abs(np.vdot(PLUS_MINUS, v)), 6) for v in group}
    assert overlaps == {0.0, 1.0}


def test_build_consecutive_first_observable_only():
    # measuring z on site 1 alone splits the degenerate space but not fully
    sites = 3
    a = build_spin_operator(sites, ((1.0, "ZII"), (1.0, "IZI")))
    d = spectral_decompose(a)
    z1 = build_spin_operator(sites, ((1.0, "ZII"),))
    ref = build_consecutive(d, (z1,)).reveal_refinement()
    assert ref.block_count(1) == 2
    assert ref.blocks[1] == (2, 2)
    assert not is_luders(ref)
    assert not full_von_neumann(ref)


def test_build_consecutive_rejects_noncommuting_refiner():
    d = spectral_decompose(total_z())
    x1 = build_spin_operator(2, ((1.0, "XI"),))
    with pytest.raises(ValueError):
        build_consecutive(d, (x1,))


def test_build_consecutive_trivial_refiner_is_luders():
    d = spectral_decompose(total_z())
    identity = np.eye(4, dtype=complex)
    ref = build_consecutive(d, (identity,)).reveal_refinement()
    assert is_luders(ref)


def test_build_consecutive_survives_basis_rotation(rng):
    # block detection must not depend on the eigenbasis the solver picked
    u = random_unitary(4, rng)
    a = u @ np.diag([3.0, 3.0, 3.0, -1.0]) @ u.conj().T
    refiner = u @ np.diag([1.0, 1.0, 0.0, 5.0]) @ u.conj().T
    ref = build_consecutive(spectral_decompose(a), (refiner,)).reveal_refinement()
    counts = sorted(ref.blocks[0])
    assert counts == [1, 2]


def test_default_initial_state_overlaps_all_probes():
    d = spectral_decompose(total_z())
    psi = default_initial_state(d, 1)
    for vec in d.eigenbasis[1]:
        assert abs(np.vdot(vec, psi.vector)) > 0.1
    # it also populates a second eigenvalue so preparation is non-trivial
    outside = abs(np.vdot(d.eigenbasis[0][0], psi.vector))
    assert outside > 0.1


def test_builtin_names_and_expectations():
    names = [s.name for s in builtin_scenarios()]
    assert names == ["s1-luders-2spin", "s2-vn-total-spin", "s3-consecutive",
                     "s4-partial-3spin", "s5-nondegenerate"]
    with pytest.raises(KeyError):
        get_builtin("unknown")


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_builtin_exact_verdicts(name):
    sc = get_builtin(name)
    observable, decomp, app, initial = instantiate(sc)
    cfg = ProtocolConfig(target_eigenvalue=sc.target_eigenvalue)
    result = discriminate(initial, app, observable, cfg)
    assert result.verdict is sc.expected_verdict
    assert result.detected_at is sc.expected_detected_at


def scaled_scenario(sc, factor):
    """The scenario with its observable, its target and a consecutive device's
    observables multiplied by ``factor``."""

    def scale(terms):
        return tuple((factor * c, word) for c, word in terms)

    spec = sc.apparatus_spec
    if isinstance(spec, ConsecutiveSpec):
        spec = ConsecutiveSpec(tuple(scale(o) for o in spec.observables))
    target = sc.target_eigenvalue
    return dataclasses.replace(
        sc, observable_expr=scale(sc.observable_expr), apparatus_spec=spec,
        target_eigenvalue=None if target is None else factor * target,
    )


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_builtin_verdicts_do_not_depend_on_the_observable_scale(name):
    # Outcomes are column indices, so nothing in a run grows with the
    # eigenvalues: every scale from 1e-3 to 1e12 gives the unscaled evidence.
    def run(sc, mode):
        observable, _, app, initial = instantiate(sc)
        return discriminate(initial, app, observable, ProtocolConfig(
            mode=mode, ensemble_size=200, seed=3,
            target_eigenvalue=sc.target_eigenvalue,
        ))

    sc = get_builtin(name)
    for mode in Mode:
        want = run(sc, mode)
        for k in range(-3, 13):
            got = run(scaled_scenario(sc, 10.0**k), mode)
            assert (got.verdict, got.detected_at) == (want.verdict, want.detected_at)
            if mode is Mode.SAMPLED:
                continue
            assert len(got.evidence) == len(want.evidence)
            for a, b in zip(got.evidence, want.evidence):
                assert (a.unprobed, a.mismatch_count) == (
                    b.unprobed, b.mismatch_count
                )
                assert [(x, [i for i, _ in s]) for x, s in a.branch_support] == [
                    (x, [i for i, _ in s]) for x, s in b.branch_support
                ]
                for (_, s), (_, t) in zip(a.branch_support, b.branch_support):
                    for (_, p), (_, q) in zip(s, t):
                        assert abs(p - q) <= 1e-9


def test_s2_uses_total_spin_eigenbasis():
    sc = get_builtin("s2-vn-total-spin")
    _, decomp, app, _ = instantiate(sc)
    ref = app.reveal_refinement()
    k = decomp.group_index(0.0)
    group = group_vectors(ref, k)
    phi_plus = (PLUS_MINUS + MINUS_PLUS) / np.sqrt(2)
    overlaps = sorted(round(abs(np.vdot(phi_plus, v)), 6) for v in group)
    assert overlaps == [0.0, 1.0]


def test_s4_targets_the_rank_two_blocks():
    sc = get_builtin("s4-partial-3spin")
    assert sc.target_eigenvalue == 0.0
    _, decomp, app, _ = instantiate(sc)
    k = decomp.group_index(0.0)
    ref = app.reveal_refinement()
    assert ref.block_count(k) == 2
    assert ref.blocks[k] == (2, 2)


def test_consecutive_spec_accepts_term_lists():
    spec = ConsecutiveSpec(observables=(((1.0, "ZI"),), ((1.0, "IZ"),)))
    sc = get_builtin("s3-consecutive")
    assert isinstance(sc.apparatus_spec, ConsecutiveSpec)
    assert sc.apparatus_spec == spec


def test_s4_target_eigenspace_is_four_dimensional():
    sc = get_builtin("s4-partial-3spin")
    _, decomp, _, _ = instantiate(sc)
    k = decomp.group_index(0.0)
    assert decomp.multiplicities[k] == 4


def test_default_state_populates_the_eigenspace_discriminate_interrogates():
    # s1's total z has the groups 2, 0 and -2, of sizes 1, 2 and 1; a
    # non-degenerate target is never measured, and gets group 0's state
    base = get_builtin("s1-luders-2spin")
    for target, group in ((None, 1), (0.0, 1), (-2.0, 0)):
        sc = dataclasses.replace(base, target_eigenvalue=target)
        observable, decomp, app, initial = instantiate(sc)
        want = default_initial_state(decomp, group).vector
        assert np.array_equal(initial.vector, want)
    result = discriminate(initial, app, observable,
                          ProtocolConfig(target_eigenvalue=-2.0))
    assert result.verdict is Verdict.INDETERMINATE


def test_builtin_expectations_match_the_refinement_oracle():
    for sc in builtin_scenarios():
        _, decomp, app, _ = instantiate(sc)
        if sc.expected_verdict is Verdict.INDETERMINATE:
            # no degenerate eigenvalue: nothing for an oracle to classify
            assert all(n == 1 for n in decomp.multiplicities)
            continue
        k = resolve_target(decomp, sc.target_eigenvalue)
        oracle = classify_refinement_oracle(app.reveal_refinement(), k)
        assert oracle is sc.expected_verdict
