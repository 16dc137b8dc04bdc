"""Acceptance suite: one test per acceptance criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives
one PASS/FAIL line per criterion.  Each test also prints the measured
quantities it gated on (visible with ``-s`` or in failure reports).
"""

import itertools
import json
import math
import time

import numpy as np

from ludercheck.apparatus import make_full_von_neumann, make_luders, make_partial
from ludercheck.cli import main as cli_main
from ludercheck.protocol import (
    Mode,
    ProtocolConfig,
    StageKind,
    Verdict,
    classify_refinement_oracle,
    discriminate,
    required_ensemble_size,
)
from ludercheck.quantum import (
    DensityMatrix,
    TOTAL_SPIN_SQ,
    build_sigma,
    build_sigma_prime,
    build_spin_operator,
    sigma_entries_in_group,
    spectral_decompose,
)
from ludercheck.scenarios import builtin_scenarios, default_initial_state

from conftest import (
    apply_spectral_function,
    luders_channel,
    random_density,
    random_unitary,
    set_partitions,
)


SQ2 = np.sqrt(2.0)
PLUS_PLUS = np.array([1, 0, 0, 0], dtype=complex)
PLUS_MINUS = np.array([0, 1, 0, 0], dtype=complex)
MINUS_PLUS = np.array([0, 0, 1, 0], dtype=complex)
MINUS_MINUS = np.array([0, 0, 0, 1], dtype=complex)
PHI_PLUS = (PLUS_MINUS + MINUS_PLUS) / SQ2
PHI_MINUS = (PLUS_MINUS - MINUS_PLUS) / SQ2

TOTAL_Z_2 = build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ")))


def canonical_blocks(partition):
    cells = [tuple(sorted(cell)) for cell in partition]
    return tuple(sorted(cells))


def test_c1_exact_verdict_equals_oracle_for_every_partition():
    """Criterion 1: oracle equivalence over all eigenspace partitions."""
    observables = [
        TOTAL_Z_2,
        build_spin_operator(3, ((1.0, "ZII"), (1.0, "IZI"))),
        np.diag([5.0, 5.0, 3.0, 3.0]).astype(complex),
        np.diag([2.0, 2.0, 2.0, 0.0, 0.0, -1.0]).astype(complex),
    ]
    rng = np.random.default_rng(424242)
    started = time.perf_counter()
    cases = 0
    disagreements = []
    for base in observables:
        dim = base.shape[0]
        assert dim <= 8
        rotations = [np.eye(dim)] + [random_unitary(dim, rng) for _ in range(3)]
        for u in rotations:
            a = u @ base @ u.conj().T
            a = (a + a.conj().T) / 2
            d = spectral_decompose(a)
            per_group = [
                [canonical_blocks(p) for p in set_partitions(range(n))]
                for n in d.multiplicities
            ]
            for combo in itertools.product(*per_group):
                app = make_partial(d, tuple(combo))
                for k, n in enumerate(d.multiplicities):
                    if n < 2:
                        continue
                    expected = classify_refinement_oracle(
                        app.reveal_refinement(), k
                    )
                    psi = default_initial_state(d, k)
                    cfg = ProtocolConfig(target_eigenvalue=d.eigenvalues[k])
                    got = discriminate(psi, app, a, cfg).verdict
                    cases += 1
                    if got is not expected:
                        disagreements.append((dim, combo, k, expected, got))
    elapsed = time.perf_counter() - started
    print(f"[criterion 1] {cases} cases, {len(disagreements)} disagreements, "
          f"{elapsed:.1f} s")
    assert cases >= 200
    assert disagreements == []
    assert elapsed < 60.0


def test_c2_spectral_function_recovers_total_z():
    """Criterion 2: the cubic f maps the refined observable back to total z."""
    refined = build_spin_operator(
        2, ((1.0, "ZI"), (1.0, "IZ"), (1.0, TOTAL_SPIN_SQ)))
    f = lambda x: -(8.0 / 3.0) * x + x**2 - x**3 / 12.0
    error = np.abs(apply_spectral_function(refined, f) - TOTAL_Z_2).max()
    print(f"[criterion 2] max deviation {error:.3e}")
    assert error <= 1e-9


def test_c3_computational_refinement_needs_the_second_pass():
    """Criterion 3: blocks aligned with sigma pass stage one, fail stage two."""
    d = spectral_decompose(TOTAL_Z_2)
    app = make_full_von_neumann(d)  # refines into |+->, |-+>
    psi = default_initial_state(d, 1)
    result = discriminate(psi, app, TOTAL_Z_2,
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA_PRIME
    assert result.evidence[0].consistent
    assert not result.evidence[1].consistent
    # hand-derived Born values: repeating the first outcome has weight 1/2
    for first, support in result.evidence[1].branch_support:
        same = dict(support).get(first, 0.0)
        assert abs(same - 0.5) <= 1e-9

    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=10_000, seed=1303,
                         target_eigenvalue=0.0)
    sampled = discriminate(psi, app, TOTAL_Z_2, cfg)
    assert sampled.verdict is Verdict.NON_LUDERS
    assert sampled.detected_at is StageKind.SIGMA_PRIME
    assert sampled.evidence[0].consistent
    stage = sampled.evidence[1]
    freq = stage.mismatch_count / stage.trials
    five_sigma = 5 * math.sqrt(0.25 / stage.trials)
    print(f"[criterion 3] exact repeat weight 0.5, sampled mismatch "
          f"{freq:.4f} over {stage.trials} trials (5 sigma = {five_sigma:.4f})")
    assert abs(freq - 0.5) <= five_sigma


def test_c4_total_spin_refinement_disturbs_stage_one():
    """Criterion 4: the |phi+-> device splits both probe vectors evenly."""
    d = spectral_decompose(TOTAL_Z_2)
    basis = ((PLUS_PLUS,), (PHI_PLUS, PHI_MINUS), (MINUS_MINUS,))
    app = make_full_von_neumann(d, eigenbasis_choice=basis)
    psi = default_initial_state(d, 1)
    result = discriminate(psi, app, TOTAL_Z_2,
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA
    stage = result.evidence[0]
    group_labels = set(stage.observed_first_labels)
    assert len(group_labels) == 2
    for _, support in stage.branch_support:
        weights = dict(support)
        assert set(weights) == group_labels
        for p in weights.values():
            assert abs(p - 0.5) <= 1e-9

    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=10_000, seed=1404,
                         target_eigenvalue=0.0)
    sampled = discriminate(psi, app, TOTAL_Z_2, cfg)
    assert sampled.verdict is Verdict.NON_LUDERS
    assert sampled.detected_at is StageKind.SIGMA
    first = sampled.evidence[0]
    freq = first.mismatch_count / first.trials
    five_sigma = 5 * math.sqrt(0.25 / first.trials)
    print(f"[criterion 4] exact support (0.5, 0.5), sampled mismatch "
          f"{freq:.4f} over {first.trials} trials (5 sigma = {five_sigma:.4f})")
    assert abs(freq - 0.5) <= five_sigma


def test_c5_luders_apparatus_never_mismatches():
    """Criterion 5: 1e5 sampled trajectories through Lüders devices, zero
    mismatches."""
    rng_seed = 1505
    total_trials = 0
    total_mismatches = 0
    for scenario in builtin_scenarios():
        a = scenario.observable()
        d = spectral_decompose(a)
        if all(n < 2 for n in d.multiplicities):
            continue
        app = make_luders(d)
        k = next(i for i, n in enumerate(d.multiplicities) if n >= 2)
        psi = default_initial_state(d, k)
        cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=30_000,
                             seed=rng_seed, target_eigenvalue=d.eigenvalues[k])
        result = discriminate(psi, app, a, cfg)
        assert result.verdict is Verdict.LUDERS
        for stage in result.evidence:
            total_trials += stage.trials
            total_mismatches += stage.mismatch_count
        rng_seed += 1
    print(f"[criterion 5] {total_trials} trajectories, "
          f"{total_mismatches} mismatches")
    assert total_trials >= 100_000
    assert total_mismatches == 0


def test_c6_channel_invariants_on_random_pairs():
    """Criterion 6: trace, idempotence, and label repeatability invariants."""
    rng = np.random.default_rng(1606)
    pairs = 0
    worst_trace = 0.0
    worst_idem = 0.0
    worst_repeat = 0.0
    while pairs < 500:
        dim = int(rng.integers(2, 17))
        values = rng.integers(-2, 3, size=dim).astype(float)
        u = random_unitary(dim, rng)
        a = u @ np.diag(values) @ u.conj().T
        a = (a + a.conj().T) / 2
        d = spectral_decompose(a)
        blocks = []
        for n in d.multiplicities:
            order = list(rng.permutation(n))
            cells = []
            start = 0
            while start < n:
                size = int(rng.integers(1, n - start + 1))
                cells.append(tuple(sorted(order[start:start + size])))
                start += size
            blocks.append(tuple(cells))
        app = make_partial(d, tuple(blocks))
        for _ in range(5):
            rho = DensityMatrix(
                random_density(dim, rng, rank=int(rng.integers(1, dim + 1))))
            branches = app.channel_exact(rho)
            total = sum(p for _, p, _ in branches)
            worst_trace = max(worst_trace, abs(total - 1.0))
            for _, p, post in branches:
                worst_trace = max(
                    worst_trace, abs(np.trace(post.matrix).real - 1.0))
            once = luders_channel(d, rho)
            twice = luders_channel(d, once)
            worst_idem = max(worst_idem,
                             np.abs(twice.matrix - once.matrix).max())
            for label, p, post in branches:
                again = app.channel_exact(post)
                repeat = sum(q for lab, q, _ in again if lab == label)
                worst_repeat = max(worst_repeat, abs(repeat - 1.0))
            pairs += 1
    print(f"[criterion 6] {pairs} pairs, worst trace error {worst_trace:.2e}, "
          f"idempotence {worst_idem:.2e}, repeatability {worst_repeat:.2e}")
    assert worst_trace <= 1e-9
    assert worst_idem <= 1e-9
    assert worst_repeat <= 1e-9


def test_c7_second_pass_overlap_margins():
    """Criterion 7: rotated probe vectors overlap every probe direction."""
    cases = {
        2: TOTAL_Z_2,
        3: np.diag([7.0, 7.0, 7.0, 0.0]).astype(complex),
        4: build_spin_operator(3, ((1.0, "ZII"), (1.0, "IZI"))),
    }
    worst = 0.0
    for n, a in cases.items():
        d = spectral_decompose(a)
        k = next(i for i, m in enumerate(d.multiplicities) if m == n)
        sd = build_sigma(d)
        probes = sigma_entries_in_group(d, sd, k)
        spd = build_sigma_prime(sd, probes)
        # positions of eigenspace k's vectors in the flat rank-one listing
        in_group = []
        offset = 0
        for g, m in enumerate(d.multiplicities):
            for j in range(m):
                if g == k:
                    in_group.append(offset + j)
            offset += m
        assert probes.tolist() == in_group
        s_vecs = [sd.eigenbasis[i][0] for i in in_group]
        sp_vecs = [spd.eigenbasis[i][0] for i in in_group]
        for sp in sp_vecs:
            for s in s_vecs:
                worst = max(worst, abs(abs(np.vdot(s, sp)) - 1 / math.sqrt(n)))
    # for n = 2 the rotated probes are the symmetric/antisymmetric pair
    d = spectral_decompose(TOTAL_Z_2)
    sd = build_sigma(d)
    spd = build_sigma_prime(sd, sigma_entries_in_group(d, sd, 1))
    fidelities = []
    for i in (1, 2):
        vec = spd.eigenbasis[i][0]
        fidelities.append(max(abs(np.vdot(PHI_PLUS, vec))**2,
                              abs(np.vdot(PHI_MINUS, vec))**2))
    matched = {int(np.argmax([abs(np.vdot(PHI_PLUS, spd.eigenbasis[i][0]))**2,
                              abs(np.vdot(PHI_MINUS, spd.eigenbasis[i][0]))**2]))
               for i in (1, 2)}
    print(f"[criterion 7] worst overlap deviation {worst:.2e}, "
          f"phi fidelities {min(fidelities):.12f}")
    assert worst <= 1e-9
    assert min(fidelities) >= 1 - 1e-9
    assert matched == {0, 1}


def test_c8_sample_size_formula():
    """Criterion 8: the closed-form ensemble size for the acceptance bound."""
    assert required_ensemble_size(0.5, 0.001) == 10
    assert required_ensemble_size(0.1, 0.01) == 44
    checked = 0
    for p_star in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        for delta in (0.1, 0.01, 1e-3, 1e-6):
            got = required_ensemble_size(p_star, delta)
            # the returned size always honours the acceptance bound
            assert (1 - p_star) ** got <= delta * (1 + 1e-9)
            ratio = math.log(delta) / math.log(1 - p_star)
            if abs(ratio - round(ratio)) > 1e-6:
                # away from integer boundaries the closed form is exact
                assert got == math.ceil(ratio), (p_star, delta, got, ratio)
                checked += 1
    print(f"[criterion 8] N(0.5, 1e-3) = 10, N(0.1, 1e-2) = 44, closed form "
          f"verified at {checked} grid points")


def test_c9_cli_reports_are_deterministic(tmp_path, capsys):
    """Criterion 9: same seed, same bytes (wall time aside)."""
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    argv = ["discriminate", "--builtin", "s2-vn-total-spin",
            "--mode", "sampled", "--seed", "42"]
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    capsys.readouterr()
    assert code1 == code2 == 2

    def stable(path):
        return [line for line in path.read_bytes().splitlines()
                if b"wall_time_s" not in line]

    same = stable(out1) == stable(out2)
    report = json.loads(out1.read_text())
    print(f"[criterion 9] byte-identical: {same}, "
          f"verdict {report['verdict']} at {report['detected_at']}")
    assert same
    assert report["verdict"] == "NON_LUDERS"
