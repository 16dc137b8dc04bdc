"""The benchmark's workloads: input builders, one case runner, verdict checks.

Each workload is a list of cases rebuilt once per cycle.  Cycle ``i`` of a
run draws every random choice (Haar rotations, protocol seeds) from
``SeedSequence(seed, spawn_key=(i,))``, so the same seed gives the same
inputs, and the program receives only the generated matrices, states and
protocol seeds.  Fresh inputs per cycle keep the work the cases share fixed
by the workload's definition, whatever the run length.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "ludercheck" / "__init__.py").is_file():
    raise ImportError(f"no ludercheck sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

# One BLAS thread, set before numpy loads it: the loop has one client, and on
# a host with few cores a second BLAS thread measures the scheduler.  Fresh
# set-up interpreters inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import ludercheck  # noqa: E402
from ludercheck import apparatus, cli, protocol, quantum, scenarios  # noqa: E402
from ludercheck.protocol import Mode, ProtocolConfig, StageKind, Verdict  # noqa: E402

if Path(ludercheck.__file__).resolve().parent != SRC / "ludercheck":
    raise ImportError(f"ludercheck imported from {ludercheck.__file__}, not {SRC}")

#: Systems drawn per sampled-mode case.
SAMPLED_ENSEMBLE = 10_000


@dataclass(frozen=True)
class Case:
    """One ``discriminate`` call with the verdict it must reach."""

    name: str
    initial: "quantum.PureState | quantum.DensityMatrix"
    app: apparatus.MeasurementApparatus
    observable: np.ndarray
    config: ProtocolConfig
    expected: Verdict
    # Sampled builtins also gate where the verdict was reached; exact cases
    # record it only, since it depends on the eigensolver's basis inside
    # rotated degenerate eigenspaces.
    expected_detected_at: StageKind | None = None
    gate_detected_at: bool = False
    gate_zero_mismatches: bool = False


@dataclass(frozen=True)
class Outcome:
    """What one case produced: timings, sizes, and a problem if it was wrong."""

    verdict_s: float
    report_s: float
    report_bytes: int
    drawn: int
    kept: int
    transcript_records: int
    detected_at: str | None
    problem: str | None


def cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cycle,)))


def _protocol_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    a = u @ m @ u.conj().T
    return (a + a.conj().T) / 2


def set_partitions(items):
    """All partitions of a list into unordered non-empty cells."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def _canonical_blocks(partition) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(cell)) for cell in partition))


def _oracle_bases() -> tuple[np.ndarray, ...]:
    """The four base observables of the c1 oracle sweep, d <= 8."""
    return (
        quantum.build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ"))),
        quantum.build_spin_operator(3, ((1.0, "ZII"), (1.0, "IZI"))),
        np.diag([5.0, 5.0, 3.0, 3.0]).astype(complex),
        np.diag([2.0, 2.0, 2.0, 0.0, 0.0, -1.0]).astype(complex),
    )


def build_oracle_sweep(rng: np.random.Generator) -> list[Case]:
    """Every set partition of every eigenspace, against every degenerate target.

    Each base observable is run under the identity and three Haar rotations;
    the expected verdict comes from the ground-truth oracle.
    """
    cases = []
    for base in _oracle_bases():
        dim = base.shape[0]
        rotations = [np.eye(dim)] + [haar_unitary(dim, rng) for _ in range(3)]
        for r, u in enumerate(rotations):
            observable = _rotate(u, base)
            decomp = quantum.spectral_decompose(observable)
            per_group = [
                [_canonical_blocks(p) for p in set_partitions(range(n))]
                for n in decomp.multiplicities
            ]
            for combo in itertools.product(*per_group):
                app = apparatus.make_partial(decomp, combo)
                for k, n in enumerate(decomp.multiplicities):
                    if n < 2:
                        continue
                    cases.append(Case(
                        name=f"oracle-d{dim}-r{r}-k{k}",
                        initial=scenarios.default_initial_state(decomp, k),
                        app=app,
                        observable=observable,
                        config=ProtocolConfig(
                            target_eigenvalue=decomp.eigenvalues[k],
                            seed=_protocol_seed(rng),
                        ),
                        expected=protocol.classify_refinement_oracle(
                            app.reveal_refinement(), k
                        ),
                    ))
    return cases


def _site_z(site: int) -> tuple[float, str]:
    return (1.0, "I" * site + "Z" + "I" * (5 - site))


def build_spin6_exact(rng: np.random.Generator) -> list[Case]:
    """Six-spin total z under one Haar rotation, at the cap dimension 64.

    A Lüders device, a consecutive ZIIIII, IZIIII device and a full von
    Neumann device each meet every degenerate eigenspace (sizes 6, 15, 20,
    15, 6): 15 cases.
    """
    u = haar_unitary(64, rng)
    observable = _rotate(u, quantum.build_spin_operator(6, tuple(
        _site_z(site) for site in range(6)
    )))
    devices = (
        ("luders", scenarios.LudersSpec()),
        ("consecutive", scenarios.ConsecutiveSpec(observables=tuple(
            _rotate(u, quantum.build_spin_operator(6, (_site_z(site),)))
            for site in (0, 1)
        ))),
        ("full-vn", scenarios.FullVonNeumannSpec()),
    )
    cases = []
    for device, spec in devices:
        scenario = scenarios.Scenario(
            name=f"spin6-{device}",
            summary="rotated six-spin total z",
            sites=6,
            observable_expr=observable,
            apparatus_spec=spec,
            initial_state=None,
            target_eigenvalue=None,
        )
        obs, decomp, app, _ = scenarios.instantiate(scenario)
        for k, n in enumerate(decomp.multiplicities):
            if n < 2:
                continue
            cases.append(Case(
                name=f"spin6-{device}-k{k}",
                initial=scenarios.default_initial_state(decomp, k),
                app=app,
                observable=obs,
                config=ProtocolConfig(
                    target_eigenvalue=decomp.eigenvalues[k],
                    seed=_protocol_seed(rng),
                ),
                expected=protocol.classify_refinement_oracle(
                    app.reveal_refinement(), k
                ),
            ))
    return cases


SAMPLED_BUILTINS = (
    "s1-luders-2spin", "s2-vn-total-spin", "s3-consecutive", "s4-partial-3spin",
)


def build_sampled_builtins(rng: np.random.Generator) -> list[Case]:
    """s1-s4 in sampled mode, plus s3 from a rank-2 mixed initial state.

    The mixed state is an equal mixture of s3's default state and the first
    basis vector of its target eigenspace.
    """

    def sampled_case(name, scenario, obs, app, initial):
        return Case(
            name=name,
            initial=initial,
            app=app,
            observable=obs,
            config=ProtocolConfig(
                mode=Mode.SAMPLED,
                ensemble_size=SAMPLED_ENSEMBLE,
                target_eigenvalue=scenario.target_eigenvalue,
                seed=_protocol_seed(rng),
            ),
            expected=scenario.expected_verdict,
            expected_detected_at=scenario.expected_detected_at,
            gate_detected_at=True,
            gate_zero_mismatches=scenario.expected_verdict is Verdict.LUDERS,
        )

    cases = []
    for name in SAMPLED_BUILTINS:
        scenario = scenarios.get_builtin(name)
        obs, _, app, initial = scenarios.instantiate(scenario)
        cases.append(sampled_case(name, scenario, obs, app, initial))
    scenario = scenarios.get_builtin("s3-consecutive")
    obs, decomp, app, default = scenarios.instantiate(scenario)
    k = next(k for k, n in enumerate(decomp.multiplicities) if n >= 2)
    basis_vector = decomp.eigenbasis[k][0]
    mixed = quantum.DensityMatrix(
        0.5 * np.outer(default.vector, default.vector.conj())
        + 0.5 * np.outer(basis_vector, basis_vector.conj())
    )
    cases.append(sampled_case("s3-consecutive-mixed", scenario, obs, app, mixed))
    return cases


WORKLOADS = {
    "oracle-sweep": build_oracle_sweep,
    "spin6-exact": build_spin6_exact,
    "sampled-builtins": build_sampled_builtins,
}


def encode_report(report: dict) -> str:
    """The report as the command line writes it."""
    return json.dumps(report, indent=2, sort_keys=True)


def _problem(case: Case, result: protocol.Classification, report: dict) -> str | None:
    if result.verdict is not case.expected:
        return f"verdict {result.verdict.value}, expected {case.expected.value}"
    if case.gate_detected_at and result.detected_at is not case.expected_detected_at:
        return f"detected at {result.detected_at}, expected {case.expected_detected_at}"
    if case.gate_zero_mismatches and any(s.mismatch_count for s in result.evidence):
        return "a Lüders device produced mismatches"
    if report["verdict"] != result.verdict.value or len(
        report.get("transcript", ())
    ) != len(result.transcript):
        return "the report disagrees with the classification"
    return None


def run_case(case: Case) -> Outcome:
    """Run one case as a command-line user would: verdict, then its report.

    Program functions are looked up on their modules at call time, so a
    tracer that patches those names sees these calls.
    """
    started = time.perf_counter()
    result = protocol.discriminate(case.initial, case.app, case.observable, case.config)
    decided = time.perf_counter()
    report = cli.build_report(
        result, case.config, case.name, decided - started, include_transcript=True
    )
    text = encode_report(report)
    reported = time.perf_counter()
    sampled = case.config.mode is Mode.SAMPLED
    return Outcome(
        verdict_s=decided - started,
        report_s=reported - decided,
        report_bytes=len(text.encode()),
        drawn=case.config.ensemble_size if sampled else 0,
        kept=result.evidence[0].trials if sampled and result.evidence else 0,
        transcript_records=len(result.transcript),
        detected_at=None if result.detected_at is None else result.detected_at.value,
        problem=_problem(case, result, report),
    )
