"""Command-line front end: run, list, and validate discrimination scenarios.

Scenario files are JSON (schema_version 1).  Reports are JSON with
``report_schema`` 3: with ``--transcript``, each measurement record is a
``[system_id, stage, label]`` array, two per system and pass, and its
timestamp is its position in the list.  Reports are deterministic for a
fixed seed: rerunning the same scenario with the same seed produces the
same bytes except for the wall-time field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import Any

import numpy as np

from .linalg import DEFAULT_TOL
from .protocol import (
    STAGE_NAMES,
    Classification,
    EmptySelectionError,
    Mode,
    ProtocolConfig,
    RepeatabilityError,
    Verdict,
    classify_refinement_oracle,
    discriminate,
    resolve_target,
)
from .quantum import MAX_SITES
from .scenarios import (
    ConsecutiveSpec,
    FullVonNeumannSpec,
    LudersSpec,
    PartialSpec,
    Scenario,
    builtin_scenarios,
    get_builtin,
    instantiate,
)

SCHEMA_VERSION = 1
REPORT_SCHEMA = 3

_EXIT_CODE = {Verdict.LUDERS: 0, Verdict.NON_LUDERS: 2, Verdict.INDETERMINATE: 3}


class ScenarioFormatError(ValueError):
    """A scenario document failed validation; carries the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect_object(node, path: str, allowed: set[str]) -> dict:
    if not isinstance(node, dict):
        raise ScenarioFormatError(path, "expected an object")
    for key in node:
        if key not in allowed:
            raise ScenarioFormatError(
                f"{path}.{key}", f"unknown field; allowed: {sorted(allowed)}"
            )
    return node


def _expect_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioFormatError(path, "expected a number")
    # JSON admits NaN, Infinity and integers beyond the float range.
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioFormatError(path, "expected a finite number")
    return value


def _expect_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioFormatError(path, "expected an integer")
    return node


def _parse_complex(node, path: str) -> complex:
    if not isinstance(node, list) or len(node) != 2:
        raise ScenarioFormatError(path, "expected a [re, im] pair")
    return complex(_expect_number(node[0], f"{path}[0]"),
                   _expect_number(node[1], f"{path}[1]"))


def _parse_amplitudes(node, path: str) -> tuple[complex, ...]:
    if not isinstance(node, list) or not node:
        raise ScenarioFormatError(path, "expected a non-empty list of [re, im] pairs")
    return tuple(_parse_complex(x, f"{path}[{i}]") for i, x in enumerate(node))


def _parse_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ScenarioFormatError(path, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != len(node):
            raise ScenarioFormatError(f"{path}[{i}]", "matrix must be square")
        rows.append([_parse_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_expression(node, path: str):
    doc = _expect_object(node, path, {"terms", "matrix"})
    if ("terms" in doc) == ("matrix" in doc):
        raise ScenarioFormatError(path, "give exactly one of 'terms' or 'matrix'")
    if "matrix" in doc:
        return _parse_matrix(doc["matrix"], f"{path}.matrix")
    terms = doc["terms"]
    if not isinstance(terms, list) or not terms:
        raise ScenarioFormatError(f"{path}.terms", "expected a non-empty list")
    out = []
    for i, term in enumerate(terms):
        tpath = f"{path}.terms[{i}]"
        if not isinstance(term, list) or len(term) != 2:
            raise ScenarioFormatError(tpath, "expected [coefficient, word]")
        coeff = _expect_number(term[0], f"{tpath}[0]")
        word = term[1]
        if not isinstance(word, str):
            raise ScenarioFormatError(f"{tpath}[1]", "expected a Pauli word string")
        out.append((coeff, word))
    return tuple(out)


def _parse_blocks(node, path: str):
    if not isinstance(node, list) or not node:
        raise ScenarioFormatError(path, "expected one block list per eigenvalue group")
    groups = []
    for k, cells in enumerate(node):
        gpath = f"{path}[{k}]"
        if not isinstance(cells, list) or not cells:
            raise ScenarioFormatError(gpath, "expected a non-empty list of cells")
        parsed = []
        for b, cell in enumerate(cells):
            cpath = f"{gpath}[{b}]"
            if not isinstance(cell, list) or not cell:
                raise ScenarioFormatError(cpath, "expected a non-empty index list")
            parsed.append(tuple(_expect_int(i, f"{cpath}[{j}]")
                                for j, i in enumerate(cell)))
        groups.append(tuple(parsed))
    return tuple(groups)


def _parse_apparatus(node, path: str):
    doc = _expect_object(node, path, {"kind", "eigenbasis", "blocks", "observables"})
    kind = doc.get("kind")
    if kind == "luders":
        _expect_object(node, path, {"kind"})
        return LudersSpec()
    if kind == "full_von_neumann":
        _expect_object(node, path, {"kind", "eigenbasis"})
        eigenbasis = None
        if "eigenbasis" in doc and doc["eigenbasis"] is not None:
            raw = doc["eigenbasis"]
            if not isinstance(raw, list):
                raise ScenarioFormatError(f"{path}.eigenbasis", "expected a list")
            groups = []
            for k, group in enumerate(raw):
                if group is None:
                    groups.append(None)
                    continue
                gpath = f"{path}.eigenbasis[{k}]"
                if not isinstance(group, list) or not group:
                    raise ScenarioFormatError(gpath, "expected null or a vector list")
                groups.append(tuple(
                    _parse_amplitudes(v, f"{gpath}[{i}]") for i, v in enumerate(group)
                ))
            eigenbasis = tuple(groups)
        return FullVonNeumannSpec(eigenbasis=eigenbasis)
    if kind == "partial":
        _expect_object(node, path, {"kind", "blocks"})
        if "blocks" not in doc:
            raise ScenarioFormatError(f"{path}.blocks", "required for kind 'partial'")
        return PartialSpec(blocks=_parse_blocks(doc["blocks"], f"{path}.blocks"))
    if kind == "consecutive":
        _expect_object(node, path, {"kind", "observables"})
        raw = doc.get("observables")
        if not isinstance(raw, list) or not raw:
            raise ScenarioFormatError(
                f"{path}.observables", "expected a non-empty list of expressions"
            )
        return ConsecutiveSpec(observables=tuple(
            _parse_expression(o, f"{path}.observables[{i}]") for i, o in enumerate(raw)
        ))
    raise ScenarioFormatError(
        f"{path}.kind",
        "expected one of 'luders', 'full_von_neumann', 'partial', 'consecutive'",
    )


def _parse_protocol(node, path: str) -> ProtocolConfig:
    doc = _expect_object(node, path, {
        "mode", "ensemble_size", "target_eigenvalue", "seed",
    })
    kwargs: dict[str, Any] = {}
    if "mode" in doc:
        if doc["mode"] not in ("exact", "sampled"):
            raise ScenarioFormatError(f"{path}.mode", "expected 'exact' or 'sampled'")
        kwargs["mode"] = Mode(doc["mode"])
    if "ensemble_size" in doc:
        kwargs["ensemble_size"] = _expect_int(doc["ensemble_size"],
                                              f"{path}.ensemble_size")
    if "target_eigenvalue" in doc and doc["target_eigenvalue"] is not None:
        kwargs["target_eigenvalue"] = _expect_number(doc["target_eigenvalue"],
                                                     f"{path}.target_eigenvalue")
    if "seed" in doc and doc["seed"] is not None:
        kwargs["seed"] = _expect_int(doc["seed"], f"{path}.seed")
        if kwargs["seed"] < 0:
            raise ScenarioFormatError(
                f"{path}.seed", "expected a non-negative integer"
            )
    return ProtocolConfig(**kwargs)


def parse_scenario_document(doc) -> tuple[Scenario, ProtocolConfig]:
    """Validate a scenario document and build the runtime pieces."""
    top = _expect_object(doc, "$", {
        "schema_version", "sites", "observable", "apparatus", "initial_state",
        "protocol",
    })
    version = top.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "$.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        )
    if "observable" not in top:
        raise ScenarioFormatError("$.observable", "required field is missing")
    if "apparatus" not in top:
        raise ScenarioFormatError("$.apparatus", "required field is missing")
    sites = None
    if "sites" in top and top["sites"] is not None:
        sites = _expect_int(top["sites"], "$.sites")
        if not 1 <= sites <= MAX_SITES:
            raise ScenarioFormatError(
                "$.sites", f"expected an integer from 1 to {MAX_SITES}"
            )
    observable = _parse_expression(top["observable"], "$.observable")
    if not isinstance(observable, np.ndarray) and sites is None:
        raise ScenarioFormatError("$.sites", "required when the observable uses terms")
    apparatus_spec = _parse_apparatus(top["apparatus"], "$.apparatus")
    initial = None
    if "initial_state" in top and top["initial_state"] != "auto":
        initial = _parse_amplitudes(top["initial_state"], "$.initial_state")
    config = _parse_protocol(top.get("protocol", {}), "$.protocol")
    scenario = Scenario(
        name="file",
        summary="scenario loaded from file",
        sites=sites,
        observable_expr=observable,
        apparatus_spec=apparatus_spec,
        initial_state=initial,
        target_eigenvalue=config.target_eigenvalue,
    )
    return scenario, config


def build_report(result: Classification, config: ProtocolConfig,
                 scenario_name: str, wall_time_s: float,
                 include_transcript: bool) -> dict:
    """The structured report; deterministic except for wall_time_s.

    With ``include_transcript`` the ``transcript`` field lists every
    measurement record of ``result.transcript`` in order, each as
    ``[system_id, stage_name, label]``; a record's timestamp is its index.
    """
    stages = []
    for stage in result.evidence:
        stages.append({
            "stage": stage.stage.value,
            "consistent": stage.consistent,
            "observed_first_labels": list(stage.observed_first_labels),
            "mismatch_count": stage.mismatch_count,
            "trials": stage.trials,
            "branch_support": [
                {"first_label": label, "support": [[lab, p] for lab, p in support]}
                for label, support in stage.branch_support
            ],
            "unprobed_labels": list(stage.unprobed_labels),
        })
    report = {
        "report_schema": REPORT_SCHEMA,
        "scenario": scenario_name,
        "verdict": result.verdict.value,
        "detected_at": None if result.detected_at is None
        else result.detected_at.value,
        "target_eigenvalue": result.target_eigenvalue,
        "stages": stages,
        "false_acceptance_log10_bound": result.false_acceptance_log10_bound,
        "seed": config.seed,
        "config": {
            "mode": config.mode.value,
            "ensemble_size": config.ensemble_size,
            "target_eigenvalue": config.target_eigenvalue,
            "tol": DEFAULT_TOL,
        },
        "wall_time_s": wall_time_s,
    }
    if include_transcript:
        records = result.transcript
        report["transcript"] = [
            [sid, STAGE_NAMES[stage], label]
            for sid, stage, label in zip(
                records.system_ids.tolist(), records.stages.tolist(),
                records.labels.tolist(),
            )
        ]
    return report


def _print_report(report: dict):
    print(f"scenario: {report['scenario']}")
    print(f"mode: {report['config']['mode']}   seed: {json.dumps(report['seed'])}")
    print(f"verdict: {report['verdict']}")
    if report["detected_at"] is not None:
        print(f"detected at: {report['detected_at']}")
    if report["target_eigenvalue"] is not None:
        print(f"target eigenvalue: {report['target_eigenvalue']:g}")
    for stage in report["stages"]:
        status = "consistent" if stage["consistent"] else "inconsistent"
        print(f"stage {stage['stage']}: {status}, trials {stage['trials']}, "
              f"mismatches {stage['mismatch_count']}")
        for branch in stage["branch_support"]:
            support = ", ".join(f"{lab:g}: {p:.6g}" for lab, p in branch["support"])
            print(f"  first {branch['first_label']:g} -> {{{support}}}")
        if stage["unprobed_labels"]:
            labels = ", ".join(f"{x:g}" for x in stage["unprobed_labels"])
            print(f"  unprobed auxiliary outcomes: {labels}")
    if report["false_acceptance_log10_bound"] is not None:
        # Rounded up, so the printed power of ten is still a bound.
        exponent = math.ceil(100 * report["false_acceptance_log10_bound"]) / 100
        print(f"false acceptance bound: 10^{exponent:.2f}")
    elif report["config"]["mode"] == "sampled" and report["verdict"] == "LUDERS":
        print("false acceptance bound: none certified")
    if "transcript" in report:
        print(f"transcript: {len(report['transcript'])} measurement records")
    print(f"wall time: {report['wall_time_s']:.3f} s")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ludercheck",
                     description="Black-box discrimination of the Lüders rule.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("discriminate", help="run the protocol on a scenario")
    run.add_argument("--scenario", metavar="FILE", help="scenario JSON file")
    run.add_argument("--builtin", metavar="NAME", help="builtin scenario name")
    run.add_argument("--mode", choices=["exact", "sampled"],
                     help="override the protocol mode")
    run.add_argument("--ensemble-size", type=int, metavar="N",
                     help="override the sampled ensemble size")
    run.add_argument("--seed", type=int, metavar="S",
                     help="sampled-mode seed (drawn from entropy when absent)")
    run.add_argument("--target-eigenvalue", type=float, metavar="X",
                     help="override the interrogated eigenvalue")
    run.add_argument("--out", metavar="FILE", help="write the JSON report here")
    run.add_argument("--transcript", action="store_true",
                     help="include per-measurement records in the report")

    sub.add_parser("list", help="list the builtin scenarios")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", metavar="FILE", required=True,
                     help="scenario JSON file")
    val.add_argument("--reveal", action="store_true",
                     help="also print the ground-truth classification")
    return parser


def _load_scenario_file(path: str) -> tuple[Scenario, ProtocolConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError("$", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            "$", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario_document(doc)


def _cmd_discriminate(args) -> int:
    if (args.scenario is None) == (args.builtin is None):
        print("error: give exactly one of --scenario or --builtin",
              file=sys.stderr)
        return 1
    if args.builtin is not None:
        scenario = get_builtin(args.builtin)
        config = ProtocolConfig(target_eigenvalue=scenario.target_eigenvalue)
    else:
        scenario, config = _load_scenario_file(args.scenario)
    # Each override flag is stored under its ProtocolConfig field's name.
    fields = ("mode", "ensemble_size", "seed", "target_eigenvalue")
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    if args.mode is not None:
        overrides["mode"] = Mode(args.mode)
    config = dataclasses.replace(config, **overrides)
    config.validate()
    if config.mode is Mode.SAMPLED and config.seed is None:
        entropy = int(np.random.SeedSequence().entropy) & (2**63 - 1)
        config = dataclasses.replace(config, seed=entropy)
        print(f"seed drawn from entropy: {config.seed}")
    if config.target_eigenvalue is not None:
        scenario = dataclasses.replace(
            scenario, target_eigenvalue=config.target_eigenvalue
        )
    started = time.perf_counter()
    observable, _, app, initial = instantiate(scenario)
    result = discriminate(initial, app, observable, config)
    wall = time.perf_counter() - started
    report = build_report(result, config, scenario.name, wall, args.transcript)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    _print_report(report)
    return _EXIT_CODE[result.verdict]


def _cmd_list() -> int:
    for scenario in builtin_scenarios():
        print(f"{scenario.name:20s} {scenario.summary}")
    return 0


def _cmd_validate(args) -> int:
    scenario, config = _load_scenario_file(args.scenario)
    # discriminate validates after its command-line overrides; validate has
    # none, so it checks the file's protocol block as written
    try:
        config.validate()
    except ValueError as exc:
        raise ScenarioFormatError("$.protocol", str(exc)) from exc
    observable, decomp, app, _ = instantiate(scenario)
    groups = ", ".join(
        f"{a:g} (n={n})"
        for a, n in zip(decomp.eigenvalues, decomp.multiplicities)
    )
    print(f"scenario file is valid (schema_version {SCHEMA_VERSION})")
    print(f"observable: dimension {decomp.dim}")
    print(f"eigenvalue groups: {groups}")
    print(f"apparatus: {type(scenario.apparatus_spec).__name__}")
    print(f"protocol mode: {config.mode.value}")
    if args.reveal:
        target = resolve_target(decomp, config.target_eigenvalue)
        if target is None:
            print("ground truth: INDETERMINATE (no degenerate target eigenvalue)")
        else:
            verdict = classify_refinement_oracle(app.reveal_refinement(), target)
            print(f"ground truth at eigenvalue {decomp.eigenvalues[target]:g}: "
                  f"{verdict.value}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "discriminate":
            return _cmd_discriminate(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate(args)
    except (ScenarioFormatError, EmptySelectionError, RepeatabilityError,
            ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
