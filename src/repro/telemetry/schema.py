"""Dependency-free validation of telemetry artifacts.

The telemetry artifacts are a published interface: external tooling may
parse ``trace.jsonl``, ``telemetry.json`` and the per-run evidence in
``journal.jsonl`` long after the toolchain that wrote them is gone.  The
interface is pinned by JSON schemas checked in under ``docs/schemas/``
and enforced in CI; this module implements the small subset of JSON
Schema those files use (``type``, ``required``, ``properties``,
``items``, ``enum``, ``minimum``, ``additionalProperties``), so
validation needs no third-party ``jsonschema`` package.

Run as a module to validate one experiment result folder::

    python -m repro.telemetry.schema <experiment folder>
"""

from __future__ import annotations

import json
import os
from typing import Any, List

__all__ = [
    "SchemaError",
    "validate",
    "validate_experiment",
    "validate_history",
    "validate_study",
    "schema_dir",
]

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """An instance does not conform to its schema."""


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def validate(instance: Any, schema: dict, path: str = "$") -> None:
    """Validate ``instance`` against the supported JSON Schema subset."""
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, name) for name in names):
            raise SchemaError(
                f"{path}: expected {' or '.join(names)}, "
                f"got {type(instance).__name__}"
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            f"{path}: {instance!r} is not one of {schema['enum']!r}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise SchemaError(
                f"{path}: {instance!r} is below minimum {schema['minimum']!r}"
            )
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                raise SchemaError(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, value in instance.items():
            if name in properties:
                validate(value, properties[name], f"{path}.{name}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{path}: unexpected key {name!r}")
            elif isinstance(schema.get("additionalProperties"), dict):
                validate(
                    value, schema["additionalProperties"], f"{path}.{name}"
                )
    if isinstance(instance, list) and isinstance(schema.get("items"), dict):
        for position, value in enumerate(instance):
            validate(value, schema["items"], f"{path}[{position}]")


def schema_dir() -> str:
    """Location of the checked-in schema files (``docs/schemas/``)."""
    return os.path.normpath(
        os.path.join(
            os.path.dirname(__file__), "..", "..", "..", "docs", "schemas"
        )
    )


def _load_schema(name: str) -> dict:
    with open(
        os.path.join(schema_dir(), name), "r", encoding="utf-8"
    ) as handle:
        return json.load(handle)


def validate_experiment(experiment_path: str) -> List[str]:
    """Validate every telemetry artifact in one result folder.

    Returns the list of validated files; raises :class:`SchemaError`
    (with the file and JSON path) on the first violation.
    """
    validated: List[str] = []
    trace_schema = _load_schema("trace.schema.json")
    telemetry_schema = _load_schema("telemetry.schema.json")
    run_schema = _load_schema("run-telemetry.schema.json")
    health_schema = _load_schema("health.schema.json")
    run_health_schema = _load_schema("run-health.schema.json")
    dispatch_schema = _load_schema("dispatch.schema.json")
    cache_schema = _load_schema("cache.schema.json")

    # The deterministic trace is strict: every line must parse.
    trace_path = os.path.join(experiment_path, "trace.jsonl")
    if os.path.isfile(trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise SchemaError(
                        f"{trace_path}:{number}: not valid JSON: {exc}"
                    ) from exc
                try:
                    validate(record, trace_schema)
                except SchemaError as exc:
                    raise SchemaError(f"{trace_path}:{number}: {exc}") from exc
        validated.append(trace_path)

    # Evidence sidecars tolerate a torn tail (a crashed writer's last
    # line is evidence, not a violation); complete records must conform.
    from repro.telemetry.jsonl import iter_jsonl, read_jsonl

    for sidecar_name, schema in (
        ("dispatch.jsonl", dispatch_schema),
        ("cache.jsonl", cache_schema),
    ):
        sidecar_path = os.path.join(experiment_path, sidecar_name)
        if not os.path.isfile(sidecar_path):
            continue
        for number, record in enumerate(read_jsonl(sidecar_path), start=1):
            try:
                validate(record, schema)
            except SchemaError as exc:
                raise SchemaError(f"{sidecar_path}:{number}: {exc}") from exc
        validated.append(sidecar_path)

    telemetry_path = os.path.join(experiment_path, "telemetry.json")
    if os.path.isfile(telemetry_path):
        with open(telemetry_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate(payload, telemetry_schema)
        except SchemaError as exc:
            raise SchemaError(f"{telemetry_path}: {exc}") from exc
        validated.append(telemetry_path)

    health_path = os.path.join(experiment_path, "health.json")
    if os.path.isfile(health_path):
        with open(health_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate(payload, health_schema)
        except SchemaError as exc:
            raise SchemaError(f"{health_path}: {exc}") from exc
        validated.append(health_path)

    # Each run's evidence is embedded in its journal record; a torn
    # final record is the crash the journal tolerates, not a violation.
    journal_path = os.path.join(experiment_path, "journal.jsonl")
    if os.path.isfile(journal_path):
        embedded = False
        for number, record in enumerate(iter_jsonl(journal_path), start=1):
            if record.get("event") != "run":
                continue
            for field, schema in (
                ("telemetry", run_schema), ("health", run_health_schema),
            ):
                if field not in record:
                    continue
                try:
                    validate(record[field], schema, f"$.{field}")
                except SchemaError as exc:
                    raise SchemaError(f"{journal_path}:{number}: {exc}") \
                        from exc
                embedded = True
        if embedded:
            validated.append(journal_path)

    # Comparative-analysis reports saved back into the tree (`pos diff
    # --save`, `pos doctor --save`) are part of the published interface
    # too.
    for name, schema_name in (
        ("diff.json", "diff.schema.json"),
        ("doctor.json", "doctor.schema.json"),
    ):
        report_path = os.path.join(experiment_path, name)
        if not os.path.isfile(report_path):
            continue
        with open(report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate(payload, _load_schema(schema_name))
        except SchemaError as exc:
            raise SchemaError(f"{report_path}: {exc}") from exc
        validated.append(report_path)
    return validated


def validate_history(history_dir: str) -> List[str]:
    """Validate a perf-history ledger (``history.jsonl``) record by record.

    The ledger is append-only with one flushed write per record, so —
    like the evidence sidecars — a torn final line is tolerated; every
    complete record must conform.
    """
    from repro.telemetry.jsonl import read_jsonl

    history_path = os.path.join(history_dir, "history.jsonl")
    if not os.path.isfile(history_path):
        raise SchemaError(f"no history.jsonl in {history_dir}")
    schema = _load_schema("perf-history.schema.json")
    for number, record in enumerate(read_jsonl(history_path), start=1):
        try:
            validate(record, schema)
        except SchemaError as exc:
            raise SchemaError(f"{history_path}:{number}: {exc}") from exc
    return [history_path]


def validate_study(study_dir: str) -> List[str]:
    """Validate a study tree's own artifacts (aggregate + journal).

    The per-experiment artifacts below the replications are covered by
    :func:`validate_experiment`; this checks the study layer's two
    published files: ``study.json`` against its schema, and every
    complete ``study.jsonl`` record (the journal is append-only with
    one flushed write per record, so — like the evidence sidecars — a
    torn final line is tolerated).
    """
    from repro.telemetry.jsonl import read_jsonl

    validated: List[str] = []
    aggregate_path = os.path.join(study_dir, "study.json")
    if not os.path.isfile(aggregate_path):
        raise SchemaError(f"no study.json in {study_dir}")
    with open(aggregate_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        validate(payload, _load_schema("study.schema.json"))
    except SchemaError as exc:
        raise SchemaError(f"{aggregate_path}: {exc}") from exc
    validated.append(aggregate_path)

    journal_path = os.path.join(study_dir, "study.jsonl")
    if os.path.isfile(journal_path):
        schema = _load_schema("study-journal.schema.json")
        for number, record in enumerate(read_jsonl(journal_path), start=1):
            try:
                validate(record, schema)
            except SchemaError as exc:
                raise SchemaError(f"{journal_path}:{number}: {exc}") from exc
        validated.append(journal_path)
    return validated


def _main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.telemetry.schema <experiment folder>")
        return 2
    try:
        validated = validate_experiment(argv[0])
    except SchemaError as exc:
        print(f"schema violation: {exc}")
        return 1
    if not validated:
        print(f"no telemetry artifacts found in {argv[0]}")
        return 1
    for path in validated:
        print(f"valid: {path}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main(sys.argv[1:]))
