"""Circuits: ordered gate lists with per-op noise tags, plus the text format.

Text format (one op per line)::

    qubits=<n>
    # full-line comment; '# meta: key=value' lines carry generator metadata
    KIND q0[,q1[,q2]][;theta=<radians>]

Angles are radians written/read with full float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CircuitParseError, InvalidArgument
from .gates import GATE_KINDS, GateOp, integer
from .noise import NoiseSpec


@dataclass(frozen=True)
class Circuit:
    n: int
    ops: tuple[GateOp, ...]
    noise_tags: tuple[NoiseSpec | None, ...] = ()
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "qubit count n"))
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n < 1:
            raise InvalidArgument(f"need at least one qubit, got n={self.n}")
        for op in self.ops:
            if not isinstance(op, GateOp):
                raise InvalidArgument(f"an op must be a GateOp, got {op!r}")
            if max(op.qubits, default=0) >= self.n:
                raise InvalidArgument(f"{op} out of range for n={self.n}")
        tags = tuple(self.noise_tags)
        if not tags:
            tags = (None,) * len(self.ops)
        if len(tags) != len(self.ops):
            raise InvalidArgument("need one noise tag per op")
        if not set(map(type, tags)) <= {type(None), NoiseSpec}:
            bad = next(t for t in tags if t is not None and type(t) is not NoiseSpec)
            raise InvalidArgument(f"a noise tag must be None or a NoiseSpec, got {bad!r}")
        object.__setattr__(self, "noise_tags", tags)

    def __len__(self) -> int:
        return len(self.ops)

    def with_noise(self, spec: NoiseSpec | None) -> "Circuit":
        """Copy of the circuit with every op tagged with the same noise spec."""
        return Circuit(self.n, self.ops, (spec,) * len(self.ops), dict(self.meta))

    def subcircuit(self, start: int, stop: int) -> "Circuit":
        return Circuit(
            self.n, self.ops[start:stop], self.noise_tags[start:stop], dict(self.meta)
        )


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits={c.n}"]
    for key in sorted(c.meta):
        lines.append(f"# meta: {key}={c.meta[key]}")
    for op in c.ops:
        qs = ",".join(str(q) for q in op.qubits)
        if op.angle is not None:
            lines.append(f"{op.kind} {qs};theta={op.angle!r}")
        else:
            lines.append(f"{op.kind} {qs}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    n = None
    ops: list[GateOp] = []
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("meta:"):
                kv = body[len("meta:") :].strip()
                if "=" in kv:
                    key, _, value = kv.partition("=")
                    meta[key.strip()] = value.strip()
            continue
        if "#" in line:
            line = line[: line.index("#")].strip()
        if not line:
            continue
        if line.lower().startswith("qubits="):
            if n is not None:
                raise CircuitParseError(f"line {lineno}: duplicate qubits= header")
            try:
                n = int(line.split("=", 1)[1])
            except ValueError as exc:
                raise CircuitParseError(f"line {lineno}: bad qubit count") from exc
            continue
        if n is None:
            raise CircuitParseError(
                f"line {lineno}: op before the qubits=<n> header"
            )
        ops.append(_parse_op(line, lineno))
    if n is None:
        raise CircuitParseError("missing qubits=<n> header")
    try:
        return Circuit(n, tuple(ops), meta=meta)
    except InvalidArgument as exc:
        raise CircuitParseError(str(exc)) from exc


def _parse_op(line: str, lineno: int) -> GateOp:
    theta = None
    body = line
    if ";" in line:
        body, _, tail = line.partition(";")
        tail = tail.strip()
        if not tail.lower().startswith("theta="):
            raise CircuitParseError(f"line {lineno}: expected ';theta=<radians>'")
        try:
            theta = float(tail.split("=", 1)[1])
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: bad angle") from exc
    parts = body.split(None, 1)
    if len(parts) != 2:
        raise CircuitParseError(f"line {lineno}: expected 'KIND q0[,q1[,q2]]'")
    kind = parts[0].upper()
    if kind not in GATE_KINDS:
        raise CircuitParseError(f"line {lineno}: unknown gate kind {parts[0]!r}")
    try:
        qubits = tuple(int(tok) for tok in parts[1].replace(" ", "").split(","))
    except ValueError as exc:
        raise CircuitParseError(f"line {lineno}: bad qubit list") from exc
    try:
        return GateOp(kind, qubits, theta)
    except Exception as exc:
        raise CircuitParseError(f"line {lineno}: {exc}") from exc


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CircuitParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_circuit(text)


def save_circuit(c: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_circuit(c))
