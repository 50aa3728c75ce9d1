"""Command-line front end and the bit-exact model file format.

Model files are UTF-8 JSON: a "spaces" object mapping the fixed
coordinate names (xa, xb, ya, yb, and optionally lam) to atom label
lists, and a "weights" array of {"atom": {coord: label, ...}, "p": "n/d"}
entries.  Omitted atoms weigh zero, weights must sum to exactly one, and
a file without "lam" is an empirical model.  A "p" may have at most
4300 decimal digits in its numerator and in its denominator
(``hvkit.rationals.MAX_RATIONAL_DIGITS``); longer values are rejected as
bad input, and a result past that cap is refused with exit 2 rather than
printed or written.  Serialization is deterministic (canonical atom
order), so parse/serialize round-trips are bit-exact.

Each command returns (exit code, JSON payload, text lines), and ``main``
alone writes them: the payload under ``--json``, otherwise the lines.

Exit codes: 0 success / all selected properties hold / feasible;
1 a property fails, a precondition fails, or the model is infeasible;
2 bad input (usage error, parse error, domain error, resource cap), a
standard output closed before the result was written, or a failed
internal cross-check (``InternalCheckError``, a bug in hvkit, not in the
input), always as one "error: ..." line on stderr; ``-h`` still prints
help and exits 0.
Under ``--json`` a failed ``determinize --method local`` precondition is
{"command": "determinize", "precondition_failed": message, "report":
the failing property's report as ``check`` gives it, or null}.
``generate`` refuses a non-finite angle, and more than
``hvkit.quantumgen.MAX_SINGLET_ATOMS`` = 40,000 atoms (|angles_a| x
|angles_b| x 4), before it writes ``--out``.  ``determinize --method
local`` refuses an output of more than
``hvkit.determinize.MAX_DETERMINIZED_ATOMS`` = 100,000 atoms, before
any fiber product is built and before it writes ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import getitem

from .determinize import determinize_empirical, determinize_local
from .errors import HVKitError, ModelFormatError, PreconditionError
from .measure import FiniteMeasure, FiniteSpace, ProductLayout, marginal, measures_equal
from .models import EmpiricalModel, HV_COORDS, HVModel, LAM, PSI_COORDS, XA, YA
from .properties import HVProperty, PropertyReport, check_all, check_property
from .quantumgen import singlet_model
from .realizability import chsh_value, local_hvm_exists
from .rationals import rational_from_string, rational_to_string

Model = EmpiricalModel | HVModel


# ---------------------------------------------------------------------------
# file format


def parse_model_text(text: str) -> Model:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(document, dict):
        raise ModelFormatError("top level must be an object")
    spaces = document.get("spaces")
    entries = document.get("weights")
    if not isinstance(spaces, dict) or not isinstance(entries, list):
        raise ModelFormatError('expected "spaces" object and "weights" array')

    has_lam = "lam" in spaces
    coords = HV_COORDS if has_lam else PSI_COORDS
    if set(spaces) != set(coords):
        raise ModelFormatError(f'"spaces" must have exactly the keys {list(coords)}')

    factors = []
    for name in coords:
        atoms = spaces[name]
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise ModelFormatError(f'"spaces.{name}" must be a list of strings')
        try:
            factors.append(FiniteSpace(name, tuple(atoms)))
        except HVKitError as exc:
            raise ModelFormatError(f"bad atom list for {name!r}: {exc}") from None
    layout = ProductLayout(tuple(factors))

    weights: dict[tuple[str, ...], Fraction] = {}
    for position, entry in enumerate(entries):
        where = f"weights[{position}]"
        if not isinstance(entry, dict) or set(entry) != {"atom", "p"}:
            raise ModelFormatError(f'{where}: expected an object with "atom" and "p"')
        atom_map = entry["atom"]
        if not isinstance(atom_map, dict) or set(atom_map) != set(coords):
            raise ModelFormatError(f"{where}: atom must assign exactly {list(coords)}")
        if not all(isinstance(label, str) for label in atom_map.values()):
            raise ModelFormatError(f"{where}: atom labels must be strings")
        atom = tuple(atom_map[name] for name in coords)
        try:
            layout.validate_atom(atom)
        except HVKitError as exc:
            raise ModelFormatError(f"{where}: {exc}") from None
        if atom in weights:
            raise ModelFormatError(f"{where}: duplicate atom {atom_map}")
        if not isinstance(entry["p"], str):
            raise ModelFormatError(f'{where}: "p" must be a string rational')
        try:
            weights[atom] = rational_from_string(entry["p"])
        except ValueError as exc:
            raise ModelFormatError(f"{where}: {exc}") from None

    try:
        measure = FiniteMeasure(layout, weights)
        return HVModel(measure) if has_lam else EmpiricalModel(measure)
    except HVKitError as exc:
        raise ModelFormatError(str(exc)) from None


def serialize_model(model: Model) -> str:
    """The model file's text, byte for byte ``json.dumps(document, indent=2) + "\\n"``.

    Each label is encoded once per coordinate by the function ``json.dumps``
    uses under ``ensure_ascii``, and each weight's entry is joined from those
    fragments.  Every weight goes through ``rational_to_string``, so a value
    over the digit cap raises before any text is returned.
    """
    measure = model.measure
    factors = measure.layout.factors
    spaces = ",\n".join(
        f"    {_json_str(f.name)}: [\n      " + ",\n      ".join(map(_json_str, f.atoms)) + "\n    ]"
        for f in factors
    )
    fragments = [{label: f"\n        {_json_str(f.name)}: {_json_str(label)}" for label in f.atoms} for f in factors]
    entries = ",\n".join(
        '    {\n      "atom": {' + ",".join(map(getitem, fragments, atom))
        + f'\n      }},\n      "p": "{rational_to_string(w)}"\n    }}'
        for atom, w in measure.weights.items()
    )
    return '{\n  "spaces": {\n' + spaces + '\n  },\n  "weights": [\n' + entries + "\n  ]\n}\n"


def load_model_file(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    return parse_model_text(text)


def save_model_file(model: Model, path: str) -> None:
    # serialize first, so a value over the digit cap leaves no partial file
    text = serialize_model(model)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ModelFormatError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# report rendering


def _assignment(pairs) -> str:
    return ", ".join(f"{k}={v}" for k, v in pairs)


def _report_json(report: PropertyReport) -> dict:
    w = report.witness
    witness = None if w is None else {
        "atom": w.as_dict(),
        "lhs": rational_to_string(w.lhs),
        "rhs": rational_to_string(w.rhs),
    }
    return {"property": report.property.value, "holds": report.holds, "witness": witness}


def _report_line(report: PropertyReport) -> str:
    if report.holds:
        return f"{report.property.value}: HOLDS"
    w = report.witness
    return (
        f"{report.property.value}: FAILS at ({_assignment(w.assignment)}): "
        f"lhs={rational_to_string(w.lhs)} rhs={rational_to_string(w.rhs)}"
    )


# ---------------------------------------------------------------------------
# commands

Result = tuple[int, dict, list[str]]  # exit code, JSON payload, text lines


def _require_hv(model: Model) -> HVModel:
    if not isinstance(model, HVModel):
        raise ModelFormatError("this command needs a hidden-variable model (a 'lam' space)")
    return model


def _require_empirical(model: Model) -> EmpiricalModel:
    if not isinstance(model, EmpiricalModel):
        raise ModelFormatError("this command needs an empirical model (no 'lam' space)")
    return model


def cmd_check(args) -> Result:
    model = _require_hv(load_model_file(args.file))
    if args.property == "all":
        reports = check_all(model)
    else:
        reports = (check_property(model, HVProperty(args.property)),)
    payload = {"command": "check", "reports": [_report_json(r) for r in reports]}
    return (0 if all(r.holds for r in reports) else 1), payload, [_report_line(r) for r in reports]


def cmd_determinize(args) -> Result:
    model = load_model_file(args.file)
    if args.method == "empirical":
        result = determinize_empirical(_require_empirical(model))
    else:
        try:
            result = determinize_local(_require_hv(model))
        except PreconditionError as exc:
            report = exc.report
            payload = {
                "command": "determinize",
                "precondition_failed": str(exc),
                "report": None if report is None else _report_json(report),
            }
            lines = [f"precondition failed: {exc}"]
            if report is not None:
                lines.append(_report_line(report))
            return 1, payload, lines
    save_model_file(result, args.out)

    summary = {r.property.value: r.holds for r in check_all(result)}
    lines = [
        f"wrote {args.out}",
        "verification: " + ", ".join(f"{k}={'ok' if v else 'no'}" for k, v in summary.items()),
    ]
    return 0, {"command": "determinize", "out": args.out, "verification": summary}, lines


def cmd_realizability(args) -> Result:
    model = _require_empirical(load_model_file(args.file))
    feasible, certificate = local_hvm_exists(model)
    if feasible:
        weights = [(s, rational_to_string(w)) for s, w in certificate.weights.items()]
        payload = {
            "command": "realizability",
            "feasible": True,
            "weights": [
                {"strategy": {"a": list(s.outcomes_a), "b": list(s.outcomes_b)}, "w": w}
                for s, w in weights
            ],
        }
        settings = (model.space("ya").atoms, model.space("yb").atoms)
        return 0, payload, ["FEASIBLE"] + [f"  {w}  {s.describe(*settings)}" for s, w in weights]
    functional = [(tuple(zip(PSI_COORDS, atom)), c) for atom, c in certificate.bell_functional.items()]
    bound = rational_to_string(certificate.classical_bound)
    achieved = rational_to_string(certificate.achieved_value)
    payload = {
        "command": "realizability",
        "feasible": False,
        "bell_functional": [
            {"atom": dict(atom), "coefficient": rational_to_string(c)} for atom, c in functional
        ],
        "classical_bound": bound,
        "achieved_value": achieved,
    }
    lines = ["INFEASIBLE", f"  classical bound: {bound}", f"  achieved value:  {achieved}"]
    lines += [f"  coefficient ({_assignment(atom)}): {rational_to_string(c)}" for atom, c in functional if c != 0]
    return 1, payload, lines


def cmd_chsh(args) -> Result:
    value = chsh_value(_require_empirical(load_model_file(args.file)))
    text = rational_to_string(value)
    return 0, {"command": "chsh", "value": text, "float": float(value)}, [f"chsh = {text} ({float(value):+.9f})"]


def cmd_generate(args) -> Result:
    try:
        angles_a = [float(x) for x in args.angles_a.split(",") if x.strip()]
        angles_b = [float(x) for x in args.angles_b.split(",") if x.strip()]
    except ValueError:
        raise ModelFormatError("angles must be comma-separated numbers") from None
    model = singlet_model(angles_a, angles_b, max_denominator=args.max_denominator)
    save_model_file(model, args.out)
    lines = [f"wrote {args.out}"]
    if len(angles_a) == 2 and len(angles_b) == 2:
        value = chsh_value(model)
        lines.append(f"chsh = {rational_to_string(value)} ({float(value):+.9f})")
    return 0, {"command": "generate", "out": args.out, "log": lines}, lines


def cmd_verify(args) -> Result:
    """Run every internal cross-check the model supports and report."""
    model = load_model_file(args.file)
    lines = []
    ok = True
    round_trip = parse_model_text(serialize_model(model))
    if round_trip.measure.weights != model.measure.weights:
        ok = False
    lines.append(f"cross-check serialization round-trip: {'consistent' if ok else 'INCONSISTENT'}")
    if isinstance(model, HVModel):
        # each checker internally compares its defining equation against
        # its fiber-product characterization and raises on disagreement
        for report in check_all(model):
            lines.append(f"cross-check {report.property.value}: consistent (holds={report.holds})")
        # lam's marginal taken through Alice's (xa, ya, lam) marginal and taken
        # directly; the chain runs on a copy with no memo and no root, so it
        # cannot hand back the direct side's memoized result
        m = model.measure
        copy = FiniteMeasure(m.layout, dict(m.weights))
        nested = measures_equal(marginal(marginal(copy, (XA, YA, LAM)), (LAM,)), marginal(m, (LAM,)))
        lines.append(f"cross-check nested marginals: {'consistent' if nested else 'INCONSISTENT'}")
        ok = ok and nested
    else:
        # the construction checks that its output realizes the model and is
        # strongly deterministic, and raises InternalCheckError if not
        determinize_empirical(model)
        lines.append("cross-check deterministic realization: consistent")
    return (0 if ok else 1), {"command": "verify", "ok": ok, "log": lines}, lines


# ---------------------------------------------------------------------------
# argument parsing


class UsageError(HVKitError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print usage and exit.

    An argument that starts with "-" and then a digit or a point is a
    value, never an option, so ``--angles-a -30,45`` reads the angle list
    as ``--angles-a=-30,45`` does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hvkit",
        description="Exact analysis of hidden-variable models on finite spaces.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="check hidden-variable properties")
    check.add_argument("file")
    check.add_argument(
        "--property",
        default="all",
        choices=["all"] + [p.value for p in HVProperty],
        help="which property to check (default: all six)",
    )
    check.set_defaults(handler=cmd_check)

    determinize = commands.add_parser("determinize", help="build a deterministic realization")
    determinize.add_argument("file")
    determinize.add_argument("--method", required=True, choices=["empirical", "local"])
    determinize.add_argument("--out", required=True)
    determinize.set_defaults(handler=cmd_determinize)

    realizability = commands.add_parser(
        "realizability", help="decide local realizability with a certificate"
    )
    realizability.add_argument("file")
    realizability.set_defaults(handler=cmd_realizability)

    chsh = commands.add_parser("chsh", help="evaluate the correlator combination")
    chsh.add_argument("file")
    chsh.set_defaults(handler=cmd_chsh)

    generate = commands.add_parser("generate", help="generate an empirical model")
    generate.add_argument("kind", choices=["singlet"])
    generate.add_argument("--angles-a", required=True, help="comma-separated degrees")
    generate.add_argument("--angles-b", required=True, help="comma-separated degrees")
    generate.add_argument("--max-denominator", type=int, default=10**6)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)

    verify = commands.add_parser("verify", help="run the internal cross-check suite")
    verify.add_argument("file")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that writes to stdout or stderr."""
    try:
        args = build_parser().parse_args(argv)
        code, payload, lines = args.handler(args)
    except HVKitError as exc:
        # one line, even when the message quotes an argument holding a newline
        message = str(exc).replace("\n", "\\n")
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # whatever is still buffered goes to the null device, so the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the result was written", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(main())
