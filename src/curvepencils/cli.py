"""Command line reports over arrangement and pencil files.

Every subcommand reads JSON documents, runs one computation, and renders
either an aligned text report or (with ``--json``) a deterministic JSON
document.  Errors leave a single machine-parsable line on stderr:

    error: <code>: <text>

with code ``parse`` (exit 2), ``invariant`` (exit 3), ``computation``
(exit 4), or ``conditional`` (exit 5, a conditional result under
``--strict``).  A reader that closes stdout early, as ``| head`` does,
ends the run quietly with exit 141 (128 plus SIGPIPE); a failing run keeps
its own status and error line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .arrangement import (
    Arrangement,
    ArrangementError,
    ExponentSubtorus,
    pullback_subtorus,
)
from .catalog import CatalogError, build_catalog
from .exactalg import primitive_vector
from .pencil import (
    BlowupCluster,
    Pencil,
    PencilClassification,
    PencilError,
    ProbeDegeneracyError,
    classify,
    detect_special_fibers,
    fy_identities,
    self_intersection,
)
from .polyform import PolyParseError
from .resonance import (
    IsotropicSubspace,
    ResidueVector,
    ResonanceError,
    pencil_from_subspace,
    ray_to_map,
)
from .torsion import TorsionError, lifted_characters

__all__ = ["main"]

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_COMPUTATION = 4
EXIT_CONDITIONAL = 5
EXIT_BROKEN_PIPE = 141

_COMPUTATION_ERRORS = (
    ArrangementError,
    CatalogError,
    PencilError,
    ProbeDegeneracyError,
    ResonanceError,
    TorsionError,
)


class CliFailure(Exception):
    """Terminates the command; may carry a report to show before the error."""

    def __init__(
        self,
        status: int,
        code: str,
        text: str,
        lines: Optional[list[str]] = None,
        doc: Optional[dict] = None,
    ) -> None:
        super().__init__(text)
        self.status = status
        self.line = f"error: {code}: {text}"
        self.lines = lines
        self.doc = doc


# ---------------------------------------------------------------------------
# file loading


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliFailure(EXIT_PARSE, "parse", f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliFailure(EXIT_PARSE, "parse", f"{path}: {exc}") from None


def _load_arrangement(path: str) -> Arrangement:
    try:
        return Arrangement.from_json(_load_doc(path))
    except (ArrangementError, PolyParseError) as exc:
        raise CliFailure(EXIT_PARSE, "parse", f"{path}: {exc}") from None


def _load_pencil(path: str, arr: Arrangement) -> Pencil:
    try:
        return Pencil.from_json(_load_doc(path), arr)
    except (PencilError, PolyParseError) as exc:
        raise CliFailure(EXIT_PARSE, "parse", f"{path}: {exc}") from None


def _ensure_infinity(arr: Arrangement) -> tuple[Arrangement, list[str]]:
    """Designate the first line when the file names no infinity line."""
    if arr.infinity_index is not None or not arr.line_indices():
        return arr, []
    j = arr.line_indices()[0]
    note = f"no designated infinity line; using {arr.labels[j]}"
    return arr.with_infinity(j), [note]


# ---------------------------------------------------------------------------
# shared report pieces


def _character_tuple(values: Sequence[str]) -> str:
    return "(" + ",".join(values) + ")"


def _classified(arr: Arrangement, pencil: Pencil) -> PencilClassification:
    return detect_special_fibers(classify(arr, pencil))


def _tf_report(arr: Arrangement, pencil: Pencil, strict: bool) -> tuple[list[str], dict]:
    """The T(f) section of `tf` and `ray --tf`: the group, the lifted
    characters, the subtorus and the warnings, on the arrangement with an
    infinity line (`_ensure_infinity`); a conditional result under
    ``--strict`` exits."""
    arr, notes = _ensure_infinity(arr)
    cl = _classified(arr, pencil)
    tf, lifts = lifted_characters(cl)
    head = f"T(f) = {tf.group}"
    if lifts:
        head += "; " + "; ".join("rho = " + _character_tuple(rho.value_strings()) for rho in lifts)
    else:
        head += "; no nontrivial characters"
    subtorus = pullback_subtorus(cl)
    lines = [head, "subtorus = (" + ", ".join(subtorus.monomial_strings()) + ")"]
    if cl.conditional:
        lines.append("conditional: special fiber parameters may be irrational")
    doc = {
        "group": str(tf.group),
        "invariant_factors": list(tf.group.invariant_factors),
        "characters": [
            {
                "rho": list(rho.value_strings()),
                "exponents": [str(e) for e in rho.exponents],
            }
            for rho in lifts
        ],
        "subtorus": list(subtorus.monomial_strings()),
        "conditional": cl.conditional,
        "warnings": notes + list(cl.warnings),
    }
    if strict and cl.conditional:
        raise CliFailure(EXIT_CONDITIONAL, "conditional", "T(f) result is conditional")
    return lines + _warn_lines(doc["warnings"]), doc


def _warn_lines(notes: Sequence[str]) -> list[str]:
    return [f"warning: {n}" for n in notes]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    reducible = arr.irreducibility_warnings()
    if reducible:
        raise ArrangementError("; ".join(reducible))
    lines = [
        f"{c.label}: degree {c.degree}, {c.form}" for c in arr.components
    ]
    if arr.infinity_index is not None:
        lines.append(f"infinity: {arr.labels[arr.infinity_index]}")
    lines.append(f"{arr.size} components, total degree {sum(arr.degrees)}")
    lines.append("ok")
    doc = arr.to_json()
    doc["size"] = arr.size
    doc["total_degree"] = sum(arr.degrees)
    doc["ok"] = True
    return lines, doc


def _cmd_catalog(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    catalog = build_catalog(
        arr, max_multiplicity=args.max_mult, max_blocks=args.max_blocks
    )
    conditional = any(
        isinstance(rec.source, PencilClassification) and rec.source.conditional
        for rec in catalog.records
    )
    if args.strict and conditional:
        raise CliFailure(
            EXIT_CONDITIONAL, "conditional", "catalog carries conditional records"
        )
    lines = [rec.describe() for rec in catalog.records]
    if not lines:
        lines = ["no positive-dimensional components"]
    lines += _warn_lines(catalog.warnings)
    return lines, catalog.to_json()


def _cmd_classify(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    pencil = _load_pencil(args.pencil, arr)
    cl = _classified(arr, pencil)
    if args.strict and cl.conditional:
        raise CliFailure(
            EXIT_CONDITIONAL, "conditional", "special fiber list is conditional"
        )
    width = max(len(label) for label in arr.labels)
    lines = []
    for label, placement in zip(arr.labels, cl.placements):
        if placement.kind == "horizontal":
            lines.append(f"{label:<{width}}  horizontal")
        else:
            lines.append(
                f"{label:<{width}}  {placement.kind:<6}"
                f"  fiber {placement.point}, multiplicity {placement.multiplicity}"
            )
    lines.append(
        "base points: "
        + "; ".join(f"{b} -> {cl.divisor_string(b)}" for b in cl.base_points)
    )
    if cl.special_points:
        lines.append(
            "special points: "
            + "; ".join(
                f"{sp.point} -> {cl.divisor_string(sp.point)},"
                f" m' = {sp.m_prime}, m'' = {sp.m_dprime}"
                for sp in cl.special_points
            )
        )
    else:
        lines.append("special points: none")
    lines.append(f"minimal: {'yes' if cl.minimal else 'no'}")
    lines.append(f"special: {'yes' if cl.special else 'no'}")
    lines += _warn_lines(cl.warnings)
    doc = {
        "placements": [
            {
                "label": label,
                "kind": p.kind,
                "point": None if p.point is None else str(p.point),
                "multiplicity": p.multiplicity,
            }
            for label, p in zip(arr.labels, cl.placements)
        ],
        "base_points": [
            {"point": str(b), "divisor": cl.divisor_string(b)} for b in cl.base_points
        ],
        "special_points": [
            {
                "point": str(sp.point),
                "members": cl.divisor_string(sp.point),
                "m_prime": sp.m_prime,
                "m_dprime": sp.m_dprime,
            }
            for sp in cl.special_points
        ],
        "minimal": cl.minimal,
        "special": cl.special,
        "conditional": cl.conditional,
        "warnings": list(cl.warnings),
    }
    return lines, doc


def _cmd_tf(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    return _tf_report(arr, _load_pencil(args.pencil, arr), args.strict)


def _cmd_check(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    pencil = _load_pencil(args.pencil, arr)
    cl = _classified(arr, pencil)
    report = fy_identities(cl)
    clusters = None if args.clusters is None else [BlowupCluster(m) for m in args.clusters]
    si = self_intersection(cl, clusters)
    checks = [
        ("(i) base multiplicity constant per point", report.constant_multiplicity),
        (
            f"(ii) sum of local intersection numbers = {report.total},"
            f" expected {report.total_expected} = D^2",
            report.total == report.total_expected,
        ),
        (
            f"(iii) weighted member degrees = {report.member_degree_sum},"
            f" expected {report.member_degree_expected} = k*D",
            report.member_degree_sum == report.member_degree_expected,
        ),
    ]
    lines = [f"degree D = {report.degree}, k = {report.k}"]
    lines += [f"{text}: {'OK' if good else 'FAIL'}" for text, good in checks]
    verdict = "<= 0: OK" if si.non_positive else "> 0: FAIL"
    lines.append(f"self-intersection = {si.value} ({verdict})")
    doc = {
        "degree": report.degree,
        "k": report.k,
        "constant_multiplicity": report.constant_multiplicity,
        "total": report.total,
        "total_expected": report.total_expected,
        "member_degree_sum": report.member_degree_sum,
        "member_degree_expected": report.member_degree_expected,
        "identities_pass": report.passed,
        "self_intersection": si.value,
        "non_positive": si.non_positive,
        "clusters": [
            {
                "multiplicity": c.multiplicity,
                "point": None if c.point is None else str(c.point),
            }
            for c in si.clusters
        ],
    }
    if not (report.passed and si.non_positive):
        raise CliFailure(
            EXIT_INVARIANT,
            "invariant",
            "; ".join(
                [text for text, good in checks if not good]
                + ([] if si.non_positive else [f"self-intersection = {si.value} > 0"])
            ),
            lines=lines,
            doc=doc,
        )
    return lines, doc


def _cmd_reconstruct(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    doc = _load_doc(args.subspace)
    try:
        parsed = [[Fraction(str(e)) for e in row] for row in doc["basis"]]
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        raise CliFailure(
            EXIT_PARSE, "parse", f"{args.subspace}: needs a 'basis' list of rational rows"
        ) from None
    # a basis vector stands for its span, so a primitive integer multiple replaces it
    rows = [ResidueVector(primitive_vector(r) if any(r) else (0,) * len(r)) for r in parsed]
    for row in rows:
        if len(row.entries) != arr.size:
            raise CliFailure(
                EXIT_PARSE,
                "parse",
                f"{args.subspace}: basis rows need {arr.size} entries",
            )
        if row.degree_pairing(arr.degrees) != 0:
            raise CliFailure(
                EXIT_INVARIANT,
                "invariant",
                "basis row does not pair to zero with the component degrees",
            )
    pencil = pencil_from_subspace(arr, IsotropicSubspace(tuple(rows)))
    lines = [f"P = {pencil.P}", f"Q = {pencil.Q}"]
    return lines, pencil.to_json()


def _cmd_ray(args: argparse.Namespace) -> tuple[list[str], dict]:
    arr = _load_arrangement(args.arrangement)
    try:
        direction = [Fraction(e) for e in args.exponents]
    except (ValueError, ZeroDivisionError):
        raise CliFailure(
            EXIT_PARSE, "parse", "--exponents needs comma-separated rationals"
        ) from None
    if len(direction) != arr.size:
        raise CliFailure(
            EXIT_PARSE,
            "parse",
            f"--exponents needs {arr.size} entries, got {len(direction)}",
        )
    if sum(d * a for d, a in zip(arr.degrees, direction)):
        raise CliFailure(
            EXIT_INVARIANT,
            "invariant",
            "exponents do not pair to zero with the component degrees",
        )
    ray = ray_to_map(arr, direction)
    subtorus = ExponentSubtorus(tuple((m,) for m in ray.exponents))
    lines = [
        f"map = {ray.description}",
        "subtorus = (" + ", ".join(subtorus.monomial_strings()) + ")",
        f"note: {ray.note}",
    ]
    doc = {
        "exponents": list(ray.exponents),
        "map": ray.description,
        "subtorus": list(subtorus.monomial_strings()),
        "note": ray.note,
    }
    if args.tf:
        tf_lines, doc["tf"] = _tf_report(arr, Pencil(ray.numerator, ray.denominator), args.strict)
        lines += tf_lines
    return lines, doc


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _multiplicity_list(text: str) -> list[int]:
    values = _int_list(text)
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"cluster multiplicities must be >= 1: {text!r}")
    return values


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="curvepencils",
        description="Exact invariants of pencils of plane curves on arrangement complements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("arrangement", help="arrangement JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "parse an arrangement file and report invariants")

    p = add("catalog", _cmd_catalog, "list positive-dimensional character variety components")
    p.add_argument("--max-mult", type=int, default=2, help="fiber multiplicity cap")
    p.add_argument("--max-blocks", type=int, default=3, help="partition block cap")
    p.add_argument("--strict", action="store_true", help="fail on conditional records")

    p = add("classify", _cmd_classify, "place components relative to a pencil")
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--strict", action="store_true", help="fail on conditional results")

    p = add("tf", _cmd_tf, "torsion quotient T(f) and its lifted characters")
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--strict", action="store_true", help="fail on conditional results")

    p = add("check", _cmd_check, "base-locus identities and self-intersection")
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument(
        "--clusters",
        type=_multiplicity_list,
        default=None,
        help="comma-separated blow-up cluster multiplicities",
    )

    p = add("reconstruct", _cmd_reconstruct, "pencil from an isotropic subspace")
    p.add_argument("--subspace", required=True, help="JSON file with a 'basis' matrix")

    p = add("ray", _cmd_ray, "map and subtorus defined by one exponent ray")
    p.add_argument(
        "--exponents",
        type=_str_list,
        required=True,
        help="comma-separated exponents, one per component",
    )
    p.add_argument("--tf", action="store_true", help="also compute T(f) of the map")
    p.add_argument("--strict", action="store_true", help="fail on conditional results")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            lines, doc = args.handler(args)
        except CliFailure:
            raise
        except _COMPUTATION_ERRORS as exc:
            raise CliFailure(EXIT_COMPUTATION, "computation", str(exc)) from None
    except CliFailure as failure:
        if args.json and failure.doc is not None:
            _write_report(json.dumps(failure.doc, indent=2, sort_keys=True))
        elif failure.lines is not None:
            _write_report("\n".join(failure.lines))
        print(failure.line, file=sys.stderr)
        return failure.status
    report = json.dumps(doc, indent=2, sort_keys=True) if args.json else "\n".join(lines)
    return 0 if _write_report(report) else EXIT_BROKEN_PIPE


def _write_report(text: str) -> bool:
    """Print the report to stdout; False when its reader has closed the pipe."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
