"""Command line interface.

Every subcommand loads a workspace (a JSON file, or `fixture:NAME` for a
packaged example), re-checks the category and graded-extension identities,
and only then computes.  Output is `--output text` for reading or
`--output machine` for tooling; machine output is canonical JSON
(sorted keys, two-space indent) and is byte-stable across runs.

`main` may be called any number of times in one process: the parser is
built on the first call and reused by the later ones.

Exit codes, with the kind of error reported (`error (KIND): MESSAGE` on
stderr in text mode, {"error": {"kind", "message"}} on stdout in machine
mode):
  0  success, or `--help`
  1  `validation`: the engine's `CategoryAxiomError`, with its violations;
     `workspace`: a malformed workspace, an unknown name or a bad value;
     `computation`: any other engine error; or a malformed command line
  2  `truncation`: the truncation degree is too small for the request
  3  `certification`: a certificate could not be established
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Mapping, Optional, Sequence

from .category import validate_category
from .chern import K0Entry, certify_cocycle, chern_class, chern_form, invariance_certificate, k0_character
from .derham import get_complex
from .dg import render_form, validate_dg
from .errors import CategoryAxiomError, CertificationError, LincatError, TruncationError, WorkspaceError
from .exact_linalg import Vector, format_scalar
from .module_algebra import hs_trace
from .workspace import Workspace, fixture_names, load_fixture, load_workspace, serialize_workspace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRUNCATION = 2
EXIT_CERTIFICATION = 3


# ---------------------------------------------------------------------------
# plumbing


def _load(args) -> Workspace:
    ref: str = args.workspace
    if ref.startswith("fixture:"):
        return load_fixture(ref[len("fixture:"):])
    return load_workspace(ref)


def _checked(args) -> Workspace:
    """The workspace if its identities hold, else the `CategoryAxiomError` that
    the parser already raises for a universal workspace's broken category."""
    ws = _load(args)
    violations = validate_category(ws.category) + validate_dg(ws.dg)
    if violations:
        raise CategoryAxiomError(f"{len(violations)} identity check(s) fail", violations, ws.name)
    return ws


def _emit(args, payload: dict, text_lines: Sequence[str]) -> None:
    if args.output == "machine":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _violation_docs(violations) -> list[dict]:
    return [{"kind": v.kind, "where": v.where} for v in violations]


def _emit_error(args, kind: str, message: str, violations=None) -> None:
    if getattr(args, "output", "text") == "machine":
        error = {"kind": kind, "message": message}
        if violations is not None:
            error["violations"] = _violation_docs(violations)
        _emit(args, {"error": error}, ())
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")
        for v in violations or []:
            sys.stderr.write(f"  {v.kind}: {v.where}\n")


def _coords(v: Vector) -> list[str]:
    return [format_scalar(s) for s in v]


def _render_vector(v: Vector) -> str:
    return "(" + ", ".join(_coords(v)) + ")"


def _require_q(q: int) -> None:
    if q < 0:
        raise WorkspaceError("q must be nonnegative")


def _named(kind: str, table: Mapping, name: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "(none)"
        raise WorkspaceError(f"no {kind} named {name!r}; available: {known}")
    return table[name]


def _class_fields(ws: Workspace, degree: int, coords: Vector) -> dict:
    """The degree, class, zero and representative fields of a class report."""
    return {
        "degree": degree,
        "class": _coords(coords),
        "zero": all(s == 0 for s in coords),
        "representative": get_complex(ws.dg).render_class(degree, coords),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        name, violations = _checked(args).name, []
    except CategoryAxiomError as exc:
        name, violations = exc.workspace, exc.violations
    payload = {"workspace": name, "ok": not violations, "violations": _violation_docs(violations)}
    lines = [f"workspace {name}: checking category and graded identities"]
    if violations:
        lines += [f"  FAIL {v.kind}: {v.where}" for v in violations]
        lines.append(f"result: {len(violations)} violation(s)")
    else:
        lines.append("result: all identities hold")
    _emit(args, payload, lines)
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_cohomology(args) -> int:
    ws = _checked(args)
    rh = get_complex(ws.dg)
    n_max = ws.dg.truncation
    degrees = []
    lines = [f"workspace {ws.name}: quotient complex up to degree {n_max}"]
    for n in range(n_max + 1):
        reliable = rh.truncation_reliable(n)
        entry = {
            "degree": n,
            "space_dim": rh.dim(n),
            "betti": rh.betti(n),
            "reliable": reliable,
        }
        degrees.append(entry)
        note = "" if reliable else "  (top degree: not reliable under truncation)"
        lines.append(f"  degree {n}: dim = {entry['space_dim']}, betti = {entry['betti']}{note}")
        if args.representatives and entry["betti"] > 0 and reliable:
            for c in rh.harmonic_representatives(n):
                lines.append(f"    class: {rh.render_class(n, c)}")
    lhs, rhs = rh.euler_characteristics()
    payload = {
        "workspace": ws.name,
        "truncation": n_max,
        "degrees": degrees,
        "euler": {"from_dimensions": lhs, "from_betti": rhs, "equal": lhs == rhs},
    }
    lines.append(f"euler characteristic: from dimensions {lhs}, from betti numbers {rhs}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_trace(args) -> int:
    ws = _checked(args)
    name = args.endomorphism
    module_name, matrix = _named("endomorphism", ws.endomorphisms, name)
    coords = hs_trace(ws.modules[module_name], matrix)
    report = _class_fields(ws, 0, coords)
    payload = {"workspace": ws.name, "endomorphism": name, "module": module_name, **report}
    lines = [
        f"trace class of {name!r} on module {module_name!r}:",
        f"  coordinates {_render_vector(coords)}",
        f"  representative {report['representative']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_chern(args) -> int:
    ws = _checked(args)
    _require_q(args.q)
    conn = _named("connection", ws.connections, args.connection)
    q = args.q
    forms = chern_form(conn, q)
    trace_text = " ; ".join(
        f"{o.label}: {render_form(ws.dg, f)}"
        for o, f in zip(ws.category.objects, forms)
        if not f.is_zero()
    ) or "0"
    coords = chern_class(conn, q)
    report = _class_fields(ws, 2 * q, coords)
    payload = {
        "workspace": ws.name,
        "connection": args.connection,
        "module": conn.module.name,
        "q": q,
        "trace_form": trace_text,
        **report,
    }
    lines = [
        f"character class (q = {q}) of connection {args.connection!r} on module {conn.module.name!r}:",
        f"  trace form {trace_text}",
        f"  degree {2 * q} coordinates {_render_vector(coords)}",
        f"  class representative {report['representative']}",
    ]
    if args.certify:
        cert = certify_cocycle(conn, q)
        payload["certificate"] = {
            "degree": cert.degree,
            "spanning_size": cert.spanning_size,
            "commutator_terms": [
                {"label": t.label, "coefficient": format_scalar(t.coefficient)}
                for t in cert.terms
            ],
        }
        lines.append(
            f"  cocycle certificate: d(trace form) decomposed into {len(cert.terms)} "
            f"commutator term(s) out of a spanning set of {cert.spanning_size}"
        )
        for t in cert.terms:
            lines.append(f"    ({format_scalar(t.coefficient)}) {t.label}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_invariance(args) -> int:
    ws = _checked(args)
    _require_q(args.q)
    if len(args.connection) != 2:
        raise WorkspaceError("invariance needs exactly two --connection names")
    name0, name1 = args.connection
    conn0 = _named("connection", ws.connections, name0)
    conn1 = _named("connection", ws.connections, name1)
    cert = invariance_certificate(conn0, conn1, args.q)
    equal = all(s == 0 for s in cert.difference)
    payload = {
        "workspace": ws.name,
        "connections": [name0, name1],
        "module": conn0.module.name,
        "q": cert.q,
        "class0": _coords(cert.class0),
        "class1": _coords(cert.class1),
        "difference": _coords(cert.difference),
        "equal": equal,
        "primitive_integral": _coords(cert.primitive_integral),
        "primitive_direct": _coords(cert.primitive_direct),
        "tilde_closed": cert.tilde_closed,
    }
    lines = [
        f"connection independence (q = {cert.q}) on module {conn0.module.name!r}:",
        f"  class from {name0!r}: {_render_vector(cert.class0)}",
        f"  class from {name1!r}: {_render_vector(cert.class1)}",
        f"  difference: {_render_vector(cert.difference)} ({'zero' if equal else 'NONZERO'})",
        f"  interpolation cocycle closed: {cert.tilde_closed}",
        f"  primitive from the interpolation formula: {_render_vector(cert.primitive_integral)}",
        f"  primitive found by direct solve: {_render_vector(cert.primitive_direct)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


_K0_TERM = re.compile(r"\s*(?:(?P<sign>[+-])\s*)?(?P<num>\d+)?\s*\*?\s*\[(?P<name>[^\[\]]+)\]")


def parse_k0_expression(text: str) -> list[tuple[int, str]]:
    """Parse e.g. "2[M] - [N] + 3[P]" into [(2, "M"), (-1, "N"), (3, "P")]."""
    out: list[tuple[int, str]] = []
    pos = 0
    stripped = text.rstrip()
    while pos < len(stripped):
        m = _K0_TERM.match(stripped, pos)
        if m is None:
            raise WorkspaceError(f"cannot parse class expression near {stripped[pos:]!r}")
        if out and m.group("sign") is None:
            raise WorkspaceError("terms after the first need an explicit + or - sign")
        coeff = int(m.group("num") or "1")
        if m.group("sign") == "-":
            coeff = -coeff
        out.append((coeff, m.group("name").strip()))
        pos = m.end()
    if not out:
        raise WorkspaceError("empty class expression")
    return out


def cmd_k0(args) -> int:
    ws = _checked(args)
    _require_q(args.q)
    terms = parse_k0_expression(args.expression)
    entries = [K0Entry(coeff, _named("module", ws.modules, name)) for coeff, name in terms]
    coords = k0_character(entries, args.q)
    report = _class_fields(ws, 2 * args.q, coords)
    payload = {
        "workspace": ws.name,
        "expression": args.expression,
        "terms": [{"coefficient": c, "module": n} for c, n in terms],
        "q": args.q,
        **report,
    }
    lines = [
        f"character (q = {args.q}) of {args.expression!r}:",
        f"  degree {2 * args.q} coordinates {_render_vector(coords)}",
        f"  representative {report['representative']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_export(args) -> int:
    ws = _load(args)
    sys.stdout.write(serialize_workspace(ws))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    names = fixture_names()
    payload = {"fixtures": names}
    _emit(args, payload, names)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process and shared by every `main` call; do not mutate it.

    Sharing is safe: `parse_args` gives a fresh namespace on each call,
    and the `append` action copies its list, so no value carries over.
    """
    parser = argparse.ArgumentParser(
        prog="lincat",
        description="exact computations in finite linear categories with differential forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, needs_workspace: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_workspace:
            p.add_argument("workspace", help="path to a workspace JSON file, or fixture:NAME")
        p.add_argument("--output", choices=("text", "machine"), default="text",
                       help="text for reading, machine for canonical JSON")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check all category and graded-extension identities")

    p = add("cohomology", cmd_cohomology, "dimensions and betti numbers of the quotient complex")
    p.add_argument("--representatives", action="store_true",
                   help="also print harmonic class representatives")

    p = add("trace", cmd_trace, "trace class of a named module endomorphism")
    p.add_argument("--endomorphism", required=True, help="endomorphism name from the workspace")

    p = add("chern", cmd_chern, "character class of a named connection")
    p.add_argument("--connection", required=True, help="connection name from the workspace")
    p.add_argument("--q", type=int, required=True, help="character degree (class lands in degree 2q)")
    p.add_argument("--certify", action="store_true",
                   help="also certify that the trace form is closed modulo commutators")

    p = add("invariance", cmd_invariance, "certify two connections give the same class")
    p.add_argument("--connection", action="append", required=True,
                   help="give exactly twice: the two connection names")
    p.add_argument("--q", type=int, required=True, help="character degree")

    p = add("k0", cmd_k0, "character of a formal difference of modules")
    p.add_argument("--expression", required=True, help='e.g. "2[M] - [N]"')
    p.add_argument("--q", type=int, required=True, help="character degree")

    add("export", cmd_export, "print the canonical serialization of a workspace")
    add("fixtures", cmd_fixtures, "list packaged example workspaces", needs_workspace=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written the help (status 0), or the usage and the
        # error to stderr; its status 2 is this CLI's truncation code
        return EXIT_OK if not exc.code else EXIT_INVALID
    try:
        return args.func(args)
    except CategoryAxiomError as exc:
        # before WorkspaceError, which it subclasses
        message = f"workspace {exc.workspace!r} fails {len(exc.violations)} identity check(s)"
        _emit_error(args, "validation", message, exc.violations)
        return EXIT_INVALID
    except TruncationError as exc:
        _emit_error(args, "truncation", str(exc))
        return EXIT_TRUNCATION
    except CertificationError as exc:
        _emit_error(args, "certification", str(exc))
        return EXIT_CERTIFICATION
    except WorkspaceError as exc:
        _emit_error(args, "workspace", str(exc))
        return EXIT_INVALID
    except LincatError as exc:
        _emit_error(args, "computation", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
