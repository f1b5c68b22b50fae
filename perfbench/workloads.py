"""The three workloads: inputs from a seed, one operation, and its oracle.

A workload exposes

* ``setup()``: work done once before operations start;
* ``round(rng)``: the inputs of one round of operations, drawn from `rng`
  as plain data (numbers, names, argument lists);
* ``kind(op)``: the kind of an operation; every round holds each kind
  once;
* ``execute(op)``: the operation itself, the only part that is timed;
* ``check(op, result)``: raises `CheckFailed` unless the result matches
  an oracle that does not come from the code under test, and returns
  the operation's output as canonical text, which must not change when
  tracing is on.

The lincat package is passed in and every call goes through its module
attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

EXPECTED_CLI = Path(__file__).resolve().parent / "expected" / "cli_fixtures.json"


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _q(v) -> list[str]:
    return [str(s) for s in v]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# m2_envelope


M2_UNITS = ["e11", "e12", "e21", "e22"]
# oracles: the universal envelope of M2 has 4 * 3^n forms in degree n;
# quotient dimensions and the Betti numbers of degrees 0-2 (Karoubi's
# table in ROADMAP.md) were computed by hand
M2_QUOTIENT_DIMS = [1, 3, 3, 11]
M2_BETTI = [1, 0, 0]


def m2_category_data():
    """Matrix units e_ij of the 2x2 matrices; identity e11 + e22."""
    products = {}
    for a in M2_UNITS:
        for b in M2_UNITS:
            if a[2] == b[1]:
                products[(a, b)] = {f"e{a[1]}{b[2]}": 1}
    return ["x"], {("x", "x"): list(M2_UNITS)}, products, {"x": {"e11": 1, "e22": 1}}


class M2Envelope:
    """Build M2, its envelope, validation, quotient complex and a certificate."""

    name = "m2_envelope"

    def __init__(self, lincat, smoke: bool):
        self.lc = lincat
        # truncation 3 is the smallest that certifies the q = 1 character
        self.truncation = 2 if smoke else 3

    def setup(self) -> None:
        pass

    def round(self, rng) -> list[dict]:
        # a rank-one idempotent v.u^T / (u^T v) with small integer v and u
        v = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        while True:
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
            s = v[0] * u[0] + v[1] * u[1]
            if s:
                break
        idem = [Fraction(v[i] * u[j], s) for i in range(2) for j in range(2)]
        gauge = [rng.randint(-2, 2) for _ in range(4 * 3)]
        return [{"idempotent": idem, "gauge": gauge}]

    def kind(self, op: dict) -> str:
        return "m2"

    def execute(self, op: dict) -> dict:
        lc = self.lc
        c = lc.build_category(*m2_category_data())
        cat_violations = lc.validate_category(c)
        w = lc.universal_dg(c, self.truncation)
        dg_violations = lc.validate_dg(w)
        rh = lc.get_complex(w)
        x = w.base.objects[0]
        e = lc.FormMatrix(0, (x,), (x,), ((w.form(0, x, x, op["idempotent"]),),))
        module = lc.ProjectiveModule(w, "P", e)
        gauge = lc.FormMatrix(1, (x,), (x,), ((w.form(1, x, x, op["gauge"]),),))
        conn = lc.Connection(module, gauge)
        cls = lc.chern_class(conn, 1)
        cert = lc.certify_cocycle(conn, 1) if self.truncation >= 3 else None
        k0 = lc.k0_character([lc.K0Entry(1, module)], 1)
        return {"w": w, "rh": rh, "violations": cat_violations + dg_violations,
                "class": cls, "certificate": cert, "k0": k0}

    def check(self, op: dict, result: dict) -> str:
        w, rh, N = result["w"], result["rh"], self.truncation
        _require(not result["violations"], f"violations: {result['violations'][:3]}")
        dims = [w.dim(n, 0, 0) for n in range(N + 1)]
        _require(dims == [4 * 3 ** n for n in range(N + 1)], f"form dimensions {dims}")
        qdims = [rh.dim(n) for n in range(N + 1)]
        _require(qdims == M2_QUOTIENT_DIMS[:N + 1], f"quotient dimensions {qdims}")
        # Betti numbers are reliable below the top degree only
        betti = [rh.betti(n) for n in range(min(N, len(M2_BETTI)))]
        _require(betti == M2_BETTI[:len(betti)], f"betti numbers {betti}")
        cls, k0 = result["class"], result["k0"]
        # a random gauge moves the class by a coboundary, so the class and
        # the character of the module agree in cohomology, not coordinates
        _require(not any(rh.d_class(2, cls)), "character class is not closed")
        diff = tuple(a - b for a, b in zip(cls, k0))
        _require(rh.is_coboundary(2, diff) is not None, "class and k0 character differ in cohomology")
        payload = {"dims": dims, "quotient_dims": qdims, "betti": betti,
                   "class": _q(cls), "k0": _q(k0)}
        cert = result["certificate"]
        if N >= 3:
            _require(cert is not None, "no cocycle certificate")
            # the degree-3 span has one commutator per pair of basis forms of
            # complementary degrees: sum over p of 4*3^p * 4*3^(3-p)
            expected = sum(4 * 3 ** p * 4 * 3 ** (3 - p) for p in range(4))
            _require(cert.spanning_size == expected, f"certificate span {cert.spanning_size}")
            payload["certificate"] = {
                "spanning_size": cert.spanning_size,
                "terms": [[t.index, str(t.coefficient), t.label] for t in cert.terms],
            }
        return _canonical(payload)


# ---------------------------------------------------------------------------
# two_points_characters


def two_points_category_data():
    """One object, hom = span{1, c} with c.c = c."""
    return (["x"], {("x", "x"): ["1", "c"]},
            {("1", "1"): {"1": 1}, ("1", "c"): {"c": 1}, ("c", "1"): {"c": 1}, ("c", "c"): {"c": 1}},
            {"x": {"1": 1}})


class TwoPointsCharacters:
    """Characters, certificates and K0 on sums of F, L and P over two points."""

    name = "two_points_characters"
    QS = (1, 2, 3)
    SUMMANDS = (1, 2, 3)

    def __init__(self, lincat, smoke: bool):
        self.lc = lincat
        self.smoke = smoke
        # q <= 3 needs degree 2q + 1 = 7 for the certificate
        self.truncation = 4 if smoke else 8

    def setup(self) -> None:
        lc = self.lc
        c = lc.build_category(*two_points_category_data())
        w = self.w = lc.universal_dg(c, self.truncation)
        self.rh = lc.get_complex(w)
        N = self.truncation
        # oracle: every degree of the envelope is 2-dimensional, and the
        # quotient is spanned by 1 and c in degree 0 and by c.(dc)^n in
        # even degrees n > 0
        dims = [w.dim(n, 0, 0) for n in range(N + 1)]
        qdims = [self.rh.dim(n) for n in range(N + 1)]
        _require(dims == [2] * (N + 1), f"form dimensions {dims}")
        _require(qdims == [2] + [1 - n % 2 for n in range(1, N + 1)], f"quotient dimensions {qdims}")
        x = self.x = w.base.objects[0]
        one, c_, zero = w.basis_form(0, x, x, 0), w.basis_form(0, x, x, 1), w.zero_form(0, x, x)

        def module(name, rows):
            fam = (x,) * len(rows)
            return lc.ProjectiveModule(w, name, lc.FormMatrix(0, fam, fam, rows))

        self.modules = {
            "F": module("F", ((one,),)),
            "L": module("L", ((c_,),)),
            "P": module("P", ((c_, zero), (one, one - c_))),
        }

    def round(self, rng) -> list[dict]:
        # every multiset of 1-3 summands with every q once per round, so
        # each round (and each seed) has the same mix of sizes; the seed
        # draws the order of the summands, the gauges and the order of the
        # operations
        qs = (1,) if self.smoke else self.QS
        ops = []
        for k in self.SUMMANDS:
            for kinds in itertools.combinations_with_replacement("FLP", k):
                for q in qs:
                    names = rng.sample(kinds, k)
                    size = sum(2 if n == "P" else 1 for n in names)
                    gauge = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(size)]
                             for _ in range(size)]
                    ops.append({"summands": names, "q": q, "gauge": gauge})
        rng.shuffle(ops)
        return ops[:1] if self.smoke else ops

    def kind(self, op: dict) -> str:
        return f"{''.join(sorted(op['summands']))} q={op['q']}"

    def execute(self, op: dict) -> dict:
        lc, w, x, q = self.lc, self.w, self.x, op["q"]
        parts = [self.modules[n] for n in op["summands"]]
        total = parts[0]
        for part in parts[1:]:
            total = lc.direct_sum(total, part).module
        fam = total.family
        gauge = lc.FormMatrix(1, fam, fam, tuple(
            tuple(w.form(1, x, x, coords) for coords in row) for row in op["gauge"]
        ))
        conn = lc.Connection(total, gauge)
        return {
            "class": lc.chern_class(conn, q),
            "certificate": lc.certify_cocycle(conn, q),
            "invariance": lc.invariance_certificate(lc.canonical_connection(total), conn, q),
            "k0": lc.k0_character([lc.K0Entry(1, p) for p in parts], q),
            "hs": lc.hs_trace(total, total.idempotent),
        }

    def check(self, op: dict, result: dict) -> str:
        names, q = op["summands"], op["q"]
        n_line = names.count("L")
        # oracle: ch_q(L) = c.(dc)^2q, one unit in the 1-dimensional
        # degree-2q quotient, for every q (README: (1) at q = 1); F is free
        # and P is stably free, so both contribute 0; the character is
        # additive over the summands
        expected = (Fraction(n_line),)
        _require(result["class"] == expected, f"class {result['class']} != {expected}")
        _require(result["k0"] == expected, f"k0 {result['k0']} != {expected}")
        inv = result["invariance"]
        _require(inv.difference == (0,), f"invariance difference {inv.difference}")
        _require(inv.class0 == inv.class1 == expected, "invariance classes")
        # degree-0 trace of the idempotent, on the classes of 1 and c: F and
        # P each give 1 (the trace of P is c + (1 - c)), L gives c
        hs = (Fraction(len(names) - n_line), Fraction(n_line))
        _require(result["hs"] == hs, f"hs trace {result['hs']} != {hs}")
        cert = result["certificate"]
        # degree 2q + 1 commutators: pairs of 2-dimensional spaces of
        # degrees p and 2q + 1 - p, p = 0..2q+1
        _require(cert.spanning_size == 4 * (2 * q + 2), f"certificate span {cert.spanning_size}")
        return _canonical({
            "class": _q(result["class"]), "k0": _q(result["k0"]), "hs": _q(result["hs"]),
            "certificate": [[t.index, str(t.coefficient)] for t in cert.terms],
            "primitive_integral": _q(inv.primitive_integral),
            "primitive_direct": _q(inv.primitive_direct),
        })


# ---------------------------------------------------------------------------
# cli_fixtures


README_EXAMPLES = [
    ["fixtures"],
    ["validate", "fixture:two_points_universal"],
    ["cohomology", "fixture:two_points_universal", "--representatives"],
    ["trace", "fixture:dual_numbers_universal", "--endomorphism", "mult_u"],
    ["chern", "fixture:two_points_universal", "--connection", "levi_L", "--q", "1", "--certify"],
    ["chern", "fixture:dual_numbers_universal", "--connection", "shift_M", "--q", "1"],
    ["invariance", "fixture:two_points_universal", "--connection", "levi_L",
     "--connection", "twist_L", "--q", "1"],
    ["k0", "fixture:two_points_universal", "--expression", "[P] - [M]", "--q", "1"],
    ["k0", "fixture:two_points_universal", "--expression", "[L]", "--q", "1"],
    ["chern", "fixture:dual_numbers_universal", "--connection", "shift_M", "--q", "1",
     "--output", "machine"],
]


def cli_commands() -> list[list[str]]:
    """Every (fixture, subcommand) pair the bundled fixtures support.

    Read from the fixture documents as plain JSON; circle_tables
    (truncation 1) and dual_numbers_trivial (truncation 2) make several
    of these requests refused with exit code 2.
    """
    commands = []
    root = resources.files("lincat").joinpath("fixtures")
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        ref = f"fixture:{path.name[:-5]}"
        machine = ["--output", "machine"]
        commands.append(["validate", ref] + machine)
        commands.append(["cohomology", ref, "--representatives"] + machine)
        commands.append(["export", ref] + machine)
        conns = doc.get("connections", [])
        for conn in conns:
            commands.append(["chern", ref, "--connection", conn["name"], "--q", "1", "--certify"] + machine)
        for endo in doc.get("endomorphisms", []):
            commands.append(["trace", ref, "--endomorphism", endo["name"]] + machine)
        for mod in doc.get("modules", []):
            commands.append(["k0", ref, "--expression", f"[{mod['name']}]", "--q", "1"] + machine)
        for i, a in enumerate(conns):
            for b in conns[i + 1:]:
                if a["module"] == b["module"]:
                    commands.append(["invariance", ref, "--connection", a["name"],
                                     "--connection", b["name"], "--q", "1"] + machine)
    return commands + README_EXAMPLES


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliFixtures:
    """`lincat.cli.main` in process, over every fixture and subcommand."""

    name = "cli_fixtures"

    def __init__(self, lincat, smoke: bool):
        self.lc = lincat
        self.smoke = smoke

    def setup(self) -> None:
        self.commands = cli_commands()
        # exit code and stdout of every command, recorded at the seed
        # commit by record_cli_expected.py
        with open(EXPECTED_CLI, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        missing = [" ".join(c) for c in self.commands if " ".join(c) not in self.expected]
        _require(not missing, f"no expected output for {missing[:3]}")

    def round(self, rng) -> list[list[str]]:
        ops = list(self.commands)
        rng.shuffle(ops)
        return ops[:1] if self.smoke else ops

    def kind(self, argv: list[str]) -> str:
        return " ".join(argv)

    def execute(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(self.lc.cli, argv)

    def check(self, argv: list[str], result: tuple[int, str]) -> str:
        code, out = result
        want = self.expected[" ".join(argv)]
        _require(code == want["exit"], f"{' '.join(argv)}: exit {code} != {want['exit']}")
        _require(out == want["stdout"], f"{' '.join(argv)}: stdout differs from the recorded output")
        return f"{code}\n{out}"


WORKLOADS = {cls.name: cls for cls in (M2Envelope, TwoPointsCharacters, CliFixtures)}
