import argparse
import contextlib
import copy
from fractions import Fraction
import io
import json
from pathlib import Path

import pytest

from lincat.category import validate_category
from lincat.cli import (
    EXIT_CERTIFICATION,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TRUNCATION,
    main,
    parse_k0_expression,
)
from lincat.dg import validate_dg
from lincat.errors import WorkspaceError
from lincat.workspace import (
    fixture_names,
    load_fixture,
    load_workspace,
    parse_workspace,
    serialize_workspace,
    workspace_from_dict,
)

from law_oracle import comp_terms

ALL_FIXTURES = [
    "arrow_universal",
    "circle_tables",
    "dual_numbers_trivial",
    "dual_numbers_universal",
    "point_universal",
    "two_points_universal",
]


def base_doc():
    return json.loads(serialize_workspace(load_fixture("two_points_universal")))


# -- workspace layer ---------------------------------------------------------


def test_fixture_inventory():
    assert fixture_names() == ALL_FIXTURES
    for name in ALL_FIXTURES:
        ws = load_fixture(name)
        assert ws.name == name
        assert list(validate_category(ws.category)) == []
        assert list(validate_dg(ws.dg)) == []


def test_unknown_fixture():
    # a name is not a path: "../fixtures/circle_tables" leads back to a
    # bundled file, yet only a listed name is loaded, so no name reaches a
    # file outside the fixtures
    for name in ("no_such_fixture", "../fixtures/circle_tables"):
        with pytest.raises(WorkspaceError) as exc:
            load_fixture(name)
        assert str(exc.value) == f"no fixture named {name!r}; available: {', '.join(ALL_FIXTURES)}"


def test_serialization_is_byte_stable():
    for name in ALL_FIXTURES:
        ws = load_fixture(name)
        s1 = serialize_workspace(ws)
        ws2 = parse_workspace(s1)
        s2 = serialize_workspace(ws2)
        assert s1 == s2
        assert serialize_workspace(parse_workspace(s2)) == s2


def test_load_workspace_from_file(tmp_path):
    path = tmp_path / "ws.json"
    text = serialize_workspace(load_fixture("dual_numbers_universal"))
    path.write_text(text, encoding="utf-8")
    ws = load_workspace(str(path))
    assert ws.name == "dual_numbers_universal"
    with pytest.raises(WorkspaceError):
        load_workspace(str(tmp_path / "missing.json"))
    for name, data in UNDECODABLE.items():
        bad = tmp_path / name
        bad.write_bytes(data)
        with pytest.raises(WorkspaceError):
            load_workspace(str(bad))


# workspace files that cannot be decoded: bytes that are not UTF-8, and
# JSON nested deeper than the parser's recursion limit
UNDECODABLE = {
    "not_utf8.json": b"\xff\xfe{}",
    "too_deep.json": b"[" * 200_000 + b"]" * 200_000,
}


def test_word_and_address_terms_agree():
    # the packaged file uses word terms; its canonical serialization uses
    # address terms; both parses must produce identical matrices
    ws_words = load_fixture("two_points_universal")
    ws_addrs = parse_workspace(serialize_workspace(ws_words))
    for name in ws_words.connections:
        assert ws_words.connections[name].gauge == ws_addrs.connections[name].gauge
        assert (
            ws_words.connections[name].operational_matrix()
            == ws_addrs.connections[name].operational_matrix()
        )
    for name in ws_words.modules:
        assert ws_words.modules[name].idempotent == ws_addrs.modules[name].idempotent
    for name in ws_words.endomorphisms:
        assert ws_words.endomorphisms[name][1] == ws_addrs.endomorphisms[name][1]


def test_parse_rejects_malformed_documents():
    with pytest.raises(WorkspaceError):
        parse_workspace("{ not json")
    with pytest.raises(WorkspaceError):
        parse_workspace(json.dumps([1, 2, 3]))

    def broken(mutate):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(WorkspaceError):
            workspace_from_dict(doc)

    broken(lambda d: d.update(format="something-else"))
    broken(lambda d: d.update(version=2))
    broken(lambda d: d.pop("name"))
    broken(lambda d: d["category"].pop("objects"))
    broken(lambda d: d["category"]["arrows"].append(
        {"label": "z", "dom": "ghost", "cod": "x"}))
    broken(lambda d: d["category"]["arrows"].append(
        {"label": "c", "dom": "x", "cod": "x"}))  # duplicate label
    broken(lambda d: d["category"]["products"].append(
        {"left": "c", "right": "ghost", "result": {}}))
    broken(lambda d: d["category"]["products"][0].update(result={"c": "1/0"}))
    broken(lambda d: d["forms"].update(truncation="five"))
    broken(lambda d: d["forms"].update(model="unknown-model"))
    broken(lambda d: d["modules"][0].update(name=d["modules"][1]["name"]))
    broken(lambda d: d["modules"][0].update(family=["ghost"]))
    broken(lambda d: d["modules"][0]["idempotent"][0][0].append(
        {"coeff": "x", "word": ["1"]}))
    # a float is refused in the category and in a form literal, even where its value is right
    broken(lambda d: [p.update(result={"c": 1.0}) for p in d["category"]["products"]
                      if (p["left"], p["right"]) == ("c", "c")])
    broken(lambda d: d["modules"][0]["idempotent"][0][0][0].update(coeff=1.0))
    broken(lambda d: d["modules"][0]["idempotent"][0][0].append(
        {"coeff": "1", "word": ["ghost"]}))
    broken(lambda d: d["modules"][0]["idempotent"][0][0].append(
        {"coeff": "1", "degree": 1, "dom": "x", "cod": "x", "basis": "dc"}))
    # non-idempotent matrix: 2c squares to 4c
    broken(lambda d: d["modules"][1].update(
        idempotent=[[[{"coeff": "2", "word": ["c"]}]]]))
    broken(lambda d: d["connections"][0].update(module="ghost"))
    broken(lambda d: d["connections"][0].update(gauge="sideways"))
    # 10^4301 is refused before it is built: its exponent is past the limit on integer digits
    broken(lambda d: [t.update(coeff="1e4301") for c in d["connections"] if c["name"] == "twist_L"
                      for t in c["gauge"][0][0]])
    broken(lambda d: d["connections"].append(dict(d["connections"][0])))  # dup name
    broken(lambda d: d["endomorphisms"][0].update(module="ghost"))
    broken(lambda d: d["endomorphisms"][0].update(matrix=[[[], []]]))  # wrong shape


def test_parse_refuses_a_string_where_a_list_is_expected():
    # a string is a sequence too, but not a list of its characters
    def refused(name, mutate, message):
        doc = json.loads(serialize_workspace(load_fixture(name)))
        mutate(doc)
        with pytest.raises(WorkspaceError) as exc:
            workspace_from_dict(doc)
        assert str(exc.value) == message

    refused("two_points_universal", lambda d: d["category"].update(objects="x"),
            "category: objects must be a list")
    refused("two_points_universal", lambda d: d["modules"][2].update(family="xx"),
            "module 'P': family must be a list")
    refused("circle_tables", lambda d: d["forms"]["spaces"][0].update(basis="th"),
            "form space degree 1 at (x,x): basis must be a list")
    # the checks that refused a string before keep their messages
    refused("circle_tables", lambda d: d["forms"]["products"][0].update(result="th"),
            "form product result: expected a list of terms")
    refused("two_points_universal", lambda d: d["modules"][0]["idempotent"][0][0][0].update(word="c"),
            "module 'M' idempotent[0][0]: word must be a list")
    refused("two_points_universal", lambda d: d["modules"][0]["idempotent"][0].__setitem__(0, "c"),
            "module 'M' idempotent[0][0]: expected a list of terms")
    refused("two_points_universal", lambda d: d["modules"][0].update(idempotent="c"),
            "module 'M' idempotent: matrix must be a list of rows")
    refused("two_points_universal", lambda d: d["modules"][0]["idempotent"].__setitem__(0, "c"),
            "module 'M' idempotent: row 0 must have 1 entries")
    # a top-level collection must be a list: "" or {} is not an empty one
    collections = [
        ("two_points_universal", ("category", "arrows")),
        ("two_points_universal", ("category", "products")),
        ("circle_tables", ("forms", "spaces")),
        ("circle_tables", ("forms", "products")),
        ("circle_tables", ("forms", "differentials")),
        ("two_points_universal", ("modules",)),
        ("two_points_universal", ("connections",)),
        ("two_points_universal", ("endomorphisms",)),
    ]
    for name, path in collections:
        owner = "workspace" if len(path) == 1 else path[0]
        for value in ("", {}, "ab"):
            def mutate(d, path=path, value=value):
                for key in path[:-1]:
                    d = d[key]
                d[path[-1]] = value
            refused(name, mutate, f"{owner}: {path[-1]} must be a list")


@pytest.mark.parametrize("identity", [["1"], "1", 1], ids=["list", "string", "number"])
def test_an_identity_that_is_not_an_object_is_refused(identity, tmp_path):
    # build_category read it with .items(): the parse died with an AttributeError
    doc = json.loads(serialize_workspace(load_fixture("circle_tables")))
    doc["category"]["identities"]["x"] = identity
    message = f"category: identity of 'x': expected a mapping of arrow labels to coefficients, got {identity!r}"
    with pytest.raises(WorkspaceError) as exc:
        workspace_from_dict(doc)
    assert str(exc.value) == message
    code, out, err = quiet_main(["validate", write_doc(tmp_path, doc), "--output", "machine"])
    assert (code, json.loads(out), err) == (EXIT_INVALID, {"error": {"kind": "workspace", "message": message}}, "")


def test_tables_refuse_a_repeated_product():
    # the second entry for 1 . th would silently replace the first
    doc = json.loads(serialize_workspace(load_fixture("circle_tables")))
    products = doc["forms"]["products"]
    products.append(dict(products[0], result=[]))
    with pytest.raises(WorkspaceError, match=r"form product \(1 in degree 0 at \(x,x\), "
                                             r"th in degree 1 at \(x,x\)\) given twice"):
        workspace_from_dict(doc)


def test_tables_refuse_a_repeated_differential():
    # an empty second result for d(1) would wipe out the first
    doc = json.loads(serialize_workspace(load_fixture("circle_tables")))
    d_one = {"of": {"degree": 0, "dom": "x", "cod": "x", "basis": "1"},
             "result": [{"coeff": "1", "degree": 1, "dom": "x", "cod": "x", "basis": "th"}]}
    doc["forms"]["differentials"] = [d_one]
    assert json.loads(serialize_workspace(workspace_from_dict(doc)))["forms"]["differentials"] == [d_one]
    doc["forms"]["differentials"].append(dict(d_one, result=[]))
    with pytest.raises(WorkspaceError, match=r"differential of 1 in degree 0 at \(x,x\) given twice"):
        workspace_from_dict(doc)


def test_k0_expression_parser():
    assert parse_k0_expression("2[M] - [N] + 3*[P]") == [(2, "M"), (-1, "N"), (3, "P")]
    assert parse_k0_expression("[ L ]") == [(1, "L")]
    assert parse_k0_expression("-[L]") == [(-1, "L")]
    for bad in ("", "   ", "[M][N]", "M + N", "2 - [M]", "[M] ghost"):
        with pytest.raises(WorkspaceError):
            parse_k0_expression(bad)


# -- command line ------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate_ok(capsys):
    for name in ALL_FIXTURES:
        code, out, _ = run(capsys, "validate", f"fixture:{name}")
        assert code == EXIT_OK
        assert "all identities hold" in out


def test_cli_validate_catches_corruption(capsys, tmp_path):
    # table-model workspaces parse fine with broken identities inside the
    # tables; the validate subcommand is what reports them
    clean = json.loads(serialize_workspace(load_fixture("circle_tables")))

    with_bad_d = copy.deepcopy(clean)
    with_bad_d["forms"]["differentials"] = [{
        "of": {"degree": 0, "dom": "x", "cod": "x", "basis": "1"},
        "result": [{"coeff": "1", "degree": 1, "dom": "x", "cod": "x", "basis": "th"}],
    }]
    with_bad_product = copy.deepcopy(clean)
    with_bad_product["forms"]["products"] = [
        p for p in with_bad_product["forms"]["products"]
        if p["left"]["degree"] == 0
    ]  # th.1 now composes to 0: the unit law fails in degree 1

    cases = (
        (with_bad_d, [{"kind": "dg-leibniz", "where": "1 . 1"}]),
        (with_bad_product, [{"kind": "dg-identity-right", "where": "th . 1_x"}]),
    )
    for doc, expected in cases:
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(path), "--output", "machine")
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"] == expected
        # other subcommands refuse to compute on a broken workspace
        code, out, _ = run(
            capsys, "cohomology", str(path), "--output", "machine"
        )
        assert code == EXIT_INVALID
        assert "error" in json.loads(out)


def test_cli_validate_refuses_an_undecodable_file(capsys, tmp_path):
    for name, data in UNDECODABLE.items():
        path = tmp_path / name
        path.write_bytes(data)
        code, out, _ = run(capsys, "validate", str(path), "--output", "machine")
        assert code == EXIT_INVALID
        assert json.loads(out)["error"]["kind"] == "workspace", name


def test_cli_validate_reports_a_degree_0_failure_once(capsys, tmp_path):
    # degree 0 is the base category: its unit and associativity failures
    # come from validate_category alone, not again with a dg- prefix
    doc = json.loads(serialize_workspace(load_fixture("dual_numbers_trivial")))
    for p in doc["category"]["products"]:
        if (p["left"], p["right"]) == ("1", "u"):
            p["result"] = {"u": "2"}
    path = tmp_path / "broken_unit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path), "--output", "machine")
    assert code == EXIT_INVALID
    assert json.loads(out)["violations"] == [
        {"kind": "identity-left", "where": "1_x . u"},
        {"kind": "associativity", "where": "1 . 1 . u"},
    ]


def test_cli_validate_reports_a_broken_category_of_a_universal_workspace(capsys, tmp_path):
    # the envelope of a category that is not one is not built: the
    # category's violations are reported instead of a builder error
    doc = json.loads(serialize_workspace(load_fixture("two_points_universal")))
    for p in doc["category"]["products"]:
        if (p["left"], p["right"]) == ("1", "c"):
            p["result"] = {"c": "2"}
    path = tmp_path / "broken_unit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = [
        {"kind": "identity-left", "where": "1_x . c"},
        {"kind": "associativity", "where": "1 . 1 . c"},
        {"kind": "associativity", "where": "c . 1 . c"},
    ]
    code, out, _ = run(capsys, "validate", str(path), "--output", "machine")
    assert code == EXIT_INVALID
    assert json.loads(out) == {"workspace": "two_points_universal", "ok": False, "violations": expected}
    code, out, _ = run(capsys, "cohomology", str(path), "--output", "machine")
    assert code == EXIT_INVALID
    error = json.loads(out)["error"]
    assert (error["kind"], error["violations"]) == ("validation", expected)


def test_cli_checks_a_universal_category_once_per_command(capsys, monkeypatch):
    # universal_dg checks a universal workspace's category before the
    # envelope is built, and the category keeps the verdict for the command,
    # so the law kernel's report runs once per command
    import lincat.laws

    calls = []
    report = lincat.laws._report

    def counted(w):
        calls.append(w)
        return report(w)

    monkeypatch.setattr(lincat.laws, "_report", counted)
    for args in [("validate", "fixture:two_points_universal"),
                 ("cohomology", "fixture:point_universal"),
                 ("validate", "fixture:circle_tables"),
                 ("cohomology", "fixture:dual_numbers_trivial")]:
        calls.clear()
        code, _, _ = run(capsys, *args)
        assert (code, len(calls)) == (EXIT_OK, 1), args


def test_json_numbers_are_read_by_their_text():
    # a JSON number written with a fraction part reads as the exact value of its text
    doc = base_doc()
    for p in doc["category"]["products"]:
        if (p["left"], p["right"]) == ("c", "c"):
            p["result"] = {"c": 1.0}
    doc["modules"][0]["idempotent"][0][0][0]["coeff"] = 1.0
    text = json.dumps(doc)
    assert serialize_workspace(parse_workspace(text)) == serialize_workspace(load_fixture("two_points_universal"))
    # c.c = c/2 and c.c = c/10 are categories too; 0.1 is 1/10, not the float nearest to it
    for literal, value in [("0.5", Fraction(1, 2)), ("0.1", Fraction(1, 10)), ("5e-1", Fraction(1, 2))]:
        small = dict(json.loads(text), modules=[], connections=[], endomorphisms=[])
        ws = parse_workspace(json.dumps(small).replace('{"c": 1.0}', '{"c": %s}' % literal))
        assert comp_terms(ws.category)[(0, 0, 0)][1][1] == ((1, value),), literal
    # a label written as a number keeps its text
    assert parse_workspace(text.replace('"name": "two_points_universal"', '"name": 1.50')).name == "1.50"


def test_cli_machine_output_is_byte_stable(capsys):
    args = ("cohomology", "fixture:two_points_universal", "--output", "machine")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert [d["space_dim"] for d in payload["degrees"]] == [2, 0, 1, 0, 1, 0]
    assert [d["betti"] for d in payload["degrees"]] == [2, 0, 1, 0, 1, 0]
    assert payload["euler"]["equal"] is True


def test_cli_cohomology_representatives(capsys):
    code, out, _ = run(
        capsys, "cohomology", "fixture:two_points_universal", "--representatives"
    )
    assert code == EXIT_OK
    assert "x: c.dc.dc" in out


def test_cli_trace(capsys):
    code, out, _ = run(
        capsys, "trace", "fixture:dual_numbers_universal",
        "--endomorphism", "mult_u", "--output", "machine",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["representative"] == "x: u"
    assert payload["zero"] is False
    code, _, _ = run(
        capsys, "trace", "fixture:dual_numbers_universal", "--endomorphism", "ghost"
    )
    assert code == EXIT_INVALID


def test_cli_chern_nontrivial_class(capsys):
    code, out, _ = run(
        capsys, "chern", "fixture:two_points_universal",
        "--connection", "levi_L", "--q", "1", "--certify", "--output", "machine",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class"] == ["1"]
    assert payload["zero"] is False
    assert payload["representative"] == "x: c.dc.dc"
    assert payload["certificate"]["degree"] == 3
    assert payload["certificate"]["spanning_size"] > 0


def test_cli_chern_flat_fixture(capsys):
    code, out, _ = run(
        capsys, "chern", "fixture:dual_numbers_universal",
        "--connection", "shift_M", "--q", "1", "--output", "machine",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trace_form"] == "x: du.du"
    assert payload["zero"] is True
    assert payload["representative"] == "0"


def test_cli_chern_truncation_exit(capsys):
    code, out, _ = run(
        capsys, "chern", "fixture:circle_tables",
        "--connection", "wind_M", "--q", "1", "--output", "machine",
    )
    assert code == EXIT_TRUNCATION
    payload = json.loads(out)
    assert payload["error"]["kind"] == "truncation"


def test_cli_chern_bad_names(capsys):
    code, _, err = run(
        capsys, "chern", "fixture:two_points_universal", "--connection", "ghost", "--q", "1"
    )
    assert code == EXIT_INVALID
    assert "no connection named" in err
    code, _, _ = run(
        capsys, "chern", "fixture:two_points_universal", "--connection", "levi_L", "--q", "-1"
    )
    assert code == EXIT_INVALID
    code, _, _ = run(capsys, "validate", "fixture:ghost")
    assert code == EXIT_INVALID


def test_cli_invariance(capsys):
    code, out, _ = run(
        capsys, "invariance", "fixture:two_points_universal",
        "--connection", "levi_L", "--connection", "twist_L", "--q", "1",
        "--output", "machine",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["tilde_closed"] is True
    code, _, _ = run(
        capsys, "invariance", "fixture:two_points_universal",
        "--connection", "levi_L", "--q", "1",
    )
    assert code == EXIT_INVALID


def test_cli_k0(capsys):
    code, out, _ = run(
        capsys, "k0", "fixture:two_points_universal",
        "--expression", "[P] - [M]", "--q", "1", "--output", "machine",
    )
    assert code == EXIT_OK
    assert json.loads(out)["zero"] is True
    code, out, _ = run(
        capsys, "k0", "fixture:two_points_universal",
        "--expression", "[L]", "--q", "1", "--output", "machine",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["zero"] is False
    assert payload["class"] == ["1"]
    code, _, _ = run(
        capsys, "k0", "fixture:two_points_universal", "--expression", "M + N", "--q", "0"
    )
    assert code == EXIT_INVALID
    code, _, _ = run(
        capsys, "k0", "fixture:two_points_universal", "--expression", "[ghost]", "--q", "0"
    )
    assert code == EXIT_INVALID


def test_cli_export_and_fixtures(capsys):
    code, out, _ = run(capsys, "export", "fixture:arrow_universal")
    assert code == EXIT_OK
    assert out == serialize_workspace(load_fixture("arrow_universal"))
    code, out, _ = run(capsys, "fixtures", "--output", "machine")
    assert code == EXIT_OK
    assert json.loads(out)["fixtures"] == ALL_FIXTURES


RECORDED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "cli_fixtures.json"


def recorded_cli_runs() -> dict:
    # every command of the benchmark's CLI mix, with the exit code and the
    # stdout recorded when that file was made; the file is read, never written
    expected = json.loads(RECORDED_CLI.read_text(encoding="utf-8"))
    assert len(expected) >= 60
    return expected


def quiet_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_recorded(key, want):
    code, out, _ = quiet_main(want["argv"])
    assert code == want["exit"], key
    assert out == want["stdout"], key


def test_cli_output_matches_recorded_fixture_runs():
    for key, want in sorted(recorded_cli_runs().items()):
        assert_recorded(key, want)


# a command line argparse refuses: --q is required
USAGE_ERROR = ["chern", "fixture:two_points_universal", "--connection", "levi_L"]
CERTIFIED_CHERN = "chern fixture:two_points_universal --connection levi_L --q 1 --certify"


def test_cli_usage_error_exits_invalid_and_the_parser_survives_it():
    recorded = recorded_cli_runs()
    code, out, err = quiet_main(USAGE_ERROR)
    # not the truncation code 2 that argparse would exit with
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("usage: lincat chern [-h] ")
    assert err.endswith("lincat chern: error: the following arguments are required: --q\n")
    assert_recorded(CERTIFIED_CHERN, recorded[CERTIFIED_CHERN])


def test_cli_help_exits_ok_and_the_parser_survives_it():
    recorded = recorded_cli_runs()
    for argv in (["--help"], ["invariance", "--help"]):
        code, out, err = quiet_main(argv)
        assert code == EXIT_OK
        assert out.startswith("usage: lincat ")
        assert err == ""
        assert_recorded(CERTIFIED_CHERN, recorded[CERTIFIED_CHERN])


def test_cli_builds_one_parser_per_process(monkeypatch):
    recorded = recorded_cli_runs()
    assert_recorded(CERTIFIED_CHERN, recorded[CERTIFIED_CHERN])
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    runs = sorted(recorded.items())
    for key, want in runs:
        assert_recorded(key, want)
    assert quiet_main(USAGE_ERROR)[0] == EXIT_INVALID
    for key, want in reversed(runs):
        assert_recorded(key, want)

    # the append action copies its list: no --connection value carries over
    pair = ["levi_L", "twist_L"]
    for names in (pair, pair[::-1], pair):
        argv = ["invariance", "fixture:two_points_universal", "--q", "1", "--output", "machine"]
        for name in names:
            argv += ["--connection", name]
        code, out, _ = quiet_main(argv)
        assert code == EXIT_OK
        assert json.loads(out)["connections"] == names
    assert built == []


# -- every error path of main, pinned byte for byte in both output modes ------


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def broken_universal(tmp_path) -> str:
    # 1 . c = 2c: the category breaks its unit law, so its envelope is never built
    doc = json.loads(serialize_workspace(load_fixture("two_points_universal")))
    for p in doc["category"]["products"]:
        if (p["left"], p["right"]) == ("1", "c"):
            p["result"] = {"c": "2"}
    return write_doc(tmp_path, doc)


def broken_tables(tmp_path) -> str:
    # th . 1 is not given, so it composes to 0: the graded unit law fails after the parse
    doc = json.loads(serialize_workspace(load_fixture("circle_tables")))
    doc["forms"]["products"] = [p for p in doc["forms"]["products"] if p["left"]["degree"] == 0]
    return write_doc(tmp_path, doc)


UNIT_LAW_BROKEN = [("identity-left", "1_x . c"), ("associativity", "1 . 1 . c"), ("associativity", "c . 1 . c")]
GRADED_UNIT_LAW_BROKEN = [("dg-identity-right", "th . 1_x")]


def canonical(payload: dict) -> str:
    # machine output is canonical JSON: sorted keys, two-space indent, one newline
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def assert_error(argv, code, text_stderr, kind, message, violations=None):
    assert quiet_main(argv) == (code, "", text_stderr)
    error = {"kind": kind, "message": message}
    if violations is not None:
        error["violations"] = [{"kind": k, "where": w} for k, w in violations]
    assert quiet_main(argv + ["--output", "machine"]) == (code, canonical({"error": error}), "")


def test_main_reports_a_category_that_fails_at_load(tmp_path):
    path = broken_universal(tmp_path)
    message = "workspace 'two_points_universal' fails 3 identity check(s)"
    for argv in (["cohomology", path], ["chern", path, "--connection", "levi_L", "--q", "1"]):
        assert_error(argv, EXIT_INVALID,
                     f"error (validation): {message}\n"
                     "  identity-left: 1_x . c\n"
                     "  associativity: 1 . 1 . c\n"
                     "  associativity: c . 1 . c\n",
                     "validation", message, UNIT_LAW_BROKEN)


def test_main_reports_graded_laws_that_fail_after_load(tmp_path):
    # text mode writes the violations to stderr, one per line under the message
    path = broken_tables(tmp_path)
    message = "workspace 'circle_tables' fails 1 identity check(s)"
    for argv in (["cohomology", path], ["chern", path, "--connection", "wind_M", "--q", "0"]):
        assert_error(argv, EXIT_INVALID,
                     f"error (validation): {message}\n  dg-identity-right: th . 1_x\n",
                     "validation", message, GRADED_UNIT_LAW_BROKEN)


def test_validate_reports_failures_at_and_after_load(tmp_path):
    for path, name, violations in ((broken_universal(tmp_path), "two_points_universal", UNIT_LAW_BROKEN),
                                   (broken_tables(tmp_path), "circle_tables", GRADED_UNIT_LAW_BROKEN)):
        text = (f"workspace {name}: checking category and graded identities\n"
                + "".join(f"  FAIL {k}: {w}\n" for k, w in violations)
                + f"result: {len(violations)} violation(s)\n")
        assert quiet_main(["validate", path]) == (EXIT_INVALID, text, "")
        payload = {"workspace": name, "ok": False,
                   "violations": [{"kind": k, "where": w} for k, w in violations]}
        assert quiet_main(["validate", path, "--output", "machine"]) == (EXIT_INVALID, canonical(payload), "")


def test_main_reports_truncation():
    message = "Gamma^1 has degree 2; raise the truncation to at least 2"
    assert_error(["chern", "fixture:circle_tables", "--connection", "wind_M", "--q", "1"], EXIT_TRUNCATION,
                 f"error (truncation): {message}\n", "truncation", message)


WORKSPACE_ERRORS = {
    "unknown-connection": (["chern", "fixture:two_points_universal", "--connection", "ghost", "--q", "1"],
                           "no connection named 'ghost'; available: flat_M, levi_L, levi_P, twist_L"),
    "unknown-endomorphism": (["trace", "fixture:dual_numbers_universal", "--endomorphism", "ghost"],
                             "no endomorphism named 'ghost'; available: mult_u"),
    "unknown-module": (["k0", "fixture:two_points_universal", "--expression", "[P] - [ghost]", "--q", "1"],
                       "no module named 'ghost'; available: L, M, P"),
    "no-endomorphisms": (["trace", "fixture:circle_tables", "--endomorphism", "ghost"],
                         "no endomorphism named 'ghost'; available: (none)"),
    "negative-q": (["chern", "fixture:two_points_universal", "--connection", "levi_L", "--q", "-1"],
                   "q must be nonnegative"),
    "one-connection": (["invariance", "fixture:two_points_universal", "--connection", "levi_L", "--q", "1"],
                       "invariance needs exactly two --connection names"),
    "unknown-fixture": (["validate", "fixture:ghost"],
                        "no fixture named 'ghost'; available: " + ", ".join(ALL_FIXTURES)),
    # Python reads no integer string of more than 4300 digits
    "k0-coefficient-past-the-digit-limit": (["k0", "fixture:two_points_universal", "--expression",
                                             "7" * 5000 + "[L] - [P]", "--q", "1"],
                                            "coefficient of [L] has 5000 digits, more than the limit of 4300"),
}


@pytest.mark.parametrize("argv, message", WORKSPACE_ERRORS.values(), ids=WORKSPACE_ERRORS.keys())
def test_main_reports_workspace_errors(argv, message):
    assert_error(argv, EXIT_INVALID, f"error (workspace): {message}\n", "workspace", message)


# a workspace holding a number past Python's limit of 4300 digits on integer
# strings: the JSON text written for the one gauge coefficient of twist_L, c.dc
PAST_THE_DIGIT_LIMIT = {
    "json-integer": ("7" * 5000, "a JSON integer has more than 4300 digits"),
    "decimal-exponent": ('"1e4301"', "connection 'twist_L' gauge[0][0]: coefficient is '1e4301', whose decimal "
                                     "exponent exceeds 4300 in magnitude, the limit on integer digits"),
    # a JSON number with a fraction reaches `scalar` as its text, which shows 60 characters of it
    "json-decimal": ("0." + "1" * 5000, "connection 'twist_L' gauge[0][0]: coefficient is '0." + "1" * 58 + "...', "
                                        "with more than 4300 digits in a row, the limit on integer digits"),
}


@pytest.mark.parametrize("coeff, message", PAST_THE_DIGIT_LIMIT.values(), ids=PAST_THE_DIGIT_LIMIT.keys())
def test_main_refuses_a_number_past_the_digit_limit(coeff, message, tmp_path):
    doc = base_doc()
    (term,), = next(c for c in doc["connections"] if c["name"] == "twist_L")["gauge"][0]
    assert (term["basis"], term["coeff"]) == ("c.dc", "1")
    term["coeff"] = "@"
    path = tmp_path / "past_the_limit.json"
    path.write_text(json.dumps(doc).replace('"@"', coeff), encoding="utf-8")
    assert_error(["validate", str(path)], EXIT_INVALID, f"error (workspace): {message}\n", "workspace", message)
    assert len(quiet_main(["validate", str(path), "--output", "machine"])[1]) < 1024


def test_main_reports_certification_and_computation(monkeypatch):
    import lincat.cli
    from lincat.errors import CertificationError, LincatError

    def raising(error):
        def fail(*args, **kwargs):
            raise error
        return fail

    monkeypatch.setattr(lincat.cli, "certify_cocycle", raising(CertificationError("no commutator decomposition")))
    assert_error(["chern", "fixture:two_points_universal", "--connection", "levi_L", "--q", "1", "--certify"],
                 EXIT_CERTIFICATION, "error (certification): no commutator decomposition\n",
                 "certification", "no commutator decomposition")
    monkeypatch.setattr(lincat.cli, "hs_trace", raising(LincatError("trace failed")))
    assert_error(["trace", "fixture:dual_numbers_universal", "--endomorphism", "mult_u"],
                 EXIT_INVALID, "error (computation): trace failed\n", "computation", "trace failed")
