import json
import subprocess
import sys

import pytest

from dynreg.gallery import ab_star_semigroup, s3
from dynreg.jsonio import semigroup_to_json


def run_cli(args, **kw):
    # the CLI runs under the same -O level as the tests
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "dynreg.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


@pytest.fixture
def files(tmp_path):
    lang = tmp_path / "abstar.json"
    lang.write_text(json.dumps({"alphabet": "ab", "regex": "a*b*"}))
    # outside Q_LZG, so one k-ary tree serves it
    (tmp_path / "sgonly.json").write_text(
        json.dumps({"alphabet": "abcx", "regex": "(a+b+c)*bc*x(a+b+c)*"}))
    sg = tmp_path / "abse.json"
    sg.write_text(json.dumps(semigroup_to_json(ab_star_semigroup())))
    stream = tmp_path / "stream.txt"
    stream.write_text("Q\nU 2 b\nQ\nU 3 b\nQ\n")
    return tmp_path


def test_out_of_memory_is_exit_2_and_one_line(files, monkeypatch, capsys):
    # in process: a command that runs out of memory ends like bad input
    from dynreg import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_classify", exhausted)
    assert cli.main(["classify", str(files / "abstar.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: out of memory in classify")
    assert err.count("\n") == 1


def test_classify_ab_star(files):
    r = run_cli(["classify", str(files / "abstar.json")])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["class"] == "Q_LZG"
    assert out["bound"] == "O(1)"
    assert out["stability_index"] == 2


def test_classify_alphabet_with_letter_1(tmp_path):
    # the syntactic monoid names its identity "1", as it does the letter "1"
    p = tmp_path / "ends1.json"
    p.write_text(json.dumps({"alphabet": "01", "regex": "(0+1)*1"}))
    r = run_cli(["classify", str(p)])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["bound"] == "O(1)"
    stream = tmp_path / "ends1.txt"
    stream.write_text("Q\nU 2 0\nQ\n")
    r = run_cli(["run", str(p), "--word", "001", "--stream", str(stream), "--check"])
    assert r.returncode == 0, r.stderr
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert answers == ["true", "false"]


def test_classify_lu2(tmp_path):
    # the bound is the paper's; the plan names the engine the facade builds,
    # the k-ary tree, measured faster than the vEB engine up to n = 2^20
    p = tmp_path / "lu2.json"
    p.write_text(json.dumps({"alphabet": "abcx", "regex": "(a+b+c)*bc*x(a+b+c)*"}))
    r = run_cli(["classify", str(p)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["class"] == "Q_SG_ONLY"
    assert out["bound"] == "O(log log n)"
    assert out["engine_plan"] == "kary"
    from dynreg.engines import make_language_engine
    from dynreg.syntactic import analyze_regex

    m, sd, rep = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    assert make_language_engine(m, sd, rep, list("abcx")).kind == "language[kary]"


def test_run_worked_example(files):
    r = run_cli([
        "run", str(files / "abstar.json"),
        "--word", "aaaa", "--stream", str(files / "stream.txt"), "--check",
    ])
    assert r.returncode == 0
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert answers == ["true", "false", "true"]


def test_run_position_out_of_range(files, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("U 9 a\n")
    r = run_cli([
        "run", str(files / "abstar.json"),
        "--word", "aaaa", "--stream", str(bad),
    ])
    assert r.returncode == 2


def test_run_semigroup_stream(files, tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("Q\nU 1 b\nQ\nU 0 b\nQ\n")
    r = run_cli([
        "run", str(files / "abse.json"),
        "--word", "a a b b", "--stream", str(stream), "--check",
    ])
    assert r.returncode == 0
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert answers == ["ab", "ab", "b"]


def test_run_prefix_and_infix_stream(files, tmp_path):
    stream = tmp_path / "pi.txt"
    stream.write_text("P 2\nI 1 2\nQ\n")
    r = run_cli([
        "run", str(files / "abse.json"),
        "--word", "a a b b", "--stream", str(stream),
        "--engine", "kary", "--check",
    ])
    assert r.returncode == 0
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert answers == ["a", "ab", "ab"]


def test_run_empty_prefix_without_identity_answers_none(files, tmp_path):
    # the k-ary tree adjoins an identity, but abse has none to answer with
    stream = tmp_path / "p0.txt"
    stream.write_text("P 0\n")
    r = run_cli([
        "run", str(files / "abse.json"),
        "--word", "a a b b", "--stream", str(stream),
        "--engine", "kary", "--check",
    ])
    assert r.returncode == 0, r.stderr
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert answers == ["none"]


def test_run_infix_on_wrong_engine_is_input_error(files, tmp_path):
    stream = tmp_path / "bad_i.txt"
    stream.write_text("I 0 1\n")
    r = run_cli([
        "run", str(files / "abse.json"),
        "--word", "a a b b", "--stream", str(stream), "--engine", "sg",
    ])
    assert r.returncode == 2
    assert r.stderr == ("error: engine kind 'sg' does not answer I queries; "
                        "--engine kary answers them\n")


def test_run_prefix_under_auto_names_the_kary_engine(files, tmp_path):
    # auto runs abse, in LOCAL ZG, on the window engine, which answers Q alone
    stream = tmp_path / "bad_p.txt"
    stream.write_text("Q\nP 2\n")
    r = run_cli([
        "run", str(files / "abse.json"), "--word", "a a b b", "--stream", str(stream),
    ])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("error: engine kind 'windowstats' does not answer P queries; "
                        "--engine kary answers them\n")


def test_run_deterministic_output(files):
    args = [
        "run", str(files / "abstar.json"),
        "--word", "aaaa", "--stream", str(files / "stream.txt"), "--check",
    ]
    assert run_cli(args).stdout == run_cli(args).stdout


def test_algebra_report(files):
    r = run_cli(["algebra", str(files / "abse.json")])
    assert r.returncode == 0
    assert "SG: yes" in r.stdout
    assert "LOCAL(ZG): yes" in r.stdout
    assert "ZG: no" in r.stdout


def test_classify_round_trips_into_run_engine_kind(files):
    out = json.loads(run_cli(["classify", str(files / "abstar.json")]).stdout)
    assert out["engine_plan"] == "chunked-lzg"
    # a run over the same input selects an O(1) chunked engine
    from dynreg.engines import make_language_engine
    from dynreg.syntactic import analyze_regex

    m, sd, rep = analyze_regex("a*b*", "ab")
    eng = make_language_engine(m, sd, rep, list("aaaa"))
    assert rep.engine_plan == out["engine_plan"]
    assert eng.kind in ("language[window]", "language[zg]")


def test_bench_csv(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "cells": [
            {"engine": "zg", "gallery": "zg5", "ns": [64, 256], "ops": 50},
            {"engine": "kary", "gallery": "S3", "ns": [64], "ops": 50},
        ]
    }))
    out_file = tmp_path / "out.csv"
    r = run_cli(["bench", str(cfg), "--csv-out", str(out_file)])
    assert r.returncode == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# dynreg-bench")
    assert lines[1] == "n,engine,max_ops_update,max_probes_query"
    assert len(lines) == 5
    # determinism: same seed, same bytes
    r2 = run_cli(["bench", str(cfg)])
    r3 = run_cli(["bench", str(cfg)])
    assert r2.stdout == r3.stdout


def test_bench_builds_kary_under_auto_and_sg_by_name(tmp_path):
    # auto on a semigroup in SG but not in LOCAL ZG builds the k-ary tree, as
    # the language facade does; the vEB engine is still built when named
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"cells": [
        {"engine": engine, "gallery": "U2", "ns": [64], "ops": 20} for engine in ("auto", "sg")]}))
    r = run_cli(["bench", str(cfg)])
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in r.stdout.splitlines()[2:]]
    assert [row[1] for row in rows] == ["kary", "sg"]


@pytest.mark.parametrize("cell,field,accepted", [
    ({"engine": "zg", "gallery": "nope"}, "gallery",
     "S3, U1, U1xZ3, U2, Z2, Z2xzg5, Z3, Z4, Z5, Z6, abstar, asq0, nilnc, zg5"),
    ({"engine": "nope", "gallery": "zg5"}, "engine",
     "auto, zg, kary, sg, prefix, naive"),
    ({"engine": "language:nope"}, "language", "abstar, evenba"),
])
def test_bench_unknown_name_is_rejected_before_any_cell_runs(tmp_path, cell, field, accepted):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"cells": [
        {"engine": "zg", "gallery": "zg5", "ns": [64]}, dict(cell, ns=[64])]}))
    r = run_cli(["bench", str(cfg)])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: bench cell {field} 'nope' unknown; accepted: {accepted}\n"


def test_bad_input_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"alphabet": "ab", "regex": "a**)"}))
    r = run_cli(["classify", str(p)])
    assert r.returncode == 2


# (alphabet, delta, initial, finals), each malformed in one way
BAD_DFAS = {
    "target_past_last_state": ("ab", [[1, 2], [1, 1], [0, 3]], 0, [1]),
    "negative_target": ("ab", [[1, 2], [1, 1], [0, -1]], 0, [1]),
    "non_integer_target": ("ab", [[1, 2], [1, 1], [0, "2"]], 0, [1]),
    "short_row": ("ab", [[1, 2], [1], [0, 2]], 0, [1]),
    "initial_out_of_range": ("ab", [[1, 2], [1, 1], [0, 2]], 3, [1]),
    "final_out_of_range": ("ab", [[1, 2], [1, 1], [0, 2]], 0, [1, 7]),
    "repeated_letter": ("aa", [[1, 2], [1, 1], [0, 2]], 0, [1]),
}

# JSON of the wrong shape: file name -> (command, content)
BAD_SHAPES = {
    "top_level_list": ("classify", [{"alphabet": "ab", "regex": "a*"}]),
    "list_letter": ("classify", {"alphabet": ["a", ["b"]], "regex": "a*"}),
    "finals_not_a_list": ("classify", {"alphabet": "ab", "dfa": {
        "states": 2, "delta": [[0, 1], [1, 0]], "initial": 0, "finals": 1}}),
    "list_name": ("algebra", {"elements": ["a", ["b"]], "table": [[0, 1], [1, 1]]}),
}

# DFA JSON missing one field: the field -> content, for a test of its own
# whose cases are named by these keys
MISSING_DFA_FIELDS = {
    "finals": {"alphabet": "ab", "dfa": {"states": 2, "delta": [[0, 1], [1, 0]], "initial": 0}},
    "states": {"alphabet": "ab", "dfa": {"delta": [[0, 1], [1, 0]], "initial": 0, "finals": [0]}},
}

# a table, a table row or a regex of the wrong JSON type: name -> (command,
# content, error line), for a test of its own whose cases are named by these
# keys
TABLE_ERROR = "error: table must be a list of rows, each a list\n"
REGEX_ERROR = "error: 'regex' must be a string\n"
BAD_TYPES = {
    "table_number": ("algebra", {"table": 5}, TABLE_ERROR),
    "table_null": ("algebra", {"table": None}, TABLE_ERROR),
    "table_row_number": ("algebra", {"table": [0]}, TABLE_ERROR),
    "table_second_row_number": ("algebra", {"table": [[0, 0], 1]}, TABLE_ERROR),
    "table_entry_bool": ("algebra", {"table": [[0, 1], [True, 1]]},
                         "error: table entry True out of range\n"),
    "regex_number": ("classify", {"alphabet": "ab", "regex": 5}, REGEX_ERROR),
    "regex_null": ("classify", {"alphabet": "ab", "regex": None}, REGEX_ERROR),
    "regex_list": ("classify", {"alphabet": "ab", "regex": ["a"]}, REGEX_ERROR),
}

# malformed bench configs: file name -> content
BAD_BENCH = {
    "bench_top_level_list": [{"engine": "zg", "gallery": "zg5", "ns": [64]}],
    "bench_no_target": {"cells": [{"engine": "zg", "ns": [64]}]},
    "bench_ns_not_a_list": {"cells": [{"engine": "zg", "gallery": "zg5", "ns": 64}]},
    "bench_ns_zero": {"cells": [{"engine": "zg", "gallery": "zg5", "ns": [0]}]},
}


def _case(number, args, stream):
    """A bad-input case, its id its own number and its stream record:
    written with the case, not taken from its place in the list, so that
    inserting a case renames no other. A new case takes the next unused
    number; a new BAD_DFAS, BAD_SHAPES or BAD_BENCH entry needs its number
    written in the zip below, which fails at collection until it is."""
    return pytest.param(args, stream, id=f"args{number}-{stream}")


@pytest.mark.parametrize("args,stream", [
    # non-associative table: AssociativityViolation
    _case(0, ["algebra", "{dir}/nonassoc.json"], None),
    _case(1, ["algebra", "{dir}/abstar.json"], None),
    _case(2, ["run", "{dir}/nonassoc.json", "--word", "0"], "Q\n"),
    # update or initial letter outside the alphabet: RangeError
    _case(3, ["run", "{dir}/abstar.json", "--word", "aaaa"], "U 1 c\nQ\n"),
    _case(4, ["run", "{dir}/abstar.json", "--word", "abca"], "Q\n"),
    _case(5, ["run", "{dir}/abse.json", "--word", "a x"], "Q\n"),
    _case(6, ["run", "{dir}/abse.json", "--word", "a b"], "U 0 x\n"),
    _case(7, ["run", "{dir}/abse.json", "--word", "a b", "--engine", "kary"], "P 9\n"),
    _case(8, ["run", "{dir}/abse.json", "--word", "a b", "--engine", "kary"], "I 1 0\n"),
    _case(9, ["run", "{dir}/abse.json", "--word", "a b", "--engine", "zg"], "Q\n"),
    _case(10, ["run", "{dir}/abstar.json", "--word", "aaaa"], "X 1\n"),
    _case(11, ["classify", "{dir}/missing.json"], None),
    # an engine named for language input, which picks its own
    _case(12, ["run", "{dir}/abstar.json", "--word", "ab", "--engine", "naive"], "Q\n"),
    # malformed DFAs and semigroups: RangeError from the constructors
    *[_case(k, ["classify", f"{{dir}}/{name}.json"], None)
      for k, name in zip((13, 14, 15, 16, 17, 18, 19), BAD_DFAS, strict=True)],
    _case(20, ["run", "{dir}/repeated_names.json", "--word", "a a"], "Q\n"),
    _case(21, ["algebra", "{dir}/repeated_names.json"], None),
    # JSON of the wrong shape: RangeError from jsonio
    *[_case(k, [cmd, f"{{dir}}/{name}.json"], None)
      for k, (name, (cmd, _)) in zip((22, 23, 24, 25), BAD_SHAPES.items(), strict=True)],
    _case(26, ["run", "{dir}/top_level_list.json", "--word", "a"], "Q\n"),
    # stream records with the wrong number of fields
    _case(27, ["run", "{dir}/abstar.json", "--word", "aaaa"], "U 1\n"),
    _case(28, ["run", "{dir}/abstar.json", "--word", "aaaa"], "U 1 a b\n"),
    _case(29, ["run", "{dir}/abstar.json", "--word", "aaaa"], "Q 1\n"),
    _case(30, ["run", "{dir}/abse.json", "--word", "a b", "--engine", "kary"], "P\n"),
    _case(31, ["run", "{dir}/abse.json", "--word", "a b", "--engine", "kary"], "I 1\n"),
    # bench configs of the wrong shape, and an empty word: RangeError
    *[_case(k, ["bench", f"{{dir}}/{name}.json"], None)
      for k, name in zip((32, 33, 34, 35), BAD_BENCH, strict=True)],
    # a language outside Q_LZG: the k-ary engine's own letter and position
    # checks, and the initial word's
    _case(36, ["run", "{dir}/sgonly.json", "--word", "abxc"], "U 1 z\nQ\n"),
    _case(37, ["run", "{dir}/sgonly.json", "--word", "abxc"], "U 4 a\nQ\n"),
    _case(38, ["run", "{dir}/sgonly.json", "--word", "abzc"], "Q\n"),
    # P and I records under auto on abse, whose window engine answers Q alone
    _case(39, ["run", "{dir}/abse.json", "--word", "a b"], "P 1\n"),
    _case(40, ["run", "{dir}/abse.json", "--word", "a b"], "I 0 1\n"),
])
def test_bad_input_matrix_exit_code_2(files, args, stream):
    (files / "nonassoc.json").write_text(json.dumps({"table": [[1, 0], [1, 1]]}))
    for name, (alphabet, delta, initial, finals) in BAD_DFAS.items():
        dfa = {"states": len(delta), "delta": delta, "initial": initial, "finals": finals}
        (files / f"{name}.json").write_text(json.dumps({"alphabet": alphabet, "dfa": dfa}))
    (files / "repeated_names.json").write_text(
        json.dumps({"elements": ["a", "a"], "table": [[0, 1], [1, 1]]})
    )
    for name, (_, obj) in BAD_SHAPES.items():
        (files / f"{name}.json").write_text(json.dumps(obj))
    for name, obj in BAD_BENCH.items():
        (files / f"{name}.json").write_text(json.dumps(obj))
    args = [a.format(dir=files) for a in args]
    if stream is not None:
        (files / "bad_stream.txt").write_text(stream)
        args += ["--stream", str(files / "bad_stream.txt")]
    r = run_cli(args)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("name", list(BAD_TYPES))
def test_bad_json_type_exit_code_2(tmp_path, name):
    cmd, obj, error = BAD_TYPES[name]
    (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    r = run_cli([cmd, str(tmp_path / f"{name}.json")])
    assert r.returncode == 2, r.stderr
    assert r.stderr == error


@pytest.mark.parametrize("field", list(MISSING_DFA_FIELDS))
def test_missing_dfa_field_is_named(tmp_path, field):
    (tmp_path / "dfa.json").write_text(json.dumps(MISSING_DFA_FIELDS[field]))
    r = run_cli(["classify", str(tmp_path / "dfa.json")])
    assert r.returncode == 2, r.stderr
    assert r.stderr == f"error: 'dfa' needs the field '{field}'\n"


@pytest.mark.parametrize("word,stream", [("a x", "Q\n"), ("a b", "U 0 x\n")])
def test_unknown_element_name_is_named_with_the_elements(files, word, stream):
    # in the initial word and in a U record alike
    (files / "names.txt").write_text(stream)
    r = run_cli(["run", str(files / "abse.json"), "--word", word,
                 "--stream", str(files / "names.txt")])
    assert r.returncode == 2, r.stderr
    names = ", ".join(ab_star_semigroup().names)
    assert r.stderr == f"error: no element named 'x'; the elements are {names}\n"


@pytest.mark.parametrize("lang,record,tok", [
    ("abstar.json", "U x a", "x"),
    ("abse.json", "U 1.5 b", "1.5"),
    ("abse.json", "P two", "two"),
    ("abse.json", "I 0 y", "y"),
])
def test_non_integer_position_names_the_record(files, lang, record, tok):
    (files / "pos.txt").write_text(f"Q\n{record}\n")
    word = "ab" if lang == "abstar.json" else "a b"
    r = run_cli(["run", str(files / lang), "--word", word,
                 "--stream", str(files / "pos.txt")])
    assert r.returncode == 2, r.stderr
    assert r.stderr == (f"error: bad stream record {record!r}: {tok!r} is not an "
                        "integer position\n")


def test_classify_dfa_input_s3_language(tmp_path):
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    gens = ((1, 0, 2), (1, 2, 0))
    delta = [
        [idx[tuple(g[p[k]] for k in range(3))] for g in gens] for p in perms
    ]
    p = tmp_path / "s3.json"
    p.write_text(json.dumps({
        "alphabet": "ab",
        "dfa": {
            "states": 6,
            "delta": delta,
            "initial": idx[(0, 1, 2)],
            "finals": [idx[(0, 1, 2)]],
        },
    }))
    out = json.loads(run_cli(["classify", str(p)]).stdout)
    assert out["class"] == "OUTSIDE_Q_SG"
    assert out["bound"].startswith("Theta")
    assert out["engine_plan"] == "kary"
    assert out["witnesses"]["sg_violation"]
