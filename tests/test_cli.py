from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leafspan.builder as builder_mod
import leafspan.cli as cli_mod
import leafspan.oracle as oracle_mod
from leafspan import (
    EngineDefect,
    Graph,
    exact_u,
    g8,
    h_graph,
    reduce_fully,
    square_of_cycle,
)
from leafspan.cli import (
    main,
    parse_edge_list,
    parse_graph6,
    read_graph,
    render_edge_list,
)


def _write(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(render_edge_list(g))
    return str(p)


def test_edge_list_round_trip():
    for g in (square_of_cycle(6), h_graph(2), Graph(2, [(0, 1)])):
        assert parse_edge_list(render_edge_list(g)) == g


def test_edge_list_validation():
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n0 0\n")
    # range and self-loop checks are Graph's
    with pytest.raises(ValueError, match="out of range"):
        parse_edge_list("n 3\n0 3\n0 1\n")
    with pytest.raises(ValueError, match="self-loop"):
        parse_edge_list("n 3\n0 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_edge_list_comments_and_blanks():
    text = "# a comment\nn 3\n\n0 1  # trailing\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (1, 2)]


def _encode_graph6(g: Graph) -> str:
    # independent encoder used only to exercise the parser
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def test_graph6_known_value():
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert parse_graph6("C~") == k4


def test_graph6_round_trip():
    for g in (square_of_cycle(6), g8(), h_graph(2)):
        assert parse_graph6(_encode_graph6(g)) == g


def test_graph6_optional_header():
    g = square_of_cycle(6)
    assert parse_graph6(">>graph6<<" + _encode_graph6(g)) == g


def test_read_graph_sniffs_format(tmp_path):
    g = square_of_cycle(6)
    p1 = tmp_path / "a.txt"
    p1.write_text(render_edge_list(g))
    p2 = tmp_path / "b.g6"
    p2.write_text(_encode_graph6(g) + "\n")
    assert read_graph(str(p1)) == g
    assert read_graph(str(p2)) == g


def test_build_command_c6sq(tmp_path, capsys):
    path = _write(tmp_path, square_of_cycle(6))
    code = main(["build", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaves=4" in out and "cost=36/15" in out
    assert "alpha=24/15" in out and "exclusion=C6sq" in out


def test_build_command_h2(tmp_path, capsys):
    path = _write(tmp_path, h_graph(2))
    code = main(["build", path, "--log-steps"])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaves=6" in out and "cost=60/15" in out and "alpha=30/15" in out
    lines = out.strip().splitlines()
    # step log: base record first, then `label du db dt ds profit15` rows
    assert lines[1].split()[0].endswith("-base")
    assert all(len(line.split()) == 6 for line in lines[1:])


def test_build_command_k2(tmp_path, capsys):
    path = _write(tmp_path, Graph(2, [(0, 1)]))
    code = main(["build", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaves=2" in out and "cost=0/15" in out and "alpha=30/15" in out


def test_build_command_json(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, h_graph(2))
    code = main(["build", path, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["leaves"] == 6 and payload["alpha15"] == 30
    assert payload["bound_ok"] is True
    assert len(payload["tree_parents"]) == 12
    assert payload["defects"] == []
    assert payload["engine_runs"] == len(builder_mod.choose_bases(reduce_fully(h_graph(2))[0]))

    # a defect the driver survives still shows in the payload
    real = builder_mod._run_from_base
    calls = []

    def flaky(g, base, case):
        calls.append(case)
        if len(calls) == 1:
            raise EngineDefect("first base poisoned")
        return real(g, base, case)

    monkeypatch.setattr(builder_mod, "_run_from_base", flaky)
    assert main(["build", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["defects"]) == 1 and "poisoned" in payload["defects"][0]
    assert payload["engine_runs"] == len(calls)


def test_build_refuses_log_steps_with_json(tmp_path, capsys, monkeypatch):
    # refused before the input is read or built
    monkeypatch.setattr(cli_mod, "read_graph", None)
    monkeypatch.setattr(cli_mod, "build", None)
    for argv in (["--json", "--log-steps"], ["--log-steps", "--json"]):
        code = main(["build", _write(tmp_path, h_graph(2)), *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: --json does not read --log-steps: its steps are always in it\n"
        )


def test_build_command_rejects_disconnected(tmp_path, capsys):
    path = _write(tmp_path, Graph(4, [(0, 1), (2, 3)]))
    code = main(["build", path])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b\n", "not a graph6 line"),
        ("~\n", "graph6 inputs beyond 62 vertices are not supported"),
        ("E\n", "truncated graph6 line"),
        ("n 3\n0 1 2\n", "bad edge line: '0 1 2'"),
        ("# nothing here\n\n", "empty input"),
    ],
    ids=["not-graph6", "graph6-63", "graph6-truncated", "bad-edge-line", "comments-only"],
)
def test_malformed_file_is_one_error_line(text, message, tmp_path, capsys):
    (tmp_path / "g.txt").write_text(text)
    assert main(["build", str(tmp_path / "g.txt")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{tmp}/missing"],
        ["build", "{tmp}"],
        ["build", "{tmp}/disconnected.txt"],
        ["oracle", "{tmp}/missing"],
        ["oracle", "{tmp}/single.txt"],
        ["build", "{tmp}/huge.txt"],
        ["oracle", "{tmp}/huge.txt"],
        ["gen", "--family", "h"],
        ["gen", "--family", "c2"],
        ["gen", "--family", "random", "--n", "8", "--dmax", "0", "--seed", "1"],
        ["gen", "--family", "random", "--n", "8", "--dmin", "0", "--seed", "1"],
        ["sweep", "--sizes", "abc"],
        ["sweep", "--family", "h", "--sizes", "x"],
        ["sweep", "--sizes", "5..3"],
        ["sweep", "--sizes", "3..3", "--per-size", "-1"],
        ["sweep", "--sizes", "4..4", "--dmax", "0"],
        ["sweep", "--sizes", "4..4", "--dmin", "0"],
        ["sweep", "--sizes", "4..6", "--dmin", "5", "--dmax", "3", "--per-size", "3"],
        ["sweep", "--sizes", "3..3", "--dmin", "3", "--dmax", "4"],
        # options that only shape random graphs
        ["sweep", "--family", "h", "--sizes", "2..3", "--per-size", "0", "--dmin", "9"],
        ["sweep", "--family", "c2", "--seed", "3"],
        ["sweep", "--family", "h", "--dmax", "4"],
        ["gen", "--family", "h", "--n", "2", "--dmin", "9", "--seed", "4"],
        ["gen", "--family", "c2", "--n", "6", "--seed", "1"],
        ["gen", "--family", "g8", "--n", "99"],
        # usage errors: one line, not argparse's usage block
        ["sweep", "--oracle-max", "8"],
        ["sweep", "--bogus"],
        ["sweep", "--per-size", "x"],
        ["gen", "--family", "zz"],
        # sizes the families could not allocate are refused before they run
        ["gen", "--family", "random", "--n", "3000000000"],
        ["gen", "--family", "h", "--n", "100000000"],
        ["sweep", "--family", "c2", "--sizes", "100000000..100000000"],
        # too small a least size is refused before the header
        ["sweep", "--family", "c2", "--sizes", "3..9"],
    ],
    ids=lambda argv: " ".join(argv).replace("{tmp}", "TMP"),
)
def test_bad_input_is_one_error_line(argv, tmp_path, capsys):
    _write(tmp_path, Graph(4, [(0, 1), (2, 3)]), "disconnected.txt")
    _write(tmp_path, Graph(1), "single.txt")
    # a header far beyond its edges must not reach Graph's allocation
    (tmp_path / "huge.txt").write_text("n 1000000000000\n0 1\n")
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_oracle_command(tmp_path, capsys):
    for g, want in [
        (square_of_cycle(8), 5),
        (g8(), 5),
        (Graph(5, [(i, i + 1) for i in range(4)]), 2),
    ]:
        path = _write(tmp_path, g)
        code = main(["oracle", path])
        out = capsys.readouterr().out
        assert code == 0
        assert f"u={want}" in out
        parents = [int(x) for x in out.splitlines()[1].split("=")[1].split()]
        assert len(parents) == g.n and parents.count(-1) == 1


def test_oracle_command_searches_once(tmp_path, capsys, monkeypatch):
    searches = []
    search = oracle_mod._search_min_cds

    def counted(g):
        searches.append(g.n)
        return search(g)

    monkeypatch.setattr(oracle_mod, "_search_min_cds", counted)
    for g in (square_of_cycle(8), g8(), h_graph(2), Graph(3, [(0, 1), (1, 2)])):
        path = _write(tmp_path, g)
        searches.clear()
        assert main(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert searches == [g.n]
        searches.clear()
        assert out.splitlines()[0] == f"u={exact_u(g)}"


def test_oracle_command_budget(tmp_path, capsys):
    g = Graph(17, [(i, i + 1) for i in range(16)])
    path = _write(tmp_path, g)
    assert main(["oracle", path]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_small(capsys):
    code = main(["sweep", "--sizes", "3..6", "--per-size", "4", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound_violations=0" in out and "oracle_violations=0" in out


def test_sweep_records_a_refused_regime_once(capsys):
    # no 3-regular graph has 5 vertices, so every attempt fails alike
    argv = ["sweep", "--sizes", "5", "--dmin", "3", "--dmax", "3", "--per-size", "1"]
    failure = "n=5 (3,3): no graph with n=5, degrees in [3,3]"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "rows=0 " in out and "generation_failures=1" in out
    assert out.count(failure) == 1
    assert main([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [] and payload["generation_failures"] == [failure]


def test_sweep_fills_the_oracle_column_up_to_the_budget(capsys):
    code = main(["sweep", "--sizes", "12..12", "--per-size", "1", "--json"])
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert code == 0 and row["n"] == 12
    assert row["oracle"] is not None and row["builder_le_oracle"] is True


def test_sweep_streams_each_row_before_the_next_build(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    seen = []

    def counted(name, real):
        def call(*args):
            seen.append((name, out.getvalue().count("\n")))
            return real(*args)

        return call

    monkeypatch.setattr(cli_mod, "build", counted("build", cli_mod.build))
    make = counted("make", cli_mod.families.random_connected)
    monkeypatch.setattr(cli_mod.families, "random_connected", make)
    monkeypatch.setitem(cli_mod._NAMED, "h", counted("make", cli_mod._NAMED["h"]))
    # the least size of a named family is made before the header, to refuse
    # it early; a random sweep draws its first graph after the header
    for argv, first_made in [
        (["--sizes", "4..5", "--per-size", "2"], 1),
        (["--family", "h", "--sizes", "2..5"], 0),
    ]:
        seen.clear()
        out.seek(0)
        out.truncate()
        assert main(["sweep", *argv]) == 0
        # the k-th graph is made, then built, after the header and the
        # k - 1 rows before it
        want = [(name, k) for k in range(1, 5) for name in ("make", "build")]
        want[0] = ("make", first_made)
        assert seen == want, argv


def test_build_json_and_sweep_rows_agree(tmp_path, capsys, monkeypatch):
    graphs = []
    real = cli_mod.build

    def kept(g):
        graphs.append(g)
        return real(g)

    monkeypatch.setattr(cli_mod, "build", kept)
    keys = cli_mod._report_row(h_graph(2), real(h_graph(2))).keys()
    cases = [
        (["--family", "h", "--sizes", "2..2"], h_graph(2)),
        (["--sizes", "11..11", "--per-size", "1", "--seed", "5"], None),  # random
    ]
    for argv, want in cases:
        graphs.clear()
        assert main(["sweep", *argv, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        (g,) = graphs
        assert want is None or g == want
        assert main(["build", _write(tmp_path, g), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {k: payload[k] for k in keys} == {k: row[k] for k in keys}


def test_sweep_empty(capsys):
    code = main(["sweep", "--sizes", "3..5", "--per-size", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "rows=0" in out


def test_sweep_family_h(capsys):
    for argv in (["--sizes", "2..5"], []):
        code = main(["sweep", "--family", "h", *argv, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["n"] for r in payload["rows"]] == [12, 18, 24, 30]
        assert all(r["alpha15"] == 30 for r in payload["rows"])
    # c2 reads the same option, 6..8 by default
    assert main(["sweep", "--family", "c2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    kinds = [(r["n"], r["exclusion"]) for r in rows]
    assert kinds == [(6, "C6sq"), (7, None), (8, "C8sq")]
    assert main(["sweep", "--family", "c2", "--sizes", "9..10", "--json"]) == 0
    assert [r["n"] for r in json.loads(capsys.readouterr().out)["rows"]] == [9, 10]


def test_gen_commands(capsys):
    assert main(["gen", "--family", "c2", "--n", "6"]) == 0
    out = capsys.readouterr().out
    g = parse_edge_list(out)
    assert g.n == 6 and g.edge_count == 12

    assert main(["gen", "--family", "g8"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 8 and g.edge_count == 16

    assert main(["gen", "--family", "h", "--n", "3"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 18

    assert main(["gen", "--family", "random", "--n", "9", "--dmin", "3",
                 "--dmax", "4", "--seed", "5"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.is_connected() and all(3 <= g.degree(v) <= 4 for v in range(9))


def test_dmax_above_n_minus_one_is_clamped(capsys):
    assert main(["gen", "--family", "random", "--n", "4", "--dmin", "3",
                 "--dmax", "4"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 4 and g.edge_count == 6  # K4

    argv = ["sweep", "--dmin", "3", "--dmax", "4", "--per-size", "1", "--json"]
    assert main(argv + ["--sizes", "4..4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1 and payload["generation_failures"] == []
    assert main(argv + ["--sizes", "3..4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1
    assert payload["generation_failures"] == ["n=3: no feasible degree regime"]


def _cli_argv_env(*args):
    """argv and environment that run the CLI from this checkout in a fresh
    interpreter, with stdout buffered as it is by default."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, "-m", "leafspan.cli", *args], env


def test_closed_pipe_ends_quietly():
    # about 68 KB of rows, more than a pipe holds, so some write must come
    # after the close even if the rows were held back
    argv, env = _cli_argv_env("sweep", "--sizes", "3..16", "--per-size", "80")
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().split()[0] == b"n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{g}"],
        ["oracle", "{g}"],
        ["sweep", "--sizes", "4..5", "--per-size", "1"],
        ["gen", "--family", "c2", "--n", "50"],
    ],
    ids=lambda argv: argv[0],
)
def test_failed_write_is_one_error_line(argv, tmp_path):
    # every write to /dev/full fails with ENOSPC: an I/O error, not a bug
    path = _write(tmp_path, square_of_cycle(8))
    cli_argv, env = _cli_argv_env(*(a.format(g=path) for a in argv))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            cli_argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_engine_defect_escapes_main(command, tmp_path, monkeypatch):
    # a defect is a bug, not bad input: it keeps its traceback
    def defective(g):
        raise EngineDefect("poisoned")

    monkeypatch.setattr(cli_mod, "build", defective)
    argv = {"build": [_write(tmp_path, h_graph(2))], "sweep": ["--sizes", "4..4"]}
    with pytest.raises(EngineDefect, match="poisoned"):
        main([command, *argv[command]])


def test_gen_rejects_bad_family_args(capsys):
    assert main(["gen", "--family", "c2", "--n", "4"]) == 2
    capsys.readouterr()


def test_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("LEAFSPAN_SEED", "abc")
    assert main(["gen", "--family", "random", "--n", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--family", "random", "--n", "6", "--seed", "0"]) == 0
    assert capsys.readouterr().out == first
    assert main(["sweep", "--sizes", "4..4", "--per-size", "1"]) == 0
    capsys.readouterr()
