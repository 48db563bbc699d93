from __future__ import annotations

import json

import pytest

import leafspan.builder as builder_mod
from leafspan import (
    EngineDefect,
    Graph,
    choose_bases,
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
    assert payload["engine_runs"] == len(choose_bases(reduce_fully(h_graph(2))[0]))

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


def test_build_command_rejects_disconnected(tmp_path, capsys):
    path = _write(tmp_path, Graph(4, [(0, 1), (2, 3)]))
    code = main(["build", path])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{tmp}/missing"],
        ["build", "{tmp}"],
        ["build", "{tmp}/disconnected.txt"],
        ["oracle", "{tmp}/missing"],
        ["gen", "--family", "h"],
        ["gen", "--family", "c2"],
        ["gen", "--family", "random", "--n", "8", "--dmax", "0", "--seed", "1"],
        ["gen", "--family", "random", "--n", "8", "--dmin", "0", "--seed", "1"],
        ["sweep", "--sizes", "abc"],
        ["sweep", "--family", "h", "--n", "x"],
        ["sweep", "--sizes", "5..3"],
        ["sweep", "--sizes", "17", "--oracle-max", "20"],
    ],
    ids=lambda argv: " ".join(argv).replace("{tmp}", "TMP"),
)
def test_bad_input_is_one_error_line(argv, tmp_path, capsys):
    _write(tmp_path, Graph(4, [(0, 1), (2, 3)]), "disconnected.txt")
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


def test_oracle_command_budget(tmp_path, capsys):
    g = Graph(17, [(i, i + 1) for i in range(16)])
    path = _write(tmp_path, g)
    assert main(["oracle", path]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_small(capsys):
    code = main(
        ["sweep", "--sizes", "3..6", "--per-size", "4", "--seed", "7",
         "--oracle-max", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bound_violations=0" in out and "oracle_violations=0" in out


def test_sweep_empty(capsys):
    code = main(["sweep", "--sizes", "3..5", "--per-size", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "rows=0" in out


def test_sweep_family_h(capsys):
    code = main(["sweep", "--family", "h", "--n", "2..5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["rows"]) == 4
    assert all(r["alpha15"] == 30 for r in payload["rows"])


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


def test_gen_rejects_bad_family_args(capsys):
    assert main(["gen", "--family", "c2", "--n", "4"]) == 2
    capsys.readouterr()


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEAFSPAN_SEED", "99")
    assert main(["gen", "--family", "random", "--n", "6", "--dmin", "2",
                 "--dmax", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--family", "random", "--n", "6", "--dmin", "2",
                 "--dmax", "4", "--seed", "99"]) == 0
    second = capsys.readouterr().out
    assert first == second
