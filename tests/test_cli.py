import json

import numpy as np
import pytest

from plap import build_graph, parse_graph, path_graph, serialize_graph
from plap.cheeger import EXACT_HK_CAP
from plap.cli import main
from plap.plaplacian import RESIDUAL_LIMIT

from .util import random_connected_graph

PATH4 = "n 4\n1 2 1.0\n2 3 1.0\n3 4 1.0\n"
PATH5 = "n 5\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n"
DISCONNECTED = "n 4\n1 2 1.0\n3 4 1.0\n"
TWO_TRIANGLES = "n 6\n1 2 1.0\n2 3 1.0\n1 3 1.0\n4 5 1.0\n5 6 1.0\n4 6 1.0\n"


@pytest.fixture
def path4(tmp_path):
    p = tmp_path / "path4.txt"
    p.write_text(PATH4)
    return str(p)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_p2(path4, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", path4, "--p", "2", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["method"] == "dense_p2"
    lams = [row["lambda"] for row in rep["spectrum"]]
    assert lams[1] == pytest.approx(0.585786, abs=1e-6)
    assert all(row["residual"] <= 1e-10 for row in rep["spectrum"])


def test_solve_path_uses_shooting(path4, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", path4, "--p", "1.5", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["method"] == "path_shooting"
    assert all(row["residual"] <= 1e-9 for row in rep["spectrum"])


def test_solve_notes_path_pairs_above_certificate_limit(tmp_path):
    # near p = 1 the path solver accepts pairs down to its conditioning
    # floor; solve reports them, with a note that certify would refuse them
    gfile = tmp_path / "path40.txt"
    gfile.write_text(serialize_graph(path_graph(40)))
    out = tmp_path / "out.json"
    assert main(["solve", str(gfile), "--p", "1.1", "--json", str(out)]) == 0
    rep = _load(out)
    above = [row for row in rep["spectrum"] if row["residual"] > RESIDUAL_LIMIT]
    assert above
    assert len(rep["notes"]) == 1
    note = rep["notes"][0]
    assert "conditioning-limited" in note and f"{RESIDUAL_LIMIT:g}" in note
    for row in above:
        assert f"k = {row['k']} residual {row['residual']:.3g}" in note
    for n in range(4, 13):
        gfile.write_text(serialize_graph(path_graph(n)))
        assert main(["solve", str(gfile), "--p", "1.1", "--json", str(out)]) == 0
        assert _load(out)["notes"] == []


def test_solve_general_graph_uses_continuation(tmp_path):
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 5, mu_mode="explicit")
    gfile = tmp_path / "g.txt"
    gfile.write_text(serialize_graph(g))
    out = tmp_path / "out.json"
    assert main(["solve", str(gfile), "--p", "1.5", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["method"] == "continuation"
    assert rep["input"]["mu_mode"] == "explicit"  # auto-detected from mu lines


def test_solve_disconnected_warns_exit_zero(tmp_path, capsys):
    gfile = tmp_path / "d.txt"
    gfile.write_text(DISCONNECTED)
    out = tmp_path / "out.json"
    assert main(["solve", str(gfile), "--p", "2", "--json", str(out)]) == 0
    assert "disconnected" in capsys.readouterr().err


def test_certify_disconnected_warns_once(tmp_path, capsys):
    # every exponent's dense p = 2 solve raises the same notice
    gfile = tmp_path / "d.txt"
    gfile.write_text(DISCONNECTED)
    main(["certify", str(gfile), "--json", str(tmp_path / "out.json")])
    err = capsys.readouterr().err.splitlines()
    assert sum("disconnected" in line for line in err) == 1


def test_disconnected_graph_beyond_p2(tmp_path):
    gfile = tmp_path / "t.txt"
    gfile.write_text(TWO_TRIANGLES)
    out = tmp_path / "out.json"
    assert main(["solve", str(gfile), "--p", "3", "--json", str(out)]) == 0
    assert main(["certify", str(gfile), "--json", str(out)]) == 1
    for run in _load(out)["runs"]:
        # the constant on one triangle has two weak domains: an honest
        # nodal failure at k = 1, the only one
        failed = [c["k"] for c in run["nodal"]["checks"] if not c["pass"]]
        assert failed == [1], run["p"]


def test_certify_edgeless_graphs(tmp_path):
    for n, code in ((1, 0), (2, 1)):
        gfile = tmp_path / f"e{n}.txt"
        gfile.write_text(f"n {n}\n")
        out = tmp_path / f"e{n}.json"
        assert main(["certify", str(gfile), "--p", "2",
                     "--json", str(out)]) == code
        assert all(c["pass"] and c["lower"] == 0.0
                   for c in _load(out)["runs"][0]["cheeger"])


def test_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n1 1 1.0\n")
    assert main(["solve", str(bad), "--p", "2"]) == 2
    assert main(["solve", str(tmp_path / "missing.txt"), "--p", "2"]) == 2


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("mu_line", ["", "mu 1 1.0\n"], ids=["unit", "mu-line"])
def test_absurd_vertex_count_is_a_parse_error(command, mu_line, tmp_path, capsys):
    graph = tmp_path / "huge.txt"
    graph.write_text(f"n {10 ** 15}\n{mu_line}1 2 1.0\n")
    assert main([command, str(graph)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: "), err


def test_unusable_paths_exit_2(path4, tmp_path, capsys):
    assert main(["certify", str(tmp_path)]) == 2
    assert main(["solve", path4, "--json", str(tmp_path)]) == 2
    assert main(["solve", path4, "--json", str(tmp_path / "out.json"),
                 "--csv", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("command,option", [("cheeger", "--seed"),
                                            ("certify", "--tol"),
                                            ("solve", "--steps"),
                                            ("certify", "--steps")])
def test_options_a_command_lacks_are_usage_errors(command, option, path4, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, path4, "--k", "2", option, "1"] if command == "cheeger"
             else [command, path4, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "certify", "cheeger"])
def test_non_finite_p_is_a_usage_error(command, value, path4, tmp_path, capsys):
    ffile = tmp_path / "f.txt"
    ffile.write_text("1.0\n0.0\n0.0\n0.0\n")
    extra = ["--k", "2", "--sweep", str(ffile)] if command == "cheeger" else []
    with pytest.raises(SystemExit) as exc:
        main([command, path4, *extra, "--p", value])
    assert exc.value.code == 2
    assert f"--p: must be a finite p > 1, got {value}" in capsys.readouterr().err


def test_cheeger_command(path4, tmp_path):
    out = tmp_path / "h.json"
    assert main(["cheeger", path4, "--k", "3", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["h"] == [0.0, 0.5, 1.0]
    assert rep["families"][1] == [[1, 2], [3, 4]]
    assert rep["parameters"]["exact"] is True


def test_cheeger_k_out_of_range(path4):
    assert main(["cheeger", path4, "--k", "5"]) == 2


def test_cheeger_past_cap_needs_approx(tmp_path, capsys):
    n = EXACT_HK_CAP + 1
    gfile = tmp_path / "g.txt"
    gfile.write_text(serialize_graph(
        random_connected_graph(np.random.default_rng(15), n)))
    assert main(["cheeger", str(gfile), "--k", "3"]) == 2
    assert f"exact enumeration cap {EXACT_HK_CAP}" in capsys.readouterr().err
    out = tmp_path / "h.json"
    assert main(["cheeger", str(gfile), "--k", "3", "--approx",
                 "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["parameters"]["exact"] is False
    assert rep["h"][0] == 0.0
    assert rep["families"][0] == [list(range(1, n + 1))]
    assert [len(fam) for fam in rep["families"]] == [1, 2, 3]
    for fam in rep["families"]:
        members = [v for subset in fam for v in subset]
        assert len(members) == len(set(members))


def _weighted_path_past_cap(tmp_path):
    n = EXACT_HK_CAP + 1
    gfile = tmp_path / "wpath.txt"
    gfile.write_text(serialize_graph(build_graph(
        n, [(i, i + 1, 1.0 + 0.1 * i) for i in range(1, n)])))
    return str(gfile)


def test_certify_past_cap_exits_two_before_solving(tmp_path, monkeypatch,
                                                   capsys):
    # the cap is known from n alone, so no spectrum is solved first
    import plap.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("certify solved a spectrum past the cap")

    monkeypatch.setattr(cli, "_spectrum_for", no_solve)
    assert main(["certify", _weighted_path_past_cap(tmp_path)]) == 2
    assert (f"error: exact enumeration capped at n <= {EXACT_HK_CAP}, "
            f"got n = {EXACT_HK_CAP + 1}") in capsys.readouterr().err


def test_solve_past_cap_skips_indicator_span_certification(tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", _weighted_path_past_cap(tmp_path), "--p", "3",
                 "--json", str(out)]) == 0
    notes = _load(out)["notes"]
    assert any(note.startswith("indicator-span certification skipped")
               for note in notes)


def test_cheeger_sweep(path4, tmp_path):
    ffile = tmp_path / "f.txt"
    ffile.write_text("1.0\n0.0\n0.0\n0.0\n")
    out = tmp_path / "h.json"
    assert main(["cheeger", path4, "--k", "2", "--sweep", str(ffile),
                 "--p", "2", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["sweep"]["subset"] == [1]
    assert rep["sweep"]["cut_ratio"] == pytest.approx(1.0)
    assert rep["sweep"]["bound"] == pytest.approx(2.0)
    assert rep["sweep"]["bound_holds"]


@pytest.mark.parametrize("values", ["1.0\n0.0\n0.0\n", "1\n0\n0\n0\n0\n"],
                         ids=["short", "long"])
def test_cheeger_sweep_wrong_length_exit_2(values, path4, tmp_path, capsys):
    ffile = tmp_path / "f.txt"
    ffile.write_text(values)
    assert main(["cheeger", path4, "--k", "2", "--sweep", str(ffile)]) == 2
    assert "expected 4" in capsys.readouterr().err


def test_certify_p5_all_pass(tmp_path):
    gfile = tmp_path / "p5.txt"
    gfile.write_text(PATH5)
    out = tmp_path / "r.json"
    code = main(["certify", str(gfile), "--p", "1.2", "--p", "1.5",
                 "--p", "2", "--p", "3", "--json", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["all_pass"] is True
    assert len(rep["runs"]) == 4
    for run in rep["runs"]:
        assert run["nodal"]["all_pass"]
        assert all(c["pass"] for c in run["cheeger"])


def test_certify_serialized_unit_path(tmp_path):
    # serialize_graph writes mu lines, so the file parses as explicit; the
    # path solver's spectrum must still certify against it
    gfile = tmp_path / "p5.txt"
    gfile.write_text(serialize_graph(path_graph(5)))
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--p", "1.5", "--json", str(out)]) == 0
    rep = _load(out)
    assert rep["input"]["mu_mode"] == "explicit"
    assert rep["runs"][0]["method"] == "path_shooting"
    assert rep["all_pass"] is True


def _unit_path_file(tmp_path, n):
    gfile = tmp_path / f"p{n}.txt"
    gfile.write_text(f"n {n}\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(1, n)))
    return str(gfile)


def test_certify_unit_path_11(tmp_path):
    # the k = 7, p = 1.1 shot ends 1.75e-8 off its boundary equation
    out = tmp_path / "r.json"
    assert main(["certify", _unit_path_file(tmp_path, 11), "--json", str(out)]) == 0
    assert _load(out)["all_pass"] is True


def test_certify_unit_path_7_near_p1(tmp_path):
    out = tmp_path / "r.json"
    assert main(["certify", _unit_path_file(tmp_path, 7), "--p", "1.05",
                 "--json", str(out)]) == 0
    assert _load(out)["all_pass"] is True


@pytest.mark.parametrize("n,p,k", [(12, "1.05", 8), (14, "1.05", 9),
                                   (12, "1.06", 8)], ids=["12", "14", "12-p1.06"])
def test_certify_conditioning_limited_pair_exits_three(tmp_path, capsys, n, p, k):
    # the path solver accepts these pairs through its conditioning floor,
    # but the certificates refuse residuals above RESIDUAL_LIMIT; at p = 1.06
    # pair k = 8 is near 4.7e-9, where every certificate flag would pass
    assert main(["certify", _unit_path_file(tmp_path, n), "--p", p]) == 3
    err = capsys.readouterr().err
    assert f"pair k = {k} residual" in err
    assert f"exceeds {RESIDUAL_LIMIT:g}" in err


def test_certify_names_failed_nodal_space_check(path4, tmp_path, monkeypatch,
                                                 capsys):
    from plap import nodal
    monkeypatch.setattr(nodal, "nodal_space_max_rq",
                        lambda g, pair, decomposition, normals: pair.lam + 1.0)
    out = tmp_path / "r.json"
    assert main(["certify", path4, "--p", "2", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAILED: certificates[p=2]" in err
    for k in range(1, 5):
        assert f"  nodal_space p=2 k={k} strong: " in err


def test_certify_names_failed_cheeger_and_operator_checks(path4, tmp_path,
                                                          monkeypatch, capsys):
    from dataclasses import replace

    import plap.cli as cli
    from plap import cheeger
    certify_cheeger = cheeger.certify_cheeger
    monkeypatch.setattr(
        cheeger, "certify_cheeger",
        lambda sp, hk=None: [replace(c, upper_ok=c.k != 2)
                             for c in certify_cheeger(sp, hk=hk)])
    monkeypatch.setattr(cli, "_operator_checks", lambda g, p, rng: {
        "sum_zero": False, "scale_invariant": True, "pass": False})
    out = tmp_path / "r.json"
    assert main(["certify", path4, "--p", "2", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAILED: certificates[p=2]" in err
    assert [line for line in err.splitlines() if line.startswith("  ")] == [
        f"  cheeger p=2 k=2: {_load(out)['runs'][0]['cheeger'][1]}",
        "  operator_checks p=2: {'sum_zero': False, 'scale_invariant': True, "
        "'pass': False}"]


def test_certify_without_json_writes_the_report_to_stdout(path4, tmp_path,
                                                          capsys):
    out = tmp_path / "r.json"
    assert main(["certify", path4, "--p", "2", "--json", str(out)]) == 0
    capsys.readouterr()
    assert main(["certify", path4, "--p", "2"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_one_vertex_graph(tmp_path):
    gfile = tmp_path / "one.txt"
    gfile.write_text("n 1\n")
    out = tmp_path / "c.json"
    assert main(["certify", str(gfile), "--json", str(out)]) == 0
    assert _load(out)["all_pass"] is True
    out = tmp_path / "s.json"
    assert main(["solve", str(gfile), "--p", "3", "--json", str(out)]) == 0
    rep = _load(out)
    assert [row["lambda"] for row in rep["spectrum"]] == [0.0]
    assert rep["notes"] == []


def test_certify_one_laplacian_p3_degree(tmp_path):
    gfile = tmp_path / "p3.txt"
    gfile.write_text("n 3\n1 2 1.0\n2 3 1.0\n")
    out = tmp_path / "r.json"
    code = main(["certify", str(gfile), "--mu", "degree", "--p", "2",
                 "--one-laplacian", "--json", str(out)])
    assert code == 0
    rep = _load(out)
    ol = rep["one_laplacian"]
    assert ol["nonconstant_eigenvalues"] == [["1", "1"]]
    assert ol["h2_is_eigenvalue"] is True
    assert ol["example"]["feasible"] is True
    assert ol["example"]["strong_domains"] == 3
    assert ol["example"]["weak_domains"] == 3


def test_certify_one_laplacian_example_goes_through_verifier(tmp_path,
                                                            monkeypatch):
    from plap import one_laplacian
    calls = []
    verify = one_laplacian.verify_1lap_eigenpair
    monkeypatch.setattr(one_laplacian, "verify_1lap_eigenpair",
                        lambda *a: calls.append(a) or verify(*a))
    gfile = tmp_path / "p3.txt"
    gfile.write_text("n 3\n1 2 1.0\n2 3 1.0\n")
    assert main(["certify", str(gfile), "--mu", "degree", "--p", "2",
                 "--one-laplacian", "--json", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_certify_one_laplacian_cap(tmp_path):
    gfile = tmp_path / "path.txt"
    gfile.write_text(serialize_graph(path_graph(EXACT_HK_CAP + 1)))
    assert main(["certify", str(gfile), "--p", "2", "--one-laplacian"]) == 2


def test_certify_one_laplacian_n12(tmp_path):
    # past the reach of an enumeration over weak orderings, below the cap
    gfile = tmp_path / "r12.txt"
    g = random_connected_graph(np.random.default_rng(0), 12, "unit")
    gfile.write_text(serialize_graph(g))
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--p", "2", "--one-laplacian",
                 "--json", str(out)]) == 0
    ol = _load(out)["one_laplacian"]
    assert ol["h2_is_eigenvalue"] is True and ol["example"]["feasible"] is True


def test_certify_one_laplacian_path8(tmp_path):
    gfile = tmp_path / "p8.txt"
    gfile.write_text(serialize_graph(path_graph(8)))
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--p", "2", "--one-laplacian",
                 "--json", str(out)]) == 0
    rep = _load(out)
    assert {c["name"]: c["pass"] for c in rep["checks"]}["one_laplacian"]
    assert rep["one_laplacian"]["h2_is_eigenvalue"] is True


def test_certify_one_laplacian_one_vertex(tmp_path):
    # no h_2 on one vertex: the section passes on its example alone
    gfile = tmp_path / "one.txt"
    gfile.write_text("n 1\n")
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--p", "2", "--one-laplacian",
                 "--json", str(out)]) == 0
    rep = _load(out)
    ol = rep["one_laplacian"]
    assert ol["h2"] is None and ol["h2_is_eigenvalue"] is False
    assert ol["eigenvalues"] == [["0", "0"]] and ol["example"] is None
    assert {c["name"]: c["pass"] for c in rep["checks"]}["one_laplacian"]


def test_certify_one_laplacian_disconnected_writes_report(tmp_path):
    # the enumeration runs on disconnected graphs, and the example's check
    # must too: the report is written and the exit code follows the checks
    gfile = tmp_path / "d.txt"
    gfile.write_text(DISCONNECTED)
    out = tmp_path / "r.json"
    code = main(["certify", str(gfile), "--p", "2", "--one-laplacian",
                 "--json", str(out)])
    rep = _load(out)
    ol = rep["one_laplacian"]
    assert ol["nonconstant_eigenvalues"] == [["0", "0"], ["1", "1"]]
    assert ol["example"]["lambda"] == "0"
    assert ol["example"]["feasible"] is True
    assert {c["name"]: c["pass"] for c in rep["checks"]}["one_laplacian"]
    assert code == (0 if rep["all_pass"] else 1)


def test_solve_csv_matches_json_spectrum(path4, tmp_path):
    out, csv = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(["solve", path4, "--p", "1.5", "--json", str(out),
                 "--csv", str(csv)]) == 0
    header, *lines = csv.read_text().splitlines()
    assert header == "p,k,lambda,residual"
    rows = [dict(zip(header.split(","), map(float, line.split(","))))
            for line in lines]
    assert rows == [{"p": 1.5, "k": row["k"], "lambda": row["lambda"],
                     "residual": row["residual"]}
                    for row in _load(out)["spectrum"]]


def test_certify_csv(tmp_path):
    gfile = tmp_path / "p4.txt"
    gfile.write_text(PATH4)
    csv = tmp_path / "spec.csv"
    assert main(["certify", str(gfile), "--p", "2", "--csv", str(csv),
                 "--json", str(tmp_path / "r.json")]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "p,k,lambda,residual,strong,weak"
    assert len(lines) == 5


def test_certify_deterministic(tmp_path):
    gfile = tmp_path / "p4.txt"
    gfile.write_text(PATH4)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", str(gfile), "--p", "1.5", "--p", "2",
                 "--seed", "7", "--json", str(out1)]) == 0
    assert main(["certify", str(gfile), "--p", "1.5", "--p", "2",
                 "--seed", "7", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_certify_calls_share_no_state(tmp_path):
    # a call on another graph in between changes nothing: the samples kept
    # between calls depend on the seed alone, and the n = 6 graph draws
    # longer streams that the path then reads a prefix of
    gfile, other = tmp_path / "p5.txt", tmp_path / "g.txt"
    gfile.write_text(PATH5)
    other.write_text(serialize_graph(random_connected_graph(
        np.random.default_rng(4), 6, "degree")))
    outs = [tmp_path / f"{i}.json" for i in range(3)]
    for graph, out in ((gfile, outs[0]), (other, outs[1]), (gfile, outs[2])):
        assert main(["certify", str(graph), "--p", "1.5", "--p", "2",
                     "--json", str(out)]) == 0
    assert outs[0].read_bytes() == outs[2].read_bytes()


@pytest.mark.parametrize("values, name", [(("2", "2"), "2"),
                                          (("1.5", "3", "1.5000001"), "1.5"),
                                          (("2", "2.0"), "2")])
def test_certify_repeated_p_is_a_usage_error(values, name, path4, capsys):
    # checks are named certificates[p=<p:g>], so two exponents that print
    # alike would be two checks of one name
    argv = ["certify", path4]
    for value in values:
        argv += ["--p", value]
    assert main(argv) == 2
    assert f"error: --p {name} is given more than once" in capsys.readouterr().err


def test_certify_failure_exits_one(tmp_path, monkeypatch):
    import plap.cli as cli
    gfile = tmp_path / "p4.txt"
    gfile.write_text(PATH4)
    monkeypatch.setattr(cli, "_kernel_inequality_check",
                        lambda rng, draws=20000: {"draws": draws,
                                                  "max_normalized_gap": 1.0,
                                                  "pass": False})
    code = main(["certify", str(gfile), "--p", "2",
                 "--json", str(tmp_path / "r.json")])
    assert code == 1


def test_solver_nonconvergence_exits_three(tmp_path, monkeypatch):
    import plap.cli as cli
    from plap.eigensolver import ContinuationError

    def boom(*args, **kwargs):
        raise ContinuationError("stalled")

    monkeypatch.setattr(cli, "_spectrum_for", boom)
    gfile = tmp_path / "p4.txt"
    gfile.write_text(PATH4)
    assert main(["solve", str(gfile), "--p", "1.5"]) == 3


def test_seed_residual_refusal_exits_three(tmp_path, capsys):
    # the dense p = 2 pair k = 1 of this stiff path misses the residual
    # limit; continuing from it is a solver refusal, not a usage error
    gfile = tmp_path / "stiff.txt"
    gfile.write_text("n 4\n1 2 100000000.0\n2 3 1.0\n3 4 3.0\n")
    assert main(["solve", str(gfile), "--p", "1.5"]) == 3
    assert "p = 1.5: p = 2 seed k = 1 residual" in capsys.readouterr().err
    assert main(["certify", str(gfile)]) == 3
    assert "p = 1.1: p = 2 seed k = 1 residual" in capsys.readouterr().err


def test_solve_p2_notes_pairs_above_the_limit(tmp_path):
    # the dense pairs of the stiff path miss the certificates' limit: solve
    # returns them with a note naming each, and certify refuses them
    gfile = tmp_path / "stiff.txt"
    gfile.write_text("n 4\n1 2 100000000.0\n2 3 1.0\n3 4 3.0\n")
    out = tmp_path / "out.json"
    assert main(["solve", str(gfile), "--p", "2", "--json", str(out)]) == 0
    rep = _load(out)
    assert len(rep["notes"]) == 1
    note = rep["notes"][0]
    assert note.startswith("dense p = 2 pairs above the certificates' "
                           f"{RESIDUAL_LIMIT:g} residual limit: ")
    for row in rep["spectrum"]:
        assert row["residual"] > RESIDUAL_LIMIT
        assert f"k = {row['k']} residual {row['residual']:.3g}" in note
    assert main(["certify", str(gfile), "--p", "2"]) == 3


def test_overflowing_unit_path_exits_three(tmp_path, capsys):
    # a shot's p-norm overflows: a solver error, not a usage error, and no
    # numpy overflow warnings
    assert main(["solve", _unit_path_file(tmp_path, 33), "--p", "1.01"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver error: p-norm of the shot for k = ")


def test_terminated_branch_without_repair_exits_three(tmp_path, monkeypatch,
                                                       capsys):
    # one branch dies and no repair start finds a pair: certify cannot
    # report n eigenpairs
    from plap import eigensolver
    from plap.eigensolver import ContinuationError
    cont = eigensolver._continue_with_diag

    def continued(g, seed, p):
        if seed.lam > 2.0:
            raise ContinuationError("stalled")
        return cont(g, seed, p)

    monkeypatch.setattr(eigensolver, "_continue_with_diag", continued)
    monkeypatch.setattr(eigensolver, "solve_from_guess", lambda g, f0, p: None)
    gfile = tmp_path / "w3.txt"
    gfile.write_text("n 3\n1 2 1.0\n2 3 2.0\n")
    assert main(["certify", str(gfile), "--p", "1.5"]) == 3
    err = capsys.readouterr().err
    assert ("solver error: only 2 of 3 eigenpairs could be computed at "
            "p = 1.5; branch from p=2 pair 3 terminated: stalled") in err


def test_certify_decomposes_each_pair_once(tmp_path, monkeypatch):
    # one strong decomposition per pair; a weak one only where f has a zero
    # vertex, which on the odd path are the even-k pairs (middle vertex)
    from plap import nodal
    calls = []
    for name in ("strong_nodal_domains", "weak_nodal_domains"):
        fn = getattr(nodal, name)
        monkeypatch.setattr(nodal, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    gfile = tmp_path / "p5.txt"
    gfile.write_text(PATH5)
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--json", str(out)]) == 0
    runs = _load(out)["runs"]
    assert len(runs) == 4
    assert calls.count("strong_nodal_domains") == 5 * len(runs)
    assert calls.count("weak_nodal_domains") == 2 * len(runs)
    assert len(calls) == 28


def test_certify_weak_space_matches_direct_sampling(tmp_path):
    # on the odd path the even-k eigenfunctions vanish at the middle vertex,
    # so their weak space differs from the strong one; the others reuse it
    import plap.cli as cli
    from plap import nodal
    gfile = tmp_path / "p5.txt"
    gfile.write_text(PATH5)
    out = tmp_path / "r.json"
    assert main(["certify", str(gfile), "--seed", "3", "--json", str(out)]) == 0
    g = parse_graph(PATH5, "unit")
    zero_free = with_zero = 0
    for run in _load(out)["runs"]:
        sp = cli._spectrum_for(g, run["p"])
        for i, (pair, entry) in enumerate(zip(sp.pairs, run["nodal_space"])):
            weak = nodal.weak_nodal_domains(g, pair.f)
            normals = nodal.nodal_space_normals(3 + i, weak.count)
            direct = nodal.nodal_space_max_rq(g, pair, weak, normals)
            assert entry["weak"]["max_rq"] == direct, (run["p"], i + 1)
            if weak.zero_set:
                with_zero += 1
            else:
                zero_free += 1
    assert zero_free and with_zero


def test_power_inequality_gap_reported_as_zero():
    # the kept suite of each seed is the one computed afresh
    import plap.cli as cli
    for seed in range(200):
        check = cli._kernel_inequality_check(seed)
        assert check == cli._power_inequality_suite(np.random.default_rng(seed))
        assert repr(check["max_normalized_gap"]) == "0.0", seed
        assert check["pass"] is True


@pytest.mark.parametrize("gap, reported, passed", [
    (-1e-15, "0.0", True), (2.5e-16, "0.0", True), (4e-13, "4e-13", True),
    (3e-12, "3e-12", False)])
def test_power_inequality_gap_rounding(monkeypatch, gap, reported, passed):
    # the report rounds to an absolute 1e-13; pass tests the unrounded gap
    import plap.cli as cli
    from plap import plaplacian
    monkeypatch.setattr(plaplacian, "ax_by_gap", lambda p, a, b, x, y: np.full(
        p.shape, gap) * (np.abs(a * x) + np.abs(b * y) + 1.0) ** p)
    check = cli._power_inequality_suite(np.random.default_rng(0))
    assert repr(check["max_normalized_gap"]) == reported
    assert check["pass"] is passed


def test_kept_samples_are_copies_or_read_only():
    import plap.cli as cli
    from plap import nodal
    check = cli._kernel_inequality_check(0)
    check["pass"] = False
    assert cli._kernel_inequality_check(0)["pass"] is True
    rows = cli._nodal_stream(2)
    assert cli._nodal_stream(2) is rows
    assert rows.shape == (EXACT_HK_CAP, nodal.NODAL_SPACE_SAMPLES)
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0
    with pytest.raises(ValueError):
        rows[:3][2, 0] = 1.0
    # the first m rows of the kept stream are a fresh draw of m rows
    for m in range(1, EXACT_HK_CAP + 1):
        assert np.array_equal(rows[:m], nodal.nodal_space_normals(2, m)), m


def test_kept_samples_stay_within_their_bound(tmp_path):
    import plap.cli as cli
    from plap.nodal import NODAL_SPACE_SAMPLES
    small, large = tmp_path / "p5.txt", tmp_path / "cap.txt"
    small.write_text(PATH5)
    large.write_text(serialize_graph(path_graph(EXACT_HK_CAP, "unit")))
    for seed in range(40):
        graph, n = (large, EXACT_HK_CAP) if seed % 10 == 0 else (small, 5)
        assert main(["certify", str(graph), "--p", "2", "--seed", str(seed),
                     "--json", str(tmp_path / "r.json")]) == 0
        # the call's suite and streams are kept: fetching them draws nothing
        suites, streams = cli._seed_suite.cache_info(), cli._nodal_stream.cache_info()
        cli._kernel_inequality_check(seed)
        for i in range(n):
            assert cli._nodal_stream(seed + i).nbytes == (
                EXACT_HK_CAP * NODAL_SPACE_SAMPLES * 8)
        assert cli._seed_suite.cache_info().misses == suites.misses
        assert cli._nodal_stream.cache_info().misses == streams.misses
        assert suites.currsize == 1
        assert streams.currsize <= streams.maxsize == EXACT_HK_CAP


def test_report_after_eviction_is_the_first_one(tmp_path):
    # seed 20 reads streams 20..33 and so evicts every stream of seed 0;
    # seed 0 then draws its streams again, and they are the ones it had
    import plap.cli as cli
    graph = tmp_path / "cap.txt"
    graph.write_text(serialize_graph(path_graph(EXACT_HK_CAP, "unit")))
    reports = []
    for seed in (0, 20, 0):
        out = tmp_path / f"r{len(reports)}.json"
        assert main(["certify", str(graph), "--seed", str(seed),
                     "--json", str(out)]) == 0
        reports.append(out.read_bytes())
        if seed == 20:
            misses = cli._nodal_stream.cache_info().misses
    assert cli._nodal_stream.cache_info().misses == misses + EXACT_HK_CAP
    assert reports[2] == reports[0]


def test_kept_work_arrays_stay_within_their_bound(tmp_path):
    # a complete graph at the cap has the most edges, a path at the cap the
    # largest nodal spaces; each kept array stops at the largest size asked
    from plap import kernels
    n = EXACT_HK_CAP
    complete = build_graph(n, [(u, v, 1.0) for u in range(1, n + 1)
                               for v in range(u + 1, n + 1)])
    for i, g in enumerate((complete, path_graph(n), complete, path_graph(5))):
        gfile = tmp_path / f"g{i}.txt"
        gfile.write_text(serialize_graph(g))
        assert main(["certify", str(gfile), "--p", "2",
                     "--json", str(tmp_path / "r.json")]) == 0
        # the ceiling stated beside `kernels.work`
        assert sum(buf.nbytes for buf in kernels._work.values()) <= 5.74e6
    # the pair tables the kernel keeps, at most those stated beside it
    tables = [*kernels._submasks(), *map(kernels._every_pair, range(1, 10))]
    assert sum(t.nbytes for t in tables) <= (0.16 + 0.34) * 2 ** 20


def _count_hk_and_repair_calls(monkeypatch):
    from plap import cheeger, eigensolver
    calls = {"hk": 0, "repair": 0, "families": 0}

    def counted(name, module, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted("multiway_cheeger_values", cheeger, "hk")
    counted("multiway_cheeger_all", cheeger, "families")
    counted("solve_from_guess", eigensolver, "repair")
    return calls


def test_certify_p2_builds_no_family(tmp_path, monkeypatch):
    # no p = 2 report field reads an optimal family
    from plap import cheeger
    calls = _count_hk_and_repair_calls(monkeypatch)
    reconstructed = []
    reconstruct = cheeger._reconstruct_family
    monkeypatch.setattr(cheeger, "_reconstruct_family",
                        lambda *a: reconstructed.append(a) or reconstruct(*a))
    gfile = tmp_path / "g.txt"
    gfile.write_text(serialize_graph(random_connected_graph(
        np.random.default_rng(3), 12, "degree")))
    assert main(["certify", str(gfile), "--p", "2", "--one-laplacian",
                 "--json", str(tmp_path / "r.json")]) == 0
    assert calls == {"hk": 1, "repair": 0, "families": 0}
    assert not reconstructed


def test_certify_repair_reuses_hk_families(tmp_path, monkeypatch):
    # found by a seeded search: at the default exponents the continued
    # spectra of this graph send the repair pass to seed from the optimal
    # h_k families at p = 1.1 and 1.5, and certify builds them once
    calls = _count_hk_and_repair_calls(monkeypatch)
    g = random_connected_graph(np.random.default_rng(24), 4)
    gfile = tmp_path / "g.txt"
    gfile.write_text(serialize_graph(g))
    assert main(["certify", str(gfile), "--json", str(tmp_path / "r.json")]) == 0
    assert calls["repair"] > 0
    assert calls["hk"] == 1
    assert calls["families"] == 1


def test_variational_spectrum_enumerates_hk_once(monkeypatch):
    # the graph of the test above: without hk and families the library call
    # enumerates the values once, and its repair pass builds the families
    from plap.eigensolver import variational_spectrum
    calls = _count_hk_and_repair_calls(monkeypatch)
    variational_spectrum(random_connected_graph(np.random.default_rng(24), 4), 1.1)
    assert calls["repair"] > 0
    assert calls["hk"] == 1
    assert calls["families"] == 1


@pytest.mark.parametrize("argv", [
    ["solve", "{g}", "--p", "1.5"],
    ["cheeger", "{g}", "--k", "2", "--sweep", "{f}"],
    ["certify", "{g}", "--mu", "degree", "--p", "2", "--one-laplacian"],
], ids=["solve", "cheeger-sweep", "certify-one-laplacian"])
def test_report_writer_matches_json_dumps(argv, path4, tmp_path, monkeypatch):
    import plap.cli as cli
    ffile = tmp_path / "f.txt"
    ffile.write_text("1.0\n0.0\n0.0\n0.0\n")
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda r, p: reports.append(r) or emit(r, p))
    out = tmp_path / "r.json"
    argv = [a.format(g=path4, f=ffile) for a in argv]
    assert main([*argv, "--json", str(out)]) == 0
    (report,) = reports
    text = json.dumps(report, indent=2)
    assert cli._to_json(report) == text
    assert out.read_text(encoding="utf-8") == text + "\n"


def test_report_writer_edge_document():
    from plap.cli import _to_json
    doc = {
        "text": "é中\U0001f600 \x00\x1f\x7f\"\\/\n\t\r",
        "é key\n": ["", "plain"],
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                   1.7976931348623157e308, 1e-09, 0.1, 1e16, 123456789.0],
        "ints": [0, -1, 2**64 + 1, -(2**70)],
        "tuples": (1, (2.5, ()), [()]),
        "empty": [[], {}, (), [[]], {"a": {}}],
        "nested": {"a": {"b": [[1], [{"c": [None]}]]}},
        "bools": [True, 1, False, 0, None, 1.0],
        "subclasses": [np.float64(1.5), np.float64("nan")],
    }
    for x in (doc, [], {}, (), 1.5, float("nan"), "s", None, True, False, 7):
        assert _to_json(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("bad", [
    {1: "int key"}, {"a": {None: 1}}, {(1, 2): 0},
    np.bool_(True), [np.int64(3)], {"a": object()}, {"a": {1.5, 2.5}},
])
def test_report_writer_refuses_non_json(bad):
    from plap.cli import _to_json
    with pytest.raises(TypeError):
        _to_json(bad)
