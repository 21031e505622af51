import json
import math
import pathlib
import shlex
import warnings

import pytest

from planch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_gamma_command(tmp_path, capsys):
    code, out = run(capsys, "gamma", "--rep", "0*Sp(1)", "--q", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["ord_at_zero"] == 1
    assert abs(rep["result"]["regularized_value"][0] - 1.5) < 1e-12
    assert rep["field"] == {"p": 3, "f": 1, "psi_level": 0}


def test_gamma_wedge2_of_steinberg(tmp_path, capsys):
    code, out = run(capsys, "gamma", "--rep", "0*Sp(2)", "--r", "wedge2",
                    "--q", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["composed"] == {"atoms": [{"angle": "0", "sp": 1}]}


def test_gamma_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gamma", "--rep-file", str(bad), "--q", "3"]) == 2


def test_density_command(tmp_path, capsys):
    pt = write(tmp_path, "pt.json",
               {"blocks": [{"k": 1, "angle": "0", "twist": "0"}]})
    code, out = run(capsys, "density", "--point", pt, "--q", "3",
                    "--chi", "trivial")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["mu"][0] - 1.5) < 1e-12
    assert abs(rep["result"]["mu_chi"][0] - 1.0) < 1e-12
    assert rep["result"]["central_quotient_ok"] is True


def test_density_central_mismatch(tmp_path, capsys):
    pt = write(tmp_path, "pt.json",
               {"blocks": [{"k": 1, "angle": "1/2", "twist": "0"}]})
    assert main(["density", "--point", pt, "--q", "3",
                 "--chi", "trivial"]) == 3


def test_component_group_command(tmp_path, capsys):
    rep_file = write(tmp_path, "rep.json",
                     {"atoms": [{"angle": "0", "sp": 1},
                                {"angle": "1/2", "sp": 1}]})
    code, out = run(capsys, "component-group", "--rep-file", rep_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] | {"sPlus": 4, "s": 2, "fiberRatio": 1} == rep["result"]


def test_fd_rhs_precondition(capsys):
    assert main(["fd-rhs", "--rep", "1/3*Sp(1)", "--q", "3"]) == 3


def test_limit_verify_d1(tmp_path, capsys):
    triple = write(tmp_path, "t.json",
                   {"Io": [{"angle": "0", "sp": 1, "q": 1}]})
    out_file = tmp_path / "report.json"
    code = main(["limit-verify", "--triple", triple, "--q", "3",
                 "--s-seq", "0.1,4", "--tol", "1e-3",
                 "--report", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["result"]["passed"] is True
    assert rep["result"]["rel_discrepancy"] < 1e-10


def test_limit_verify_budget(tmp_path, capsys):
    triple = write(tmp_path, "t.json",
                   {"Io": [{"angle": "0", "sp": 1, "q": 1},
                           {"angle": "1/2", "sp": 1, "q": 1}]})
    code = main(["limit-verify", "--triple", triple, "--q", "3",
                 "--s-seq", "0.02,2", "--tol", "1e-3",
                 "--max-nodes", "2048", "--out", str(tmp_path / "r.json")])
    assert code == 4


D3 = {"In": [{"angle": "1/5", "sp": 1, "m": 1}],
      "Io": [{"angle": "0", "sp": 1, "q": 1}]}


def test_degenerate_limit_settings_exit_3(tmp_path, capsys):
    """An s-sequence that is empty or not from s0 > 0 down, an empty grid, a
    node budget below one node, a tolerance that is not finite and positive,
    a Gaussian hmax below 0 or a trig block size below 1 is refused before
    any integration."""
    triple = write(tmp_path, "t.json", D3)
    gauss = write(tmp_path, "g.json", {"kind": "gaussian", "hmax": -3})
    trig = write(tmp_path, "tr.json",
                 {"kind": "trig", "terms": [[1, 0, [0.1, 0]]]})
    for flags in (["--s-seq", "0.1,0"], ["--s-seq", "0.2,-1"],
                  ["--s-seq", "0,3"], ["--s-seq=-0.1,3"],
                  ["--s-seq", "nan,3"], ["--s-seq", "inf,3"],
                  ["--max-nodes", "0"], ["--grid", "-5"], ["--grid", "0"],
                  ["--tol", "0"], ["--tol=-1"], ["--tol", "nan"],
                  ["--tol", "inf"], ["--phi", gauss], ["--phi", trig]):
        assert main(["limit-verify", "--triple", triple, "--p", "3",
                     "--q", "3", *flags]) == 3, flags
        err = capsys.readouterr().err
        assert "precondition violated" in err and "must be" in err, flags


def test_multiplicity_below_one_exits_3(tmp_path, capsys):
    """An In, Is or Io multiplicity below 1 breaks a precondition of the
    triple, alone or beside a real atom."""
    for triple in ({"Io": [{"angle": "0", "sp": 1, "q": 0}]},
                   {"Io": [{"angle": "0", "sp": 1, "q": -2}]},
                   {"Is": [{"angle": "0", "sp": 2, "p": 0}]},
                   {"In": [{"angle": "1/3", "sp": 1, "m": 0}]},
                   {"Io": [{"angle": "0", "sp": 1, "q": 1},
                           {"angle": "1/2", "sp": 1, "q": 0}]}):
        path = write(tmp_path, "t.json", triple)
        assert main(["limit-verify", "--triple", path, "--p", "3",
                     "--q", "3"]) == 3, triple
        assert "multiplicities must be >= 1" in capsys.readouterr().err


def test_odd_symplectic_multiplicity_exits_3(tmp_path, capsys):
    """An odd Is multiplicity is refused where the triple is built."""
    path = write(tmp_path, "t.json", {"Is": [{"angle": "0", "sp": 2, "p": 1}]})
    assert main(["limit-verify", "--triple", path, "--q", "3"]) == 3
    assert "symplectic multiplicities must be even on the orthogonal locus" \
        in capsys.readouterr().err


def test_huge_test_function_exits_3_without_a_warning(tmp_path, capsys):
    """A finite Phi whose products leave floating range makes a left mean
    that is not finite: exit 3 with a message that names the range, and no
    numpy warning (one would raise here)."""
    triple = write(tmp_path, "t.json", {"Io": [{"angle": "0", "q": 1}]})
    phi = write(tmp_path, "p.json", {"kind": "constant", "c": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["limit-verify", "--triple", triple, "--p", "3",
                     "--q", "3", "--phi", phi]) == 3
    err = capsys.readouterr().err
    assert "beyond floating range" in err
    assert "RuntimeWarning" not in err


def test_one_node_grid_is_a_budget_exit(tmp_path, capsys):
    """A grid of one node per axis under a one-node budget is integrated,
    one node at each of the two s, and reported as a budget exit: it has no
    sub-grid, so its error is the whole value."""
    triple = write(tmp_path, "t.json", D3)
    out_file = tmp_path / "r.json"
    assert main(["limit-verify", "--triple", triple, "--p", "3", "--q", "3",
                 "--grid", "1", "--max-nodes", "1", "--s-seq", "0.2,2",
                 "--out", str(out_file)]) == 4
    rep = json.loads(out_file.read_text())["result"]
    assert rep["budget_exceeded"] is True and rep["nodes_used"] == 2
    for (re, im), err in zip(rep["lhs_values"], rep["lhs_errors"]):
        assert abs(err - abs(complex(re, im))) <= 1e-15 * err


def test_malformed_input_exits_2(tmp_path, capsys):
    no_m = write(tmp_path, "t.json", {"In": [{"angle": "1/3", "sp": 1}]})
    assert main(["limit-verify", "--triple", no_m, "--q", "3"]) == 2
    assert "input error" in capsys.readouterr().err
    listed = write(tmp_path, "l.json", [["1", "0"]])
    assert main(["charpoly", "--matrix", listed]) == 2
    pt = write(tmp_path, "pt.json", {"blocks": [{"k": 1, "angle": "0"}]})
    assert main(["density", "--point", pt, "--q", "3", "--chi", "[1]"]) == 2
    assert main(["density", "--point", pt, "--q", "3",
                 "--chi", '{"1": 1}']) == 2


def test_value_that_is_not_a_number_exits_2(tmp_path, capsys):
    """Text that does not parse as the number it stands for is malformed
    input, like a bad --rep; a number that breaks a precondition is not."""
    for angle in ("abc", "1/0"):
        triple = write(tmp_path, "t.json",
                       {"Io": [{"angle": angle, "sp": 1, "q": 1}]})
        assert main(["limit-verify", "--triple", triple, "--q", "3"]) == 2
        assert "input error" in capsys.readouterr().err
    # an int read from a number of another value, or from a boolean
    in_pair = write(tmp_path, "t.json",
                    {"In": [{"angle": "1/5", "sp": 1.5, "m": 1}]})
    assert main(["limit-verify", "--triple", in_pair, "--q", "3"]) == 2
    for sp in ("x", 2.9, True):
        rep = write(tmp_path, "rep.json",
                    {"atoms": [{"angle": "0", "sp": sp}]})
        assert main(["gamma", "--rep-file", rep, "--q", "3"]) == 2
    good = write(tmp_path, "good.json", {"Io": [{"angle": "0", "q": 1}]})
    for bad in ({"kind": "constant", "c": "1/2"},
                {"kind": "trig", "terms": [[1, 1]]},
                {"kind": "trig", "terms": [[1.5, 1, [0.1, 0]]]},
                {"kind": "constant", "c": math.nan},
                {"kind": "trig", "terms": [[1, 1, [math.nan, 0]]]},
                {"kind": "gaussian", "width": math.inf}):
        phi = write(tmp_path, "phi.json", bad)
        assert main(["limit-verify", "--triple", good, "--phi", phi,
                     "--q", "3"]) == 2
    assert main(["limit-verify", "--triple", good, "--q", "3",
                 "--s-seq", "0.2,3,9"]) == 2
    self_dual = write(tmp_path, "sd.json",
                      {"In": [{"angle": "1/2", "sp": 1, "m": 1}]})
    assert main(["limit-verify", "--triple", self_dual, "--q", "3"]) == 3
    assert "precondition violated" in capsys.readouterr().err

def test_internal_key_error_is_not_input_error(tmp_path, capsys, monkeypatch):
    import planch.limitcheck

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(planch.limitcheck, "verify", broken)
    triple = write(tmp_path, "t.json", {"Io": [{"angle": "0", "sp": 1, "q": 1}]})
    with pytest.raises(KeyError):
        main(["limit-verify", "--triple", triple, "--q", "3"])


def test_classify_and_charpoly(tmp_path, capsys):
    m = write(tmp_path, "B.json", {"matrix": [["-1", "1"], ["-1", "0"]]})
    code, out = run(capsys, "classify-form", "--matrix", m, "--p", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["kind"] == "gamma_t" and rep["result"]["t_class"] == 1
    code, out = run(capsys, "charpoly", "--matrix", m)
    assert json.loads(out)["result"]["coefficients_low_to_high"] == \
        ["1", "2", "1"]
    degen = write(tmp_path, "D.json", {"matrix": [["1", "0"], ["0", "0"]]})
    assert main(["classify-form", "--matrix", degen, "--p", "3"]) == 3


def test_empty_gram_matrix_exits_3(tmp_path, capsys):
    """An empty Gram matrix is refused like a non-square one."""
    for gram in ([], [[]]):
        m = write(tmp_path, "E.json", {"matrix": gram})
        assert main(["classify-form", "--p", "3", "--matrix", m]) == 3
        assert main(["charpoly", "--matrix", m]) == 3
        assert "precondition violated" in capsys.readouterr().err


def test_so_embed(tmp_path, capsys):
    code, out = run(capsys, "so-embed", "--d", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["dim"] == 5
    ubar = [[1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [1, 0, 1, 0, 0],
            [0, 1, -1, 1, 0],
            [-1, "-1/2", 0, 0, 1]]
    # rows built from ell = (0... construct via the embedding for correctness
    from planch.forms import build_odd_so, mat
    from fractions import Fraction as F
    emb = build_odd_so(2)
    g = emb.n_bar_element([1, 0], mat([[F(-1, 2), 1], [-1, 0]]))
    ufile = write(tmp_path, "u.json", [[str(x) for x in row] for row in g])
    code, out = run(capsys, "so-embed", "--d", "2", "--ubar", ufile)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["in_open_cell"] is True
    assert rep["result"]["m_tilde"] == rep["result"]["B_g"]


def test_formats_and_determinism(tmp_path, capsys):
    code, out1 = run(capsys, "gamma", "--rep", "0*Sp(3)", "--q", "3")
    code, out2 = run(capsys, "gamma", "--rep", "0*Sp(3)", "--q", "3")
    assert out1 == out2  # byte-identical reports
    code, csv_out = run(capsys, "gamma", "--rep", "0*Sp(3)", "--q", "3",
                        "--format", "csv")
    assert code == 0 and csv_out.count("\n") == 2
    code, tbl = run(capsys, "gamma", "--rep", "0*Sp(3)", "--q", "3",
                    "--format", "table")
    assert code == 0 and "ord_at_zero" in tbl


def test_fd_rhs_command(capsys):
    """Sp(3) at q = 3 is the Steinberg parameter of Sp(2): q^2 / (q + 1)."""
    code, out = run(capsys, "fd-rhs", "--rep", "0*Sp(3)", "--q", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "fd-rhs"
    assert rep["formula"] == "formal-degree-prediction"
    assert abs(rep["result"]["value"] - 9 / 4) < 1e-12


def test_gamma_at_a_value_and_at_a_pole(capsys):
    """--at s evaluates the factor, and reports a pole instead of failing:
    (1 - q^-s) / (1 - q^(s-1)) is 1 at s = 1/2 and has a pole at s = 1."""
    code, out = run(capsys, "gamma", "--rep", "0*Sp(1)", "--q", "3",
                    "--at", "0.5")
    assert code == 0
    at = json.loads(out)["result"]["value_at_s"]
    assert at["s"] == 0.5 and abs(complex(*at["value"]) - 1) < 1e-12
    code, out = run(capsys, "gamma", "--rep", "0*Sp(1)", "--q", "3",
                    "--at", "1")
    assert code == 0
    at = json.loads(out)["result"]["value_at_s"]
    assert at["s"] == 1.0 and "vanishes" in at["pole"] and "value" not in at


def test_csv_float_cells_keep_12_significant_digits(capsys):
    code, out = run(capsys, "fd-rhs", "--rep", "0*Sp(3)", "--q", "5",
                    "--format", "csv")
    assert code == 0
    keys, vals = (line.split(",") for line in out.splitlines())
    assert dict(zip(keys, vals))["result.value"] == "4.16666666667"  # 25/6


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    out_file = tmp_path / "fd.json"
    code, out = run(capsys, "fd-rhs", "--rep", "0*Sp(3)", "--q", "3",
                    "--out", str(out_file))
    assert code == 0 and out == ""
    rep = json.loads(out_file.read_text())
    assert rep["command"] == "fd-rhs" and rep["result"]["value"] == 2.25


def readme_cli_examples():
    """The commands of README's CLI block, continuation lines joined."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("planch ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every command in README's CLI block exits 0 on the fixtures it names,
    so the README and the parser cannot drift apart unnoticed."""
    from fractions import Fraction as F

    from planch.forms import build_odd_so, mat

    monkeypatch.chdir(tmp_path)
    write(tmp_path, "point.json",
          {"blocks": [{"k": 1, "angle": "0", "twist": "0"}]})
    write(tmp_path, "triple.json", {"Io": [{"angle": "0", "sp": 1, "q": 1}]})
    write(tmp_path, "B.json", {"matrix": [["-1", "1"], ["-1", "0"]]})
    g = build_odd_so(2).n_bar_element([1, 0], mat([[F(-1, 2), 1], [-1, 0]]))
    write(tmp_path, "U.json", [[str(x) for x in row] for row in g])
    examples = readme_cli_examples()
    assert {argv[0] for argv in examples} == {
        "gamma", "density", "component-group", "fd-rhs", "limit-verify",
        "classify-form", "charpoly", "so-embed"}
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert json.loads((tmp_path / "out.json").read_text())["result"]["passed"]
