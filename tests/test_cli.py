import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph.cli import ParseError, ValidationError, load_config, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FIG = str(CONFIG_DIR / "l3m2_cuberoot.json")
CLASSICAL = str(CONFIG_DIR / "l1m1_classical.json")
L2M2 = str(CONFIG_DIR / "l2m2_interleaved.json")


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


IMPROPER_DOC = {
    "l": 3, "m": 2,
    "alpha": [2.7, 2.3, 0.7], "beta": [1.46, 4.24],
    "rho": [1.0013, 1.0412, 1.0401, 1.0239, 1.0158, 1.0146],
    "window": {"t_min": 0, "t_max": 2},
}


# ------------------------------------------------------------- load_config

def test_load_fig_config():
    cfg = load_config(FIG)
    assert (cfg.l, cfg.m) == (3, 2)
    assert cfg.schedule().tau == 4.0
    assert cfg.tolerance == 1e-9
    assert cfg.samples_per_piece == 8
    assert (cfg.t_min, cfg.t_max) == (0, 2)


def test_load_config_from_text_and_dict():
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2.5],
           "window": {"t_min": 0, "t_max": 1}}
    for source in (json.dumps(doc), doc):
        cfg = load_config(source)
        assert cfg.rho == (2.5,)
        assert cfg.tolerance == 1e-9  # default applied


def test_load_config_power_object():
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1],
           "rho": [{"base": 2, "num": 1, "den": 3}],
           "window": {"t_min": 0, "t_max": 0}}
    cfg = load_config(json.dumps(doc))
    assert abs(cfg.schedule().factors[0] - 2 ** (1 / 3)) < 1e-15


def test_load_config_parse_error():
    with pytest.raises(ParseError):
        load_config("{not json")
    with pytest.raises(ParseError):
        load_config("/nonexistent/path/config.json")
    with pytest.raises(ParseError):
        load_config("[1, 2]")


def test_load_config_field_errors(tmp_path):
    base = {"l": 2, "m": 1, "alpha": [1.0, 2.0], "beta": [3.0],
            "rho": [1.5, 1.5], "window": {"t_min": 0, "t_max": 1}}

    doc = dict(base); doc["rho"] = [1.5]
    with pytest.raises(ValidationError, match="rho"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["rho"] = [1.5, {"base": 2, "num": 1}]
    with pytest.raises(ValidationError, match=r"rho\[1\]\.den"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["rho"] = [1.5, 0.99]
    with pytest.raises(ValidationError, match=r"rho\[1\]"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["beta"] = [2.0]
    with pytest.raises(ValidationError, match="alpha/beta"):
        load_config(json.dumps(doc))

    doc = dict(base); del doc["window"]
    with pytest.raises(ValidationError, match="window"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["window"] = {"t_min": 2, "t_max": 0}
    with pytest.raises(ValidationError, match="window"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["tolerance"] = -1e-9
    with pytest.raises(ValidationError, match="tolerance"):
        load_config(json.dumps(doc))

    doc = dict(base); doc["l"] = "2"
    with pytest.raises(ValidationError, match="l"):
        load_config(json.dumps(doc))


# ------------------------------------------------------------------- build

def test_cmd_build_output(capsys):
    assert main(["build", CLASSICAL]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 1 and doc["d"] == 1
    assert doc["tau"] == 3.0
    assert doc["u"] == [-0.5] and doc["v"] == [0.5]
    assert "subgraphs" not in doc


def test_cmd_build_subgraphs(capsys):
    assert main(["build", L2M2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 2
    gammas = [sg["gamma"] for sg in doc["subgraphs"]]
    assert gammas == [-1.0, 1.0]


# ------------------------------------------------------------------- check

def test_cmd_check_fig_exits_zero(capsys):
    assert main(["check", FIG]) == 0
    out = capsys.readouterr().out
    assert "proper-direct: PASS" in out
    assert "proper-sufficient: NOT-SUFFICIENT" in out
    assert "all applicable checks passed" in out


@pytest.mark.parametrize("t_min", [-20, 10, 15])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_cmd_check_shifted_window_exits_zero(name, t_min, capsys):
    # P(tau q) = tau P(q): each config passes wherever its window starts;
    # the config goes in as JSON text
    doc = json.loads((CONFIG_DIR / name).read_text())
    w = doc["window"]
    doc["window"] = {"t_min": t_min, "t_max": t_min + w["t_max"] - w["t_min"]}
    assert main(["check", json.dumps(doc)]) == 0, capsys.readouterr().out


def test_cmd_check_improper_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "improper.json", IMPROPER_DOC)
    assert main(["check", cfg]) == 1
    out = capsys.readouterr().out
    assert "proper-nodes: FAIL" in out


def test_cmd_check_tolerance_flag(capsys):
    assert main(["check", FIG, "--tolerance", "1e-6"]) == 0
    assert "tol=1e-06" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1", "1e400"])
def test_cmd_check_bad_tolerance_flag_exits_two(value, capsys):
    assert main(["check", FIG, f"--tolerance={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: --tolerance must be finite and positive\n"


# JSON text of the tolerance field; Python's json reads NaN and Infinity,
# 1e400 as inf, and the long integer as an int too large for a float
@pytest.mark.parametrize("text", ["1e400", "Infinity", "-Infinity", "NaN", "0", "0.0", "-1",
                                  "1" + "0" * 400])
def test_bad_config_tolerance_exits_two(text, tmp_path, capsys):
    doc = json.loads(Path(FIG).read_text())
    doc["tolerance"] = "TOL"
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(doc).replace('"TOL"', text))
    with pytest.raises(ValidationError, match="tolerance"):
        load_config(str(cfg))
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input: tolerance: must be a finite positive number\n"


def test_main_calls_share_no_arguments(capsys):
    # the parser is built once per process; each call parses its own argv
    assert main(["check", FIG, "--tolerance", "1e-3"]) == 0
    assert "tol=0.001" in capsys.readouterr().out
    assert main(["check", FIG]) == 0
    out = capsys.readouterr().out
    assert "tol=1e-09" in out and "tol=0.001" not in out
    values = []
    for q in (1.0, 2.7):
        assert main(["eval", FIG, "--q", str(q)]) == 0
        values.append(capsys.readouterr().out)
    g = load_config(FIG).graph()
    assert values == [" ".join(f"{v:.12g}" for v in rg.evaluate(g, q)) + "\n"
                      for q in (1.0, 2.7)]


@pytest.mark.parametrize("command", ["build", "eval", "plot", "export"])
def test_tolerance_flag_only_on_check(command, tmp_path, capsys):
    out = str(tmp_path / "out")
    extra = {"eval": ["--q", "1.0"], "plot": ["--out", out], "export": ["--out", out]}
    with pytest.raises(SystemExit) as exc:
        main([command, FIG, *extra.get(command, []), "--tolerance", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


# -------------------------------------------------------------------- eval

def test_cmd_eval(capsys):
    assert main(["eval", FIG, "--q", "1.0"]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert len(values) == 5
    assert values == sorted(values)
    assert abs(sum(values)) <= 1e-9


def test_cmd_eval_scales_with_period(capsys):
    main(["eval", FIG, "--q", "2.7"])
    a = np.array([float(x) for x in capsys.readouterr().out.split()])
    main(["eval", FIG, "--q", str(2.7 * 4)])
    b = np.array([float(x) for x in capsys.readouterr().out.split()])
    assert np.allclose(b, 4 * a, rtol=1e-9)


def test_cmd_eval_negative_q(capsys):
    assert main(["eval", FIG, "--q", "-1"]) == 2
    assert "error: usage" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["inf", "nan", "-inf"])
def test_cmd_eval_non_finite_q(q, capsys):
    assert main(["eval", FIG, f"--q={q}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage")


def test_cmd_eval_largest_q(capsys):
    # the period index of q = 1.7e308 is the last one whose tau power fits
    assert main(["eval", CLASSICAL, "--q", "1.7e308"]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert len(values) == 2 and all(np.isfinite(values))


def test_cmd_eval_overflowing_component_is_quiet(tmp_path):
    # 4 * 1.7e308 does not fit a float, nor do the period-0 values of weights
    # 8e307 at q = 1e300: the components print as -inf/inf, and numpy's
    # overflow warning must not reach stderr
    cases = [({"l": 1, "m": 1, "alpha": [4], "beta": [4], "rho": [2],
               "window": {"t_min": 0, "t_max": 1}}, "1.7e308"),
             ({"l": 1, "m": 1, "alpha": [8e307], "beta": [8e307], "rho": [2],
               "window": {"t_min": 0, "t_max": 0}}, "1e300")]
    env = dict(os.environ)
    src = str(CONFIG_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for i, (doc, q) in enumerate(cases):
        proc = subprocess.run(
            [sys.executable, "-m", "regraph", "eval",
             write_config(tmp_path, f"big{i}.json", doc), "--q", q],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, doc
        assert proc.stdout.split() == ["-inf", "inf"], doc
        assert proc.stderr == "", doc


# -------------------------------------------------------------------- plot

def test_cmd_plot_svg_contract(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["plot", FIG, "--out", str(out)]) == 0
    svg = out.read_text()
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    cfg = load_config(FIG)
    g = cfg.graph()
    w = g.weights
    sys1 = rg.component_functions(g, cfg.t_min, cfg.t_max)
    # 2k chords per period plus the n - 2 protruding from the period before
    assert svg.count('class="seg seg-') == (cfg.t_max - cfg.t_min + 1) * 2 * w.k + (w.n - 2)
    assert svg.count('class="tick"') == len(sys1.grid)
    assert svg.count("node-a") >= g.weights.k
    assert svg.count("node-b") >= g.weights.k
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


# ------------------------------------------------------------------ export

def test_cmd_export_csv_contract(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["export", FIG, "--out", str(out)]) == 0
    raw = out.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "q,P_1,P_2,P_3,P_4,P_5"
    cfg = load_config(FIG)
    g = cfg.graph()
    sys1 = rg.component_functions(g, cfg.t_min, cfg.t_max)
    assert len(lines) == 1 + len(sys1.pieces) * (1 + cfg.samples_per_piece) + 1
    prev_q = -1.0
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        q, vals = cells[0], np.array(cells[1:])
        assert q > prev_q
        prev_q = q
        assert abs(vals.sum()) <= 1e-9
        # 12 significant digits round-trip against the system values
        assert np.allclose(vals, sys1.values_at(q), rtol=1e-9, atol=1e-9)


def test_cmd_export_sample_count(tmp_path):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [3.0],
           "window": {"t_min": 0, "t_max": 0}, "samples_per_piece": 2}
    cfg = write_config(tmp_path, "small.json", doc)
    out = tmp_path / "small.csv"
    assert main(["export", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    # 2 pieces, each contributing its breakpoint + 2 samples, plus terminus
    assert len(lines) == 1 + 2 * 3 + 1


def test_cmd_export_multiplies_before_dividing(tmp_path):
    # on this instance sampling at lo + (hi - lo) / (spp + 1) * s instead
    # changes a printed digit of one row
    doc = {"l": 1, "m": 2, "alpha": [4], "beta": [1, 3], "rho": [1.75, 3.0],
           "window": {"t_min": 0, "t_max": 0}}
    cfg = write_config(tmp_path, "digits.json", doc)
    out = tmp_path / "digits.csv"
    assert main(["export", cfg, "--out", str(out)]) == 0
    c = load_config(cfg)
    sys1 = rg.component_functions(c.graph(), c.t_min, c.t_max)
    lo, hi = sys1.breakpoints[:-1, None], sys1.breakpoints[1:, None]
    s = np.arange(c.samples_per_piece + 1)

    def csv(qs):
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([qs, sys1.values_at(qs)]), fmt="%.12g", delimiter=",")
        return buf.getvalue()

    rows = out.read_text().split("\n", 1)[1]
    assert rows == csv(np.append(lo + (hi - lo) * s / (s[-1] + 1), sys1.q_hi))
    assert rows != csv(np.append(lo + (hi - lo) / (s[-1] + 1) * s, sys1.q_hi))


def test_cmd_export_near_largest_float(tmp_path):
    # the window ends within a factor samples_per_piece + 1 of the largest float
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 1020, "t_max": 1022}}
    cfg = write_config(tmp_path, "edge.json", doc)
    out = tmp_path / "edge.csv"
    assert main(["export", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.isfinite(rows).all()
    assert (np.diff(rows[:, 0]) > 0).all()


# ------------------------------------------------------------- error paths

def test_bad_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: input:")

    missing = tmp_path / "missing.json"
    assert main(["build", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: input:")


def test_invalid_weights_exit_two(tmp_path, capsys):
    doc = {"l": 2, "m": 2, "alpha": [1.0, 2.0], "beta": [2.0, 2.0],
           "rho": [1.5, 1.5], "window": {"t_min": 0, "t_max": 1}}
    cfg = write_config(tmp_path, "unbalanced.json", doc)
    assert main(["build", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: input:" in err and "alpha/beta" in err


# JSON text of one weight on l = m = 1; Python's json reads NaN and Infinity,
# and 1e400 as inf
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("group", ["alpha", "beta"])
@pytest.mark.parametrize("command", ["build", "check"])
def test_non_finite_weights_exit_two(text, group, command, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}}
    doc[group] = ["W"]
    cfg = tmp_path / "weights.json"
    cfg.write_text(json.dumps(doc).replace('"W"', text))
    assert main([command, str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: input: alpha/beta: {group}[0] = ")
    assert captured.err.endswith(" is not finite\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["build", "check"])
def test_overflowing_weight_sums_exit_two(command, tmp_path, capsys):
    doc = {"l": 2, "m": 2, "alpha": [1e308, 1e308], "beta": [1e308, 1e308],
           "rho": [2, 2], "window": {"t_min": 0, "t_max": 0}}
    assert main([command, write_config(tmp_path, "big.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: alpha/beta: weight sums overflow a float: ")
    assert captured.err.count("\n") == 1


# numpy refuses both up front (7 PiB, and past its maximum array size),
# so the test allocates nothing
@pytest.mark.parametrize("spp", [10**15, 10**30])
def test_export_samples_beyond_memory_exit_two(spp, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}, "samples_per_piece": spp}
    cfg = write_config(tmp_path, "huge.json", doc)
    out = tmp_path / "huge.csv"
    assert main(["export", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: samples_per_piece: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("l, m, rho", [
    (1, 1, [1e160]),          # sigma_r overflows inside the node system
    (2, 1, [1e200, 1e200]),   # tau itself is not a finite float
    (1, 1, [{"base": 1e200, "num": 3, "den": 1}]),  # the factor itself overflows
    (2, 1, [{"base": 1e200, "num": 3, "den": 2}] * 2),  # tau snapped to 1e200 ** 3
])
def test_unrepresentable_schedule_exits_two(tmp_path, capsys, l, m, rho):
    doc = {"l": l, "m": m, "alpha": [1.0] * l, "beta": [float(l) / m] * m,
           "rho": rho, "window": {"t_min": 0, "t_max": 1}}
    cfg = write_config(tmp_path, "huge.json", doc)
    assert main(["build", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input:")


@pytest.mark.parametrize("window", [
    {"t_min": 0, "t_max": 200000},  # tau^(t_max + 1) overflows
    {"t_min": 2000, "t_max": 2000},
    {"t_min": -1200, "t_max": 0},  # tau^t_min vanishes
    {"t_min": -2000, "t_max": -1999},
    {"t_min": 1023, "t_max": 1023},  # tau^t_min fits, tau^(t_max + 1) = 2^1024 does not
])
@pytest.mark.parametrize("command", ["build", "check", "eval", "plot", "export"])
def test_out_of_range_window_exits_two(window, command, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2], "window": window}
    cfg = write_config(tmp_path, "far.json", doc)
    extra = {"eval": ["--q", "1"], "plot": ["--out", str(tmp_path / "g.svg")],
             "export": ["--out", str(tmp_path / "g.csv")]}.get(command, [])
    assert main([command, cfg, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: window:")
    with pytest.raises(ValidationError, match="^window:"):
        load_config(doc)


@pytest.mark.parametrize("window", [{"t_min": -1022, "t_max": -1022},
                                    {"t_min": 1020, "t_max": 1022}])
def test_window_at_float_range_edges_accepted(window, tmp_path, capsys):
    # tau = 2: 2^-1022 is the smallest normal float and 2^1023 the largest power
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2], "window": window}
    assert main(["check", write_config(tmp_path, "edge.json", doc)]) == 0
    assert capsys.readouterr().out.endswith("all applicable checks passed\n")


@pytest.mark.parametrize("command", ["build", "check", "eval", "plot", "export"])
def test_last_period_below_largest_float_accepted(command, tmp_path, capsys):
    # the window rule reads only [tau^t_min, tau^(t_max+1)]: one period
    # ending at 2^1022 runs in every subcommand, check included
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 1021, "t_max": 1021}}
    extra = {"eval": ["--q", "1"], "plot": ["--out", str(tmp_path / "g.svg")],
             "export": ["--out", str(tmp_path / "g.csv")]}.get(command, [])
    assert main([command, write_config(tmp_path, "top.json", doc), *extra]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, code", [
    ("build", 0), ("check", 2), ("eval", 0), ("plot", 2), ("export", 0)])
def test_check_closing_piece_past_largest_float(command, code, tmp_path, capsys):
    # tau = 3: the period 3^645 .. 3^646 fits, but the piece after it, which
    # check reads to close the period, ends at 2 * 3^646 and does not.  check
    # exits 2 with one error line, never a failed check or a traceback; plot
    # exits 2 because its padded ordinate range overflows
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [3],
           "window": {"t_min": 645, "t_max": 645}}
    extra = {"eval": ["--q", "1"], "plot": ["--out", str(tmp_path / "g.svg")],
             "export": ["--out", str(tmp_path / "g.csv")]}.get(command, [])
    assert main([command, write_config(tmp_path, "top.json", doc), *extra]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: input: window:")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == ""
    if command == "check":
        doc["window"] = {"t_min": 644, "t_max": 644}
        assert main(["check", write_config(tmp_path, "below.json", doc)]) == 0
        assert capsys.readouterr().out.endswith("all applicable checks passed\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight", [1, 3, 4])
@pytest.mark.parametrize("end", [1020, 1021, 1022, 1023])
@pytest.mark.parametrize("command", ["check", "export", "plot"])
def test_window_near_largest_float(weight, end, command, tmp_path, capsys):
    # windows load_config accepts, whose graph values may still overflow a
    # float: either a clean run with finite output or one error line (the
    # graph is proper, so a failing check would be spurious).  check and
    # export read the same piece table, so they accept the same windows;
    # up to end = 1022 all three subcommands do, and with weight 1 also
    # at end = 1023.
    doc = {"l": 1, "m": 1, "alpha": [weight], "beta": [weight], "rho": [2],
           "window": {"t_min": end - 3, "t_max": end - 1}}
    out = tmp_path / "g.out"
    extra = [] if command == "check" else ["--out", str(out)]
    code = main([command, write_config(tmp_path, "edge.json", doc), *extra])
    err = capsys.readouterr().err
    if end <= 1022 or command != "plot" or weight == 1:
        assert code == 0, err
    if code == 2:
        assert err.startswith("error: input: window:") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    if command == "export":
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
    if command == "plot":
        assert "nan" not in out.read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["check", "export"])
def test_weights_near_largest_float_exit_two(command, tmp_path, capsys):
    # the values of periods -3 .. -1 fit a float, but the line intercepts
    # of period 0, from which every window is tiled, do not: an error,
    # not a table missing a crossing
    doc = {"l": 1, "m": 1, "alpha": [8e307], "beta": [8e307], "rho": [2],
           "window": {"t_min": -3, "t_max": -1}}
    extra = [] if command == "check" else ["--out", str(tmp_path / "g.csv")]
    assert main([command, write_config(tmp_path, "huge.json", doc), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: window:") and captured.err.count("\n") == 1
    with pytest.raises(rg.ConstructError, match="^window: line intercepts in period 0"):
        rg.component_functions(load_config(doc).graph(), -3, -1)


def _console_script(name):
    """The target of ``name`` in ``[project.scripts]`` of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_entry_point(tmp_path):
    # Run the [project.scripts] entry the way pip's generated wrapper does,
    # so the wiring is tested from a checkout with nothing installed.
    name = "regraph"
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.argv[0] = {name!r}\n"
        f"target = EntryPoint({name!r}, {_console_script(name)!r},"
        " 'console_scripts').load()\n"
        "sys.exit(target())\n"
    )
    src = str(CONFIG_DIR.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def console(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    proc = console("eval", FIG, "--q", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 5

    # main's exit code must reach the process exit status
    proc = console("eval", FIG, "--q", "-1")
    assert proc.returncode == 2, proc.stderr
    assert "error: usage" in proc.stderr
