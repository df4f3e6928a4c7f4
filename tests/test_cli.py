import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from math import exp, floor, lcm, log
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
import regraph.cli as cli
from regraph.cli import ValidationError, cmd_export, load_config, main
from regraph.construct import LineTable

from conftest import window_grid

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
    assert cfg.schedule.tau == 4.0
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
    assert abs(cfg.schedule.factors[0] - 2 ** (1 / 3)) < 1e-15


def test_load_config_parse_error():
    with pytest.raises(ValidationError):
        load_config("{not json")
    with pytest.raises(ValidationError):
        load_config("/nonexistent/path/config.json")
    with pytest.raises(ValidationError, match="^config root must be an object$"):
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


# one schema fault per case: load_config raises ValidationError naming the
# field, and main prints it as the one error line
SCHEMA_FAULTS = {
    "l-bool": ("l", True, "l: wrong type bool"),
    "alpha-string": ("alpha", [1, "x"], "alpha[1]: expected a number"),
    "rho-bool": ("rho", [True, 1.5], "rho[0]: expected a number or power object"),
    "rho-string": ("rho", [1.5, "2"], "rho[1]: expected a number or power object"),
    "base-zero": ("rho", [1.5, {"base": 0, "num": 1, "den": 1}],
                  "rho[1].base: must be a positive number"),
    "num-float": ("rho", [1.5, {"base": 2, "num": 1.5, "den": 1}],
                  "rho[1].num: must be an integer"),
    "den-zero": ("rho", [1.5, {"base": 2, "num": 1, "den": 0}],
                 "rho[1].den: must be a positive integer"),
    "den-negative": ("rho", [1.5, {"base": 2, "num": 1, "den": -3}],
                     "rho[1].den: must be a positive integer"),
    "spp-negative": ("samples_per_piece", -1,
                     "samples_per_piece: must be a non-negative integer"),
    "spp-bool": ("samples_per_piece", True,
                 "samples_per_piece: must be a non-negative integer"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_FAULTS))
def test_schema_fault_exits_two(case, tmp_path, capsys):
    field, value, message = SCHEMA_FAULTS[case]
    doc = {"l": 2, "m": 1, "alpha": [1.0, 2.0], "beta": [3.0],
           "rho": [1.5, 1.5], "window": {"t_min": 0, "t_max": 1}, field: value}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_config(doc)
    assert main(["build", write_config(tmp_path, "fault.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input: {message}\n"


def test_config_file_root_not_object_exits_two(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="^config root must be an object$"):
        load_config(str(cfg))
    assert main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: input: config root must be an object\n"


# a dict config holds integers past the interpreter's 4300-digit limit for
# int-to-str conversion (JSON text stops at the parse); each one is named by
# its sign and digit count, never formatted in full
@pytest.mark.parametrize("field, value, message", [
    ("rho", [-10**5000], "rho[0]: factor -<5001 digits> must exceed 1"),
    ("window", {"t_min": -10**5000, "t_max": 0},
     "window: tau^-<5001 digits> .. tau^1 leave the float range (tau=2)"),
    ("window", {"t_min": 0, "t_max": 10**5000},
     "window: tau^0 .. tau^<5001 digits> leave the float range (tau=2)"),
    ("window", {"t_min": 10**5000, "t_max": -10**30},
     "window: t_min=<5001 digits> exceeds t_max=-<31 digits>"),
    ("l", 10**5000, "alpha/beta: expected <5001 digits> alpha entries, got 1"),
    ("m", 10**5000, "alpha/beta: expected <5001 digits> beta entries, got 1"),
    ("l", -10**5000, "alpha/beta: group sizes must be positive, got l=-<5001 digits>, m=1"),
], ids=["rho", "t_min", "t_max", "window-order", "l", "m", "l-negative"])
def test_dict_integer_past_digit_limit(field, value, message):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}, field: value}
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_config(doc)


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


def build_doc(i):
    """Instance i: l, m <= 5 (d > 1 in some), weights ~ U[0.2, 3] each zeroed
    with probability 0.3, balanced onto sum(alpha), and rho ~ U[1.05, 3] with
    each factor a power object base^(num/den) with probability 0.3."""
    rng = np.random.default_rng(4100 + i)
    l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    alpha, beta = rng.uniform(0.2, 3.0, size=l), rng.uniform(0.2, 3.0, size=m)
    alpha[rng.random(l) < 0.3] = 0.0
    beta[rng.random(m) < 0.3] = 0.0
    alpha[0], beta[-1] = max(alpha[0], 0.5), max(beta[-1], 0.5)  # neither all zero
    beta *= alpha.sum() / beta.sum()
    rho = [{"base": float(rng.uniform(1.5, 4.0)), "num": int(rng.integers(1, 3)),
            "den": int(rng.integers(1, 4))} if rng.random() < 0.3
           else float(rng.uniform(1.05, 3.0)) for _ in range(lcm(l, m))]
    return {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(), "rho": rho,
            "window": {"t_min": 0, "t_max": 0}}


def test_cmd_build_matches_solved_graph(capsys):
    # build prints the solved graph's u and v without deriving its line table: the
    # same document, byte for byte, as one written from build_graph's u and v
    covered = np.zeros(3, dtype=bool)  # d > 1, a zero weight, a power-form factor
    for i in range(60):
        doc = build_doc(i)
        assert main(["build", json.dumps(doc)]) == 0
        w = rg.validate_weights(doc["l"], doc["m"], doc["alpha"], doc["beta"])
        rho = [rg.PowerForm(**f) if isinstance(f, dict) else f for f in doc["rho"]]
        g = rg.build_graph(w, rg.ExpansionSchedule.from_factors(rho))
        want = {"k": w.k, "d": w.d, "tau": g.schedule.tau,
                "u": [float(x) for x in g.u], "v": [float(x) for x in g.v]}
        if w.d > 1:
            want["subgraphs"] = [{"f": f, "gamma": w.class_gamma(f)} for f in range(w.d)]
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n", doc
        covered |= [w.d > 1, 0.0 in w.alpha + w.beta, any(isinstance(f, dict) for f in doc["rho"])]
    assert covered.all()


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


def fig_text(**fields):
    """The JSON text of the FIG config with fields replaced."""
    return json.dumps(dict(json.loads(Path(FIG).read_text()), **fields))


def test_cmd_check_tolerance_flag(capsys):
    # the config's tolerance field is check's one tolerance; JSON text sets it per call
    assert main(["check", fig_text(tolerance=1e-6)]) == 0
    assert "tol=1e-06" in capsys.readouterr().out


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
    assert main(["check", fig_text(tolerance=1e-3)]) == 0
    assert "tol=0.001" in capsys.readouterr().out
    assert main(["check", fig_text(tolerance=1e-6)]) == 0
    out = capsys.readouterr().out
    assert "tol=1e-06" in out and "tol=0.001" not in out
    values = []
    for q in (1.0, 2.7):
        assert main(["eval", FIG, "--q", str(q)]) == 0
        values.append(capsys.readouterr().out)
    g = load_config(FIG).graph()
    assert values == [" ".join(f"{v:.12g}" for v in rg.evaluate(g, q)) + "\n"
                      for q in (1.0, 2.7)]


@pytest.mark.parametrize("command", ["build", "check", "eval", "plot", "export"])
def test_no_command_takes_tolerance_flag(command, tmp_path, capsys):
    # the config's tolerance field is the one source of check's tolerance
    out = str(tmp_path / "out")
    extra = {"eval": ["--q", "1.0"], "plot": ["--out", out], "export": ["--out", out]}
    with pytest.raises(SystemExit) as exc:
        main([command, FIG, *extra.get(command, []), "--tolerance", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "check", "eval", "plot", "export"])
def test_main_validates_and_schedules_once(command, tmp_path, monkeypatch, capsys):
    # load_config validates the weights and builds the schedule, and the
    # subcommand reads both from the config; build derives no line table
    calls = {"validate_weights": 0, "from_factors": 0, "LineTable.build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, rg.weights):
        monkeypatch.setattr(module, "validate_weights",
                            counted("validate_weights", rg.weights.validate_weights))
    schedule, table = rg.ExpansionSchedule.from_factors, LineTable.build
    monkeypatch.setattr(rg.ExpansionSchedule, "from_factors",
                        classmethod(counted("from_factors", schedule.__func__)))
    monkeypatch.setattr(LineTable, "build",
                        classmethod(counted("LineTable.build", table.__func__)))
    out = str(tmp_path / "out")
    extra = {"eval": ["--q", "1.0"], "plot": ["--out", out], "export": ["--out", out]}
    assert main([command, FIG, *extra.get(command, [])]) == 0
    capsys.readouterr()
    assert calls["validate_weights"] == 1 and calls["from_factors"] == 1
    assert calls["LineTable.build"] == (0 if command == "build" else 1)


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
    assert svg.count('class="tick"') == len(window_grid(g, sys1))
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
    assert len(lines) == 1 + (len(sys1.breakpoints) - 1) * (1 + cfg.samples_per_piece) + 1
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


# a JSON integer too large for a float in each field load_config converts to one
@pytest.mark.parametrize("field", ["alpha[0]", "beta[0]", "rho[0]", "rho[0].base"])
def test_oversized_integer_exits_two(field, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}}
    if field == "rho[0].base":
        doc["rho"] = [{"base": "BIG", "num": 1, "den": 1}]
    else:
        doc[field[:-3]] = ["BIG"]
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 400))
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}: "):
        load_config(str(cfg))
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input: {field}: integer too large for a float\n"


def test_power_underflow_exits_two(tmp_path, capsys):
    # num / den is beyond the float range; the power 2^(-10^400) is 0, not inf
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1],
           "rho": [{"base": 2, "num": "NUM", "den": 1}], "window": {"t_min": 0, "t_max": 0}}
    cfg = tmp_path / "power.json"
    cfg.write_text(json.dumps(doc).replace('"NUM"', "-1" + "0" * 400))
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input: rho[0]: power evaluates to 0.0, must exceed 1\n"


def test_integer_past_digit_limit_exits_two(tmp_path, capsys):
    # Python's json refuses integers of more than 4300 digits with a ValueError
    # (where the interpreter limits them); either way one error line
    doc = {"l": 1, "m": 1, "alpha": ["BIG"], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}}
    cfg = tmp_path / "digits.json"
    cfg.write_text(json.dumps(doc).replace('"BIG"', "1" * 5000))
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: ") and captured.err.count("\n") == 1


# the one error line gives an integer of more than 20 digits by its sign and
# digit count; one of 20 digits is printed whole
@pytest.mark.parametrize("field, big, message", [
    ("window.t_min", "-1" + "0" * 400,
     "window: tau^-<401 digits> .. tau^1 leave the float range (tau=2)"),
    ("rho[0]", "-1" + "0" * 400, "rho[0]: factor -<401 digits> must exceed 1"),
    ("rho[0]", "-1" + "0" * 19, "rho[0]: factor -1" + "0" * 19 + " must exceed 1"),
], ids=["t_min", "rho", "rho-20-digits"])
def test_huge_integer_shown_by_digit_count(field, big, message, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": 0, "t_max": 0}}
    if field == "rho[0]":
        doc["rho"] = ["BIG"]
    else:
        doc["window"]["t_min"] = "BIG"
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc).replace('"BIG"', big))
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input: {message}\n"


@pytest.mark.parametrize("command", ["build", "check"])
def test_overflowing_weight_sums_exit_two(command, tmp_path, capsys):
    doc = {"l": 2, "m": 2, "alpha": [1e308, 1e308], "beta": [1e308, 1e308],
           "rho": [2, 2], "window": {"t_min": 0, "t_max": 0}}
    assert main([command, write_config(tmp_path, "big.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input: alpha/beta: weight sums overflow a float: ")
    assert captured.err.count("\n") == 1


# both CSVs need more bytes (petabytes and more) than the output's file
# system holds, so export refuses them before it opens the file
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
    # integers of more than 20 digits are shown by their digit count
    assert not re.search(r"\d{21}", captured.err)
    if spp == 10**30:
        assert captured.err.startswith("error: input: samples_per_piece: <31 digits> samples"
                                       " per piece need at least <32 digits> bytes, more than")
    assert not out.exists()
    with pytest.raises(ValidationError, match="^samples_per_piece: "):
        cmd_export(load_config(cfg), str(out))
    assert not out.exists()


# the io line prints the OS text whole, digits in the path included
@pytest.mark.parametrize("folder", ["missing", "123456789012345678901"])
def test_plot_into_missing_directory_is_io_error(folder, tmp_path, capsys):
    out = tmp_path / folder / "fig.svg"
    assert main(["plot", FIG, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: io: [Errno 2] No such file or directory: '{out}'\n"


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
    ("build", 0), ("check", 0), ("eval", 0), ("plot", 0), ("export", 0)])
def test_check_closing_piece_past_largest_float(command, code, tmp_path, capsys):
    # tau = 3: the period 3^645 .. 3^646 fits, though the piece after it ends
    # at 2 * 3^646 past the largest float.  check reads the period only up to
    # its closing point 3^646, by the window rule it shares with export and
    # plot, so all three run; plot clips the chord that reaches past 3^646
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [3],
           "window": {"t_min": 645, "t_max": 645}}
    extra = {"eval": ["--q", "1"], "plot": ["--out", str(tmp_path / "g.svg")],
             "export": ["--out", str(tmp_path / "g.csv")]}.get(command, [])
    assert main([command, write_config(tmp_path, "top.json", doc), *extra]) == code
    assert capsys.readouterr().err == ""
    if command == "check":
        doc["window"] = {"t_min": 644, "t_max": 644}
        assert main(["check", write_config(tmp_path, "below.json", doc)]) == 0
        assert capsys.readouterr().out.endswith("all applicable checks passed\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight", [1, 3, 4])
@pytest.mark.parametrize("end", [1020, 1021, 1022, 1023])
@pytest.mark.parametrize("command", ["check", "export", "plot"])
def test_window_near_largest_float(weight, end, command, tmp_path, capsys):
    # windows load_config accepts, whose graph values come near the largest
    # float: check, export and plot share one window rule, and every one of
    # these windows passes it, so each runs cleanly (the graph is proper, so a
    # failing check would be spurious) and writes only finite values
    doc = {"l": 1, "m": 1, "alpha": [weight], "beta": [weight], "rho": [2],
           "window": {"t_min": end - 3, "t_max": end - 1}}
    out = tmp_path / "g.out"
    extra = [] if command == "check" else ["--out", str(out)]
    code = main([command, write_config(tmp_path, "edge.json", doc), *extra])
    err = capsys.readouterr().err
    assert code == 0 and err == "", err
    if command == "export":
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
    if command == "plot":
        assert not re.search("nan|inf", out.read_text())


def near_top_instances(count=60, seed=5):
    """default_rng(seed): l, m in 1..4, alpha ~ U[0.2, 3] with beta balanced
    onto sum(alpha), both times 10^U[0, 300], and rho ~ U[1.05, 3]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        l, m = (int(x) for x in rng.integers(1, 5, size=2))
        alpha, beta = rng.uniform(0.2, 3.0, size=l), rng.uniform(0.2, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        scale = 10 ** rng.uniform(0, 300)
        yield {"l": l, "m": m, "alpha": (alpha * scale).tolist(),
               "beta": (beta * scale).tolist(),
               "rho": rng.uniform(1.05, 3.0, size=lcm(l, m)).tolist()}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_and_export_accept_same_windows_near_largest_float(tmp_path, capsys):
    # one float-range rule for a window's values: on the single-period windows
    # t - 3 .. t + 1 around the last one t that export accepts, check runs
    # (exit 0 or 1) and plot exits 0 exactly where export does, export and
    # plot write only finite values, and a rejected window gives one error line
    out = tmp_path / "g.out"

    def run(command, doc, t):
        extra = [] if command == "check" else ["--out", str(out)]
        code = main([command, json.dumps(dict(doc, window={"t_min": t, "t_max": t})), *extra])
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: input: window:") and err.count("\n") == 1, err
        else:
            assert err == ""
        return code

    for doc in near_top_instances():
        g = load_config(dict(doc, window={"t_min": 0, "t_max": 0})).graph()
        tau, height = g.schedule.tau, max(np.abs(g.u).max(), np.abs(g.v).max())
        # period t reaches about tau^(t+1) * height, so start near the last fit
        t = floor(log(sys.float_info.max / height) / log(tau)) - 1
        while run("export", doc, t) == 0:
            t += 1
        while run("export", doc, t) != 0:
            t -= 1
        for window in range(t - 3, t + 2):
            exported = run("export", doc, window) == 0
            if exported:
                assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
            assert (run("check", doc, window) in (0, 1)) == exported, (doc, window)
            assert (run("plot", doc, window) == 0) == exported, (doc, window)
            if exported:
                assert not re.search("nan|inf", out.read_text()), (doc, window)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["check", "export", "plot"])
def test_weights_near_largest_float_exit_two(command, tmp_path, capsys):
    # the values of periods -3 .. -1 fit a float, but the line intercepts
    # of period 0, from which every window is tiled, do not: an error,
    # not a table missing a crossing, and plot applies the same rule
    doc = {"l": 1, "m": 1, "alpha": [8e307], "beta": [8e307], "rho": [2],
           "window": {"t_min": -3, "t_max": -1}}
    out = tmp_path / "g.out"
    extra = [] if command == "check" else ["--out", str(out)]
    assert main([command, write_config(tmp_path, "huge.json", doc), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: input: window: line intercepts in period 0"
                            " leave the float range\n")
    assert not out.exists()
    with pytest.raises(rg.ConstructError, match="^window: line intercepts in period 0"):
        rg.component_functions(load_config(doc).graph(), -3, -1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["check", "export", "plot"])
def test_weights_below_intercept_limit_run(command, tmp_path, capsys):
    # the accepted side of the case above: weights 6e307 keep the period-0
    # intercepts finite, and every value written is finite
    doc = {"l": 1, "m": 1, "alpha": [6e307], "beta": [6e307], "rho": [2],
           "window": {"t_min": -3, "t_max": -1}}
    out = tmp_path / "g.out"
    extra = [] if command == "check" else ["--out", str(out)]
    assert main([command, write_config(tmp_path, "big.json", doc), *extra]) == 0
    assert capsys.readouterr().err == ""
    if command != "check":
        assert not re.search("nan|inf", out.read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight, end, message", [
    (8, 1023, "values over tau^1020 .. tau^1023"),  # the closing row at 2^1023 overflows
    (8e300, 1000, "values over tau^997 .. tau^1000"),  # the last tile overflows
])
def test_export_overflowing_window_writes_nothing(weight, end, message, tmp_path, capsys):
    # every value of the window is checked before the output file is opened
    doc = {"l": 1, "m": 1, "alpha": [weight], "beta": [weight], "rho": [2],
           "window": {"t_min": end - 3, "t_max": end - 1}}
    out = tmp_path / "g.csv"
    assert main(["export", write_config(tmp_path, "edge.json", doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: input: window: component {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


# the crossing of two lines above a subinterval lies beyond the float range
FAR_CROSSING_DOC = {"l": 1, "m": 3, "alpha": [0.5], "beta": [0.5, 0, 1.390671161567e-309],
                    "rho": [1e10, 1e10, 1.2599210498948732],
                    "window": {"t_min": 0, "t_max": 0}}
# tau * sigma_r overflows for the chords of the period after the window's last
HUGE_FACTOR_DOC = {"l": 3, "m": 2, "alpha": [1, 1, 1], "beta": [1.5, 1.5],
                   "rho": [2, 2, 2, 2, 1e300, 2], "window": {"t_min": 0, "t_max": 0}}
# V - U = 9e307 - (-9e307) of proper-termwise overflows to +inf, its exact sign
TERMWISE_OVERFLOW_DOC = {"l": 1, "m": 1, "alpha": [1e307], "beta": [1e307], "rho": [4],
                         "window": {"t_min": 0, "t_max": 0}}
# system's component sums in plain units overflow to +-inf, and here to NaN
SUM_NAN_DOC = {"l": 5, "m": 3, "alpha": [5.3e299, 3.5e299, 6.9e299, 16.5e299, 0],
               "beta": [11.8e299, 8.7e299, 11.7e299],
               "rho": [3.5, 2.4, 4.1, 2.4, 4.7, 3.1, 4.7, 4.6, 3.5, 2.7, 3.6, 3.8, 4.1, 3.0, 1.8],
               "window": {"t_min": -4, "t_max": -2}}
SUM_OVERFLOW_DOC = {"l": 3, "m": 4, "alpha": [1e302, 2e302, 3e302], "beta": [1.5e302] * 4,
                    "rho": [3] * 12, "window": {"t_min": -1, "t_max": -1}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_export_crossing_past_largest_float_is_quiet(tmp_path, capsys):
    # a crossing past the float range lies in no subinterval: no warning
    out = tmp_path / "g.csv"
    assert main(["export", json.dumps(FAR_CROSSING_DOC), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plot_chord_past_largest_float_is_quiet(tmp_path, capsys):
    # the abscissa of a chord end past the window overflows; the chord is
    # clipped along its slope from its node inside the window
    out = tmp_path / "g.svg"
    assert main(["plot", json.dumps(HUGE_FACTOR_DOC), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert not re.search("nan|inf", out.read_text())


def test_overflowing_tau_power_named(tmp_path, capsys):
    # tau = 2e300 fits, tau^2 of the node system does not
    doc = {"l": 1, "m": 2, "alpha": [1], "beta": [0.5, 0.5], "rho": [1e300, 2],
           "window": {"t_min": 0, "t_max": 0}}
    assert main(["build", write_config(tmp_path, "tau.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: input: node system: tau^2 overflows a float"
                            " (tau=2e+300)\n")


def extreme_configs(count, seed=11):
    """default_rng(seed): l, m in 1..3; weights of magnitude 1, 1e300 or
    subnormal, the first of each kind nonzero, the others zero or subnormal
    at times, and beta balanced onto sum(alpha); factors from 1 + 1e-7 to
    1e300, some as power forms; single-period windows at t = 0 or within two
    periods of either end of the float range, with q about tau^t for eval."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        l, m = (int(x) for x in rng.integers(1, 4, size=2))
        scale = float(rng.choice([1.0, 1e300, 1e-310]))
        alpha, beta = (rng.uniform(0.2, 3.0, size=c) * np.append(scale, rng.choice(
            [scale, 0.0, 1e-310], size=c - 1, p=[0.7, 0.15, 0.15])) for c in (l, m))
        beta *= alpha.sum() / beta.sum()
        rho = []
        for _ in range(lcm(l, m)):
            kind = rng.choice(5, p=[0.2, 0.45, 0.1, 0.05, 0.2])
            if kind == 4:
                rho.append({"base": float(rng.choice([2.0, 3.0, 10.0, 1e300])),
                            "num": int(rng.integers(1, 4)), "den": int(rng.integers(1, 4))})
            else:
                rho.append(float([1 + 1e-7 * rng.uniform(1, 2), rng.uniform(1.05, 3),
                                  10 ** rng.uniform(0, 300), 1e300][kind]))
        cfg = {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(), "rho": rho,
               "samples_per_piece": 2}
        try:
            tau = load_config(dict(cfg, window={"t_min": 0, "t_max": 0})).schedule.tau
        except (ValidationError, rg.ConstructError):
            tau = 2.0
        end = int(rng.choice([-1, 0, 1]))
        t = {-1: int(log(sys.float_info.min) / log(tau)) + 1,
             0: 0, 1: int(log(sys.float_info.max) / log(tau)) - 1}[end]
        t += end * int(rng.integers(-2, 1))
        yield dict(cfg, window={"t_min": t, "t_max": t}), exp(min(t * log(tau), 709.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_contract_on_extreme_configs(tmp_path, capsys):
    # every subcommand exits 0 or 1 with nothing on stderr, or 2 with one
    # error line: never a traceback, a leaked numpy warning or a NaN margin
    pinned = [FAR_CROSSING_DOC, HUGE_FACTOR_DOC, TERMWISE_OVERFLOW_DOC, SUM_NAN_DOC,
              SUM_OVERFLOW_DOC]
    docs = [*((doc, 1.0) for doc in pinned), *extreme_configs(200)]
    codes = set()
    for doc, q in docs:
        text = json.dumps(doc)
        for command, extra in [("build", []), ("check", []), ("eval", ["--q", repr(q)]),
                               ("plot", ["--out", str(tmp_path / "g.svg")]),
                               ("export", ["--out", str(tmp_path / "g.csv")])]:
            try:
                code = main([command, text, *extra])
            except Exception as exc:
                raise AssertionError(f"{command} {text}") from exc
            captured = capsys.readouterr()
            if code == 2:
                assert re.fullmatch(r"error: [^\n]*\n", captured.err), (command, text)
            else:
                assert code in (0, 1) and captured.err == "", (command, text, captured.err)
            assert "margin=nan" not in captured.out, (command, text)
            codes.add((command, code))
    assert {(c, 0) for c in ("build", "check", "eval", "plot", "export")} <= codes
    assert ("export", 2) in codes and ("plot", 2) in codes


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc,name", [(TERMWISE_OVERFLOW_DOC, "proper-termwise"),
                                      (SUM_NAN_DOC, "system"), (SUM_OVERFLOW_DOC, "system")],
                         ids=["termwise-overflow", "sum-nan", "sum-overflow"])
def test_check_passes_near_largest_float(doc, name, capsys):
    # a slack past the float range reads +inf with its sign, and n component
    # values that each fit a float are summed in a power of two, so check
    # passes these graphs, whose windows plot and export accept
    cfg = load_config(doc)
    res = rg.run_all_checks(cfg.graph(), t_base=cfg.t_min).entry(name)
    assert res.status == "pass"
    assert res.margin == np.inf if name == "proper-termwise" else 0 <= res.margin < 1e-15
    assert main(["check", json.dumps(doc)]) == 0
    assert capsys.readouterr().err == ""


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
