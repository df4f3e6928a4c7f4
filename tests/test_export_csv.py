"""`export`'s CSV writer: Python's own %.12g, byte for byte.

The writer formats whole arrays at once; every value it prints must equal
b"%.12g" % value, and every file `export` writes must equal what
np.savetxt(fmt="%.12g") writes for the same table.
"""

import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from regraph import cli
from regraph.cli import load_config, main
from regraph.graph import component_functions

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def reference_csv(table, header):
    rows = (",".join("%.12g" % v for v in row) for row in table)
    return "".join(f"{line}\n" for line in (header, *rows)).encode()


def written(table, header="h"):
    """header and table as %.12g CSV, from the writer's one formatting call."""
    separators = np.full(table.shape, ord(","), dtype=np.uint8)
    separators[:, -1] = ord("\n")
    return f"{header}\n".encode() + cli._csv_text(table.ravel(), separators.ravel()).tobytes()


def decades(rng, per_decade=8):
    """Values with every decimal exponent floor(log10|x|) from -324 to 308."""
    out = []
    for e in range(-324, 309):
        # the largest float is 1.797e308
        for mantissa in rng.uniform(1, 1.7 if e == 308 else 10, per_decade).tolist():
            x = float(f"{mantissa!r}e{e}")
            if 0 < x < math.inf:
                out.append(x)
    return np.array(out)


def near_powers_of_ten():
    """1e-5 .. 1e12 and the floats one and two steps on either side."""
    p = np.array([float(f"1e{k}") for k in range(-5, 13)])
    down, up = np.nextafter(p, 0), np.nextafter(p, np.inf)
    return np.concatenate([np.nextafter(down, 0), down, p, up, np.nextafter(up, np.inf)])


def near_ties(rng, count=4000):
    """The floats nearest d.ddddddddddd5 x 10^e, halfway between two 12-digit
    decimals, most of them where export prints fixed notation."""
    digits = rng.integers(10**11, 10**12, count)
    e = np.where(np.arange(count) % 4 == 0, rng.integers(-300, 300, count),
                 rng.integers(-6, 13, count))
    ties = [float(f"{d // 10**11}.{d % 10**11:011d}5e{x}") for d, x in zip(digits, e)]
    return np.array([123456789012.5, 0.1234567890125, 999999999999.5, 9.999999999995, *ties])


def special_values():
    tiny = 5e-324
    return np.array([0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-310, sys.float_info.min,
                     np.nextafter(sys.float_info.min, 0), sys.float_info.max,
                     -sys.float_info.max, math.inf, -math.inf, math.nan, -math.nan])


def random_bits(rng, count=60_000):
    """Uniform 64-bit patterns: every binary exponent, both signs, subnormals, inf, nan."""
    return rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)


def test_values_cover_the_float_range():
    rng = np.random.default_rng(0)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(np.abs(decades(rng))))
    assert set(e.astype(int)) == set(range(-324, 309))


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_writer_matches_percent_g(cols):
    rng = np.random.default_rng(1300 + cols)
    x = np.concatenate([special_values(), near_powers_of_ten(), near_ties(rng),
                        -near_ties(rng), decades(rng), random_bits(rng)])
    rng.shuffle(x)
    x = np.append(x, np.zeros(-len(x) % cols))
    # well over one export block
    table = x.reshape(-1, cols)
    assert table.size > 4 * cli._CSV_CHUNK
    got, want = written(table).split(b"\n"), reference_csv(table, "h").split(b"\n")
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:5]


def test_writer_one_row_and_header():
    table = np.array([[1.0, -0.5, 1e22, 1e-5, 0.0001]])
    assert written(table, "q,P_1") == b"q,P_1\n1,-0.5,1e+22,1e-05,0.0001\n"


# ------------------------------------------------------ export, end to end

def reference_export(config):
    """export's CSV built the whole-table way: the window's piece table,
    every sample's values read from it by values_at, and the table
    written by np.savetxt(fmt="%.12g")."""
    cfg = load_config(config)
    system = component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
    spp = cfg.samples_per_piece
    lo, hi = system.breakpoints[:-1, None], system.breakpoints[1:, None]
    s = np.arange(spp + 1)
    with np.errstate(over="ignore"):
        offset = (hi - lo) * s / (spp + 1)
    offset = np.where(np.isinf(offset), (hi - lo) / (spp + 1) * s, offset)
    qs = np.append(lo + offset, system.q_hi)
    table = np.column_stack([qs, system.values_at(qs)])
    header = "q," + ",".join(f"P_{i + 1}" for i in range(system.n))
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.12g", delimiter=",", header=header, comments="")
    return buf.getvalue().encode()


def export_and_reference(config, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["export", config, "--out", str(out)]) == 0
    return out.read_bytes(), reference_export(config)


@pytest.mark.parametrize("t_min", [-40, -3, 0, 3, 40])
@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_export_equals_savetxt_on_configs(config, t_min, tmp_path, capsys):
    doc = json.loads(config.read_text())
    span = doc["window"]["t_max"] - doc["window"]["t_min"]
    doc["window"] = {"t_min": t_min, "t_max": t_min + span}
    got, want = export_and_reference(json.dumps(doc), tmp_path)
    assert got == want


@pytest.mark.parametrize("window", [{"t_min": 1020, "t_max": 1022},  # ends at 2^1023
                                    {"t_min": -1022, "t_max": -1021}])  # starts at 2^-1022
def test_export_equals_savetxt_at_float_range_edges(window, tmp_path, capsys):
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2], "window": window}
    got, want = export_and_reference(json.dumps(doc), tmp_path)
    assert got == want


@pytest.mark.parametrize("t_min", [30, -31])
def test_export_equals_savetxt_in_exponent_notation(t_min, tmp_path, capsys):
    # tau = 4: every value of these windows prints as d.ddde+XX
    doc = json.loads((ROOT / "configs" / "l3m2_cuberoot.json").read_text())
    doc["window"] = {"t_min": t_min, "t_max": t_min + 1}
    got, want = export_and_reference(json.dumps(doc), tmp_path)
    assert got == want
    assert all(b"e" in field for field in got.split(b"\n", 1)[1].replace(b"\n", b",").split(b",")[:-1])


def test_export_reproduces_demo_csv(tmp_path, capsys):
    out = tmp_path / "components.csv"
    assert main(["export", str(ROOT / "configs" / "l3m2_cuberoot.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "demos" / "components.csv").read_bytes()


# ------------------------------------------------- export streams in blocks

def ladder_l13m11(periods):
    """The benchmark ladder's (13,11) instance, drawn as the ladder draws it,
    over periods 0 .. periods - 1."""
    rng = np.random.default_rng(20081025)
    for l, m in ((7, 5), (13, 11)):
        alpha = rng.uniform(0.05, 3.0, size=l)
        beta = rng.uniform(0.05, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        rho = rng.uniform(1.05, 1.15, size=math.lcm(l, m))
    return json.dumps({"l": 13, "m": 11, "alpha": alpha.tolist(), "beta": beta.tolist(),
                       "rho": rho.tolist(), "window": {"t_min": 0, "t_max": periods - 1}})


@pytest.mark.parametrize("periods", [1, 5])
def test_export_streams_ladder_instance(periods, tmp_path, capsys):
    got, want = export_and_reference(ladder_l13m11(periods), tmp_path)
    assert got == want


def test_export_piece_across_blocks(tmp_path, capsys):
    # one piece holds several blocks of samples
    spp = 2 * cli._CSV_CHUNK + 3
    doc = {"l": 1, "m": 1, "alpha": [1], "beta": [1], "rho": [2],
           "window": {"t_min": -1, "t_max": 0}, "samples_per_piece": spp}
    got, want = export_and_reference(json.dumps(doc), tmp_path)
    assert got == want
    assert got.count(b"\n") > 4 * cli._CSV_CHUNK


def test_export_terminal_row_starts_a_block(tmp_path, capsys):
    # spp + 1 rows a block: every piece fills one, and the closing row is the
    # only row of the last block
    doc = json.loads((ROOT / "configs" / "l3m2_cuberoot.json").read_text())
    doc["window"] = {"t_min": 0, "t_max": 0}
    doc["samples_per_piece"] = cli._CSV_CHUNK // (load_config(doc).graph().weights.n + 1) - 1
    got, want = export_and_reference(json.dumps(doc), tmp_path)
    assert got == want


def test_export_memory_does_not_grow_with_window_or_samples(tmp_path, capsys):
    # no (P, n) table of the window and no sample table is built: a 20-period window
    # and 64 samples per piece peak within 1.5x of one period at 8
    rng = np.random.default_rng(19)
    alpha, beta = rng.uniform(0.05, 3.0, 7), rng.uniform(0.05, 3.0, 5)
    doc = {"l": 7, "m": 5, "alpha": alpha.tolist(), "beta": (beta * alpha.sum() / beta.sum()).tolist(),
           "rho": rng.uniform(1.05, 1.15, 35).tolist()}
    out = str(tmp_path / "out.csv")

    def peak(periods, spp):
        text = json.dumps(dict(doc, window={"t_min": 0, "t_max": periods - 1},
                               samples_per_piece=spp))
        tracemalloc.start()
        try:
            assert main(["export", text, "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1, 8)  # first-use caches and tables
    base = peak(1, 8)
    assert peak(20, 8) <= 1.5 * base
    assert peak(1, 64) <= 1.5 * base
