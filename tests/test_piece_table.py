"""Array lookups of the piece table against the per-piece loops they replace.

The reference functions below are the loop forms of `check_regular`,
`check_proper_direct` and `cmd_export` that walked `Piece` objects one
at a time.  The array forms do the same float operations in the same
order, so results must agree exactly: same status, margin and witness,
and the same CSV bytes.
"""

import dataclasses
import json
from math import lcm

import numpy as np
import pytest

import regraph as rg
from regraph import analyze
from regraph.cli import main

N_INSTANCES = 50


def reference_values_at(sys, q):
    idx = int(np.searchsorted(sys.breakpoints, q, side="right")) - 1
    return sys.pieces[min(max(idx, 0), len(sys.pieces) - 1)].values_at(q)


def reference_check_regular(g, sys, tol=1e-9):
    if sys.t_hi - sys.t_lo < 1:
        return analyze.CheckResult("regular", analyze.ERROR, tol, 0.0, None,
                                   note="InsufficientWindow: need at least two periods")
    tau = g.schedule.tau
    bp = sys.breakpoints
    worst = 0.0
    witness = None
    for t in range(sys.t_lo, sys.t_hi):
        lo, hi = tau**t, tau ** (t + 1)
        cur = bp[(bp >= lo * (1 - 1e-12)) & (bp < hi * (1 - 1e-12))]
        nxt = bp[(bp >= hi * (1 - 1e-12)) & (bp < hi * tau * (1 - 1e-12))]
        if len(cur) != len(nxt):
            return analyze.CheckResult("regular", analyze.FAIL, tol, float(len(nxt) - len(cur)),
                                       {"t": t}, note="breakpoint count differs between periods")
        rel_bp = float(np.max(np.abs(nxt / (tau * cur) - 1.0))) if len(cur) else 0.0
        if rel_bp > worst:
            worst, witness = rel_bp, {"t": t, "kind": "breakpoint"}
        if rel_bp > tol:
            return analyze.CheckResult("regular", analyze.FAIL, tol, rel_bp, {"t": t},
                                       note="breakpoints do not scale by tau")
        probes = np.concatenate([cur, 0.5 * (cur[:-1] + cur[1:])]) if len(cur) > 1 else cur
        for q in probes:
            a = reference_values_at(sys, q) * tau
            b = reference_values_at(sys, q * tau)
            rel = float(np.max(np.abs(b - a) / np.maximum(1.0, np.abs(a))))
            if rel > worst:
                worst, witness = rel, {"q": float(q), "t": t}
            if rel > tol:
                return analyze.CheckResult("regular", analyze.FAIL, tol, rel, {"q": float(q)},
                                           note="values do not scale by tau")
    return analyze.CheckResult("regular", analyze.PASS, tol, worst, witness)


def reference_check_proper_direct(sys, tol=1e-9):
    best = np.inf
    witness = None
    for b in range(1, len(sys.pieces)):
        left, right = sys.pieces[b - 1], sys.pieces[b]
        q = sys.breakpoints[b]
        vals = right.values
        lsum = np.cumsum(left.slopes)
        rsum = np.cumsum(right.slopes)
        for i in range(1, sys.n):
            gap = vals[i] - vals[i - 1]
            if gap <= tol * max(1.0, abs(vals[i])):
                continue
            slack = float(rsum[i - 1] - lsum[i - 1])
            if slack < best:
                best, witness = slack, {"q": float(q), "i": i}
    if witness is None:
        best = 0.0
    status = analyze.PASS if best >= -tol else analyze.FAIL
    return analyze.CheckResult("proper-direct", status, tol, float(best), witness)


def reference_export(cfg) -> bytes:
    sys_ = rg.component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
    rows = []
    for piece in sys_.pieces:
        rows.append((piece.q_lo, *piece.values))
        width = piece.q_hi - piece.q_lo
        for s in range(cfg.samples_per_piece):
            q = piece.q_lo + width * (s + 1) / (cfg.samples_per_piece + 1)
            rows.append((q, *piece.values_at(q)))
    last = sys_.pieces[-1]
    rows.append((last.q_hi, *last.values_at(last.q_hi)))
    header = "q," + ",".join(f"P_{i + 1}" for i in range(sys_.n))
    lines = [header] + [",".join(f"{x:.12g}" for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def random_doc(i):
    """Instance i: l, m <= 4, a random schedule, window start t_lo in -3..3."""
    rng = np.random.default_rng(9000 + i)
    l, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    rho = rng.uniform(1.05, 3.0, size=lcm(l, m))
    t_lo = i % 7 - 3
    return {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(),
            "rho": rho.tolist(), "window": {"t_min": t_lo, "t_max": t_lo + i % 3},
            "samples_per_piece": int(rng.integers(0, 9))}


@pytest.fixture(scope="module")
def instances():
    out = []
    for i in range(N_INSTANCES):
        cfg = rg.load_config(random_doc(i))
        g = cfg.graph()
        out.append((cfg, g, rg.component_functions(g, cfg.t_min, cfg.t_min + 2)))
    return out


def test_values_at_array_equals_scalar(instances):
    for _, _, sys in instances:
        bp = sys.breakpoints
        qs = np.concatenate([
            bp,  # every breakpoint, q_lo and q_hi included
            0.5 * (bp[:-1] + bp[1:]),
            [0.0, 0.5 * sys.q_lo, 2.0 * sys.q_hi, sys.q_hi * 1e6],  # outside the window
        ])
        rows = sys.values_at(qs)
        assert rows.shape == (len(qs), sys.n)
        for q, row in zip(qs, rows):
            assert np.array_equal(row, sys.values_at(q))
            assert np.array_equal(row, reference_values_at(sys, q))
        assert sys.values_at(np.array([])).shape == (0, sys.n)


def test_check_regular_matches_loop(instances, fig_instance):
    cases = [(g, sys) for _, g, sys in instances]
    # perturbed tables exercise the failing branch and its witness
    for g, sys in cases[:10] + [(fig_instance, rg.component_functions(fig_instance, 0, 1))]:
        for idx in (0, len(sys.pieces) // 2, len(sys.pieces) - 1):
            piece = sys.pieces[idx]
            values = piece.values.copy()
            values[-1] += 1e-3
            pieces = list(sys.pieces)
            pieces[idx] = dataclasses.replace(piece, values=values)
            cases.append((g, dataclasses.replace(sys, pieces=tuple(pieces))))
    statuses = set()
    for g, sys in cases:
        got, want = analyze.check_regular(g, sys), reference_check_regular(g, sys)
        assert got == want
        statuses.add(got.status)
    assert statuses == {analyze.PASS, analyze.FAIL}


def test_check_proper_direct_matches_loop(instances, improper_instance):
    systems = [sys for _, _, sys in instances]
    systems.append(rg.component_functions(improper_instance, -1, 1))
    statuses = set()
    for sys in systems:
        for tol in (1e-9, 1e-3):
            got = analyze.check_proper_direct(sys, tol)
            assert got == reference_check_proper_direct(sys, tol)
            statuses.add(got.status)
    assert statuses == {analyze.PASS, analyze.FAIL}


def test_export_matches_loop_bytes(instances, tmp_path, capsys):
    out = tmp_path / "out.csv"
    for i, (cfg, _, _) in enumerate(instances):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(random_doc(i)))
        assert main(["export", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == reference_export(cfg)
