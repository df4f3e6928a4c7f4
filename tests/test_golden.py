"""Golden CLI outputs for the four shipped configs.

For each config in configs/ the expected stdout and exit code of `build`,
`check` and `eval --q 2.5`, and the exit code and SHA-256 of the files that
`export` and `plot` write, are stored in tests/golden/<config>.json.  A change
that moves any of them must say why and rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from regraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(argv):
    """Exit code and stdout of main(argv), which must print nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, out.getvalue()


def outputs(config: Path, folder: Path) -> dict:
    """Exit codes and stdout of build, check and eval, and the SHA-256 of the
    files written into folder by export and plot, for one config."""
    doc = {}
    for name, extra in [("build", []), ("check", []), ("eval", ["--q", "2.5"])]:
        code, out = _run([name, str(config), *extra])
        doc[name] = {"code": code, "stdout": out}
    for name, suffix in [("export", "csv"), ("plot", "svg")]:
        path = folder / f"{config.stem}.{suffix}"
        code, _ = _run([name, str(config), "--out", str(path)])
        doc[name] = {"code": code, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return doc


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_golden_outputs(config, tmp_path):
    expected = json.loads((GOLDEN / f"{config.stem}.json").read_text())
    assert outputs(config, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            path = GOLDEN / f"{config.stem}.json"
            path.write_text(json.dumps(outputs(config, Path(tmp)), indent=1) + "\n")
            print(f"wrote {path}")
