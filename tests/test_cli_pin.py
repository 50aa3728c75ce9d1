"""Pinned command-line output on the shipped fixtures.

Each case runs ``main`` in process, in text mode and under ``--json``,
and compares its exit code, stdout, stderr and the SHA-256 of the
``--out`` file (null when none was written) with ``cli_pin.json``.
Paths are stored as ``{fixtures}`` and ``{out}``.  After a deliberate
change to the output, rewrite the expectations with

    PYTHONPATH=src python tests/test_cli_pin.py

and review the diff of ``tests/cli_pin.json``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from hvkit.cli import main
from hvkit.fixtures import FIXTURE_FILES

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE.parent / "fixtures"
PIN_FILE = HERE / "cli_pin.json"

COMMANDS = (
    ("check",),
    ("realizability",),
    ("chsh",),
    ("verify",),
    ("determinize", "--method", "empirical", "--out", "{out}"),
    ("determinize", "--method", "local", "--out", "{out}"),
)
GENERATE = ("generate", "singlet", "--angles-a", "0,90", "--angles-b", "45,135", "--out", "{out}")


def pinned_argvs():
    plain = [(c[0], "{fixtures}/" + name, *c[1:]) for name in sorted(FIXTURE_FILES) for c in COMMANDS]
    plain.append(GENERATE)
    return [argv for mode in ((), ("--json",)) for argv in ((*mode, *a) for a in plain)]


def run_pinned(argv, directory: Path) -> dict:
    out_path = directory / "out.json"
    out_path.unlink(missing_ok=True)
    places = {"{fixtures}": str(FIXTURE_DIR), "{out}": str(out_path)}

    def fill(arg):
        for key, value in places.items():
            arg = arg.replace(key, value)
        return arg

    def unfill(text):
        for key, value in places.items():
            text = text.replace(value, key)
        return text

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([fill(arg) for arg in argv])
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest() if out_path.exists() else None
    return {"code": code, "stdout": unfill(out.getvalue()), "stderr": unfill(err.getvalue()), "out_sha256": digest}


def case_id(argv) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


def test_every_pinned_case_is_run(pinned):
    assert sorted(pinned) == sorted(case_id(argv) for argv in pinned_argvs())


@pytest.mark.parametrize("argv", pinned_argvs(), ids=case_id)
def test_output_matches_pin(argv, pinned, tmp_path):
    assert run_pinned(argv, tmp_path) == pinned[case_id(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        cases = {case_id(argv): run_pinned(argv, Path(scratch)) for argv in pinned_argvs()}
    PIN_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {PIN_FILE}")
