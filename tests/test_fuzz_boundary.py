"""Fuzzing the file and argv boundaries: every input ends in exit 0, 1 or 2, never a traceback.

Runs are derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
from fractions import Fraction
from itertools import product as cartesian
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvkit.cli import main, parse_model_text
from hvkit.errors import ModelFormatError
from hvkit.fixtures import FIXTURE_FILES
from hvkit.models import EmpiricalModel, HVModel
from hvkit.properties import HVProperty

FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None)
FILE_FUZZ = settings(FUZZ, max_examples=80)

COORDS = ("xa", "xb", "ya", "yb")
LABELS = ("0", "1", "2")
COMMANDS = ("check", "chsh", "realizability", "verify")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

malformed_p = st.one_of(
    st.sampled_from(["", " ", "1/0", "0/0", "1/-2", "1.5", "1e3", "0x10", "½", "1 /2", "--1", "1/2/3", "NaN"]),
    st.text(max_size=12),
    # long strings: past the digit cap, or not rationals at all
    st.builds(lambda n, c: c * n, st.integers(4290, 9000), st.sampled_from(["9", "x", "1/", "-7"])),
    st.builds(lambda n: "1/" + "1" * n, st.integers(4299, 4302)),
)


@st.composite
def model_documents(draw):
    """A model file: at most 3 atoms per coordinate, valid weights unless corrupted.

    A valid document may carry weights whose denominators run to about
    2,100 digits, inside the input cap.
    """
    bell = draw(st.booleans())  # two settings and two outcomes a party, no lam: chsh's shape
    coords = COORDS + (("lam",) if not bell and draw(st.booleans()) else ())
    spaces = {c: LABELS[: 2 if bell else draw(st.integers(1, 3))] for c in coords}
    atoms = list(cartesian(*(spaces[c] for c in coords)))
    if len(atoms) <= 16 and draw(st.booleans()):
        support = atoms  # every context positive, as chsh needs
    else:
        support = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=8, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    weights = [Fraction(n, sum(counts)) for n in counts]
    if len(weights) > 1 and draw(st.booleans()):
        shift = Fraction(1, (10 ** draw(st.integers(1, 2100)) + draw(st.integers(1, 9))) * sum(counts))
        weights[0] -= shift
        weights[1] += shift
    entries = [
        {"atom": dict(zip(coords, atom)), "p": f"{w.numerator}/{w.denominator}"}
        for atom, w in zip(support, weights)
    ]
    corrupt = draw(st.booleans())
    if corrupt:
        entries[draw(st.integers(0, len(entries) - 1))]["p"] = draw(malformed_p)
    return {"spaces": {c: list(labels) for c, labels in spaces.items()}, "weights": entries}, not corrupt


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_main_checked(argv):
    """run_main, asserting exit 0, 1 or 2 and exactly one "error: " line on stderr iff exit 2."""
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    return code, out


@FUZZ
@given(
    st.one_of(
        st.text(),
        json_values.map(json.dumps),
        st.builds(lambda s, w: json.dumps({"spaces": s, "weights": w}), json_values, json_values),
        model_documents().map(lambda drawn: json.dumps(drawn[0])),
    )
)
def test_parse_model_text_returns_a_model_or_raises_model_format_error(text):
    try:
        model = parse_model_text(text)
    except ModelFormatError:
        return
    assert isinstance(model, (EmpiricalModel, HVModel))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@FILE_FUZZ
@given(
    st.one_of(
        model_documents().map(lambda drawn: (json.dumps(drawn[0]).encode(), drawn[1])),
        st.binary(max_size=64).map(lambda raw: (raw, False)),
    )
)
def test_commands_on_fuzzed_files_exit_zero_one_or_two(model_path, drawn):
    content, valid = drawn
    model_path.write_bytes(content)
    for command in COMMANDS:
        run_main_checked([command, str(model_path)])
    if valid:
        # a well-formed model passes every internal cross-check
        assert run_main(["verify", str(model_path)])[0] == 0


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SUBCOMMANDS = ("check", "determinize", "realizability", "chsh", "generate", "verify")
TMP = "{tmp}"  # replaced by a per-module temporary directory

file_args = st.one_of(
    st.sampled_from([str(FIXTURE_DIR / name) for name in sorted(FIXTURE_FILES)]),
    st.sampled_from([f"{TMP}/missing.json", TMP, ""]),
).map(lambda path: (path,))
angles = ["0", "45", "90", "-30.5", "1e-3"]
angle_lists = st.one_of(
    st.lists(st.sampled_from(angles), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(angles + ["nan", "inf", "-inf", "1e400", "abc", "0x1", " ", "1..2"]), max_size=3),
).map(",".join)
PROPERTIES = ("all", *(p.value for p in HVProperty))
OUT = f"{TMP}/out.json"


def flag(name, *values):
    return st.tuples(st.just(name), st.sampled_from(values))


# what each subcommand needs, mostly well formed
NEEDS = {
    "check": (file_args, flag("--property", *PROPERTIES)),
    "determinize": (file_args, flag("--method", "empirical", "local"), flag("--out", OUT)),
    "generate": (
        st.just(("singlet",)),
        st.tuples(st.just("--angles-a"), angle_lists),
        st.tuples(st.just("--angles-b"), angle_lists),
        flag("--out", OUT),
    ),
}
options = st.one_of(
    flag("--property", *PROPERTIES, "nope"),
    flag("--method", "empirical", "local", "nope"),
    flag("--out", OUT, f"{TMP}/no/such/dir/out.json", TMP),
    st.tuples(st.sampled_from(["--angles-a", "--angles-b"]), angle_lists),
    flag("--max-denominator", "0", "-5", str(10**30), "1000", "x"),
    # junk: unknown, ambiguous, misplaced and multi-line flags, a stray positional
    st.tuples(st.sampled_from(["--bogus", "-x", "--angles", "--json", "--", "--a\nb", "singlet", "triplet"])),
)


@st.composite
def argvs(draw):
    """An hvkit command line: a subcommand with what it needs, half the time altered."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    parts = [draw(part) for part in NEEDS.get(command, (file_args,))]
    if draw(st.booleans()):  # drop some of what it needs, add other flags
        parts = [part for part in parts if draw(st.booleans())] + draw(st.lists(options, max_size=3))
    return (["--json"] if draw(st.booleans()) else []) + [command] + [arg for part in parts for arg in part]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@FUZZ
@given(argvs())
def test_fuzzed_command_lines_exit_zero_one_or_two(argv_dir, argv):
    argv = [arg.replace(TMP, str(argv_dir)) for arg in argv]
    code, out = run_main_checked(argv)
    if argv[0] == "--json" and code in (0, 1):
        json.loads(out)
