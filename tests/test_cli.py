"""The command-line interface: file format round-trips and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvkit.cli
from hvkit.cli import load_model_file, main, parse_model_text, save_model_file, serialize_model
from hvkit.errors import ModelFormatError, ResourceLimitError
from hvkit.fixtures import FIXTURE_FILES
from hvkit.measure import FiniteMeasure, FiniteSpace, ProductLayout
from hvkit.models import HV_COORDS, LAM, PSI_COORDS, EmpiricalModel, HVModel, empirical_model, hv_model
from hvkit.quantumgen import singlet_model
from hvkit.rationals import MAX_RATIONAL_DIGITS

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    return main(list(argv))


class TestFileFormat:
    @pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
    def test_round_trip_identity(self, name):
        path = FIXTURE_DIR / name
        model = load_model_file(str(path))
        again = parse_model_text(serialize_model(model))
        assert type(again) is type(model)
        assert again.measure.layout == model.measure.layout
        assert again.measure.weights == model.measure.weights

    @pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
    def test_shipped_files_match_builders(self, name):
        path = FIXTURE_DIR / name
        on_disk = load_model_file(str(path))
        built = FIXTURE_FILES[name]()
        assert on_disk.measure.weights == built.measure.weights

    def test_lam_space_selects_model_kind(self):
        base = {
            "spaces": {"xa": ["0"], "xb": ["0"], "ya": ["0"], "yb": ["0"]},
            "weights": [
                {"atom": {"xa": "0", "xb": "0", "ya": "0", "yb": "0"}, "p": "1/1"}
            ],
        }
        assert isinstance(parse_model_text(json.dumps(base)), EmpiricalModel)
        base["spaces"]["lam"] = ["l0"]
        base["weights"][0]["atom"]["lam"] = "l0"
        assert isinstance(parse_model_text(json.dumps(base)), HVModel)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("spaces", {"xa": ["0"]}),
            lambda d: d["weights"][0].__setitem__("p", "1/0"),
            lambda d: d["weights"][0].__setitem__("p", "2/3"),
            lambda d: d["weights"][0]["atom"].__setitem__("xa", "missing"),
            lambda d: d.__setitem__("weights", d["weights"] * 2),
        ],
    )
    def test_rejects_malformed(self, mutate):
        document = {
            "spaces": {"xa": ["0"], "xb": ["0"], "ya": ["0"], "yb": ["0"]},
            "weights": [
                {"atom": {"xa": "0", "xb": "0", "ya": "0", "yb": "0"}, "p": "1/1"}
            ],
        }
        mutate(document)
        with pytest.raises(ModelFormatError):
            parse_model_text(json.dumps(document))


class TestCheckCommand:
    def test_lambda_on_trivial_model_exits_zero(self, capsys):
        code = run_cli(
            "check", str(FIXTURE_DIR / "pr_box_singleton_hv.json"), "--property", "lambda"
        )
        assert code == 0
        assert "lambda: HOLDS" in capsys.readouterr().out

    def test_locality_on_pr_box_exits_one_with_witness(self, capsys):
        code = run_cli(
            "check", str(FIXTURE_DIR / "pr_box_singleton_hv.json"), "--property", "locality"
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "locality: FAILS" in out
        assert "lhs=1/2 rhs=1/4" in out

    def test_all_properties_json(self, capsys):
        code = run_cli("--json", "check", str(FIXTURE_DIR / "signaling_hv.json"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        by_name = {r["property"]: r for r in payload["reports"]}
        assert by_name["oi"]["holds"] is True
        assert by_name["pi"]["holds"] is False
        assert by_name["pi"]["witness"]["lhs"] == "1/1"

    def test_malformed_weight_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "spaces": {"xa": ["0"], "xb": ["0"], "ya": ["0"], "yb": ["0"], "lam": ["l0"]},
                    "weights": [
                        {
                            "atom": {"xa": "0", "xb": "0", "ya": "0", "yb": "0", "lam": "l0"},
                            "p": "1/0",
                        }
                    ],
                }
            )
        )
        assert run_cli("check", str(bad)) == 2

    def test_empirical_input_rejected(self):
        assert run_cli("check", str(FIXTURE_DIR / "pr_box.json")) == 2


class TestDeterminizeCommand:
    def test_empirical_method_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        code = run_cli(
            "determinize", str(FIXTURE_DIR / "pr_box.json"),
            "--method", "empirical", "--out", str(out_file),
        )
        assert code == 0
        assert "strongdet=ok" in capsys.readouterr().out
        written = load_model_file(str(out_file))
        assert isinstance(written, HVModel)
        assert run_cli("check", str(out_file), "--property", "strongdet") == 0

    def test_outcome_labels_holding_the_separator(self, tmp_path, capsys):
        # ("a|b", "c") and ("a", "b|c") must not share the hidden tag "a|b|c"
        xa, xb = ("a|b", "a"), ("c", "b|c")
        quarter = Fraction(1, 4)
        model_file = tmp_path / "model.json"
        save_model_file(
            empirical_model(xa, xb, "0", "0", {(a, b, "0", "0"): quarter for a in xa for b in xb}), str(model_file)
        )
        assert run_cli("verify", str(model_file)) == 0
        assert "deterministic realization: consistent" in capsys.readouterr().out
        out_file = tmp_path / "out.json"
        assert run_cli("determinize", str(model_file), "--method", "empirical", "--out", str(out_file)) == 0
        assert "strongdet=ok" in capsys.readouterr().out
        assert len(load_model_file(str(out_file)).space("lam")) == 4

    def test_local_method_on_nonlocal_input_exits_one(self, capsys):
        code = run_cli(
            "determinize", str(FIXTURE_DIR / "pr_box_singleton_hv.json"),
            "--method", "local", "--out", "/dev/null",
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "locality" in out

    def test_local_method_precondition_failure_as_json(self, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        code = run_cli(
            "--json", "determinize", str(FIXTURE_DIR / "pr_box_singleton_hv.json"),
            "--method", "local", "--out", str(out_file),
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["precondition_failed"] == "input does not satisfy locality"
        assert payload["report"]["property"] == "locality"
        assert payload["report"]["witness"]["lhs"] == "1/2"
        assert not out_file.exists()

    def test_local_method_on_product_model(self, tmp_path, capsys):
        out_file = tmp_path / "cells.json"
        code = run_cli(
            "determinize", str(FIXTURE_DIR / "fair_coin_product_hv.json"),
            "--method", "local", "--out", str(out_file),
        )
        assert code == 0
        written = load_model_file(str(out_file))
        assert "[0,1/2)" in written.space("lam").atoms[0]


class TestRealizabilityCommand:
    def test_pr_box_infeasible(self, capsys):
        code = run_cli("realizability", str(FIXTURE_DIR / "pr_box.json"))
        out = capsys.readouterr().out
        assert code == 1
        assert "INFEASIBLE" in out
        assert "classical bound: 2/1" in out
        assert "achieved value:  4/1" in out

    def test_singlet_infeasible(self):
        assert run_cli("realizability", str(FIXTURE_DIR / "singlet_chsh.json")) == 1

    def test_feasible_strategy_model(self, tmp_path, capsys):
        weights = {("0", "1", ya, yb): Fraction(1, 4) for ya in "01" for yb in "01"}
        path = tmp_path / "strategy.json"
        save_model_file(empirical_model("01", "01", "01", "01", weights), str(path))
        code = run_cli("realizability", str(path))
        assert code == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_hv_input_rejected(self):
        assert run_cli("realizability", str(FIXTURE_DIR / "signaling_hv.json")) == 2


class TestGenerateAndChsh:
    def test_generate_anticorrelated(self, tmp_path, capsys):
        out_file = tmp_path / "anti.json"
        code = run_cli(
            "generate", "singlet", "--angles-a", "0", "--angles-b", "0",
            "--out", str(out_file),
        )
        assert code == 0
        model = load_model_file(str(out_file))
        assert model.measure.weight(("up", "down", "0", "0")) == Fraction(1, 2)
        assert model.measure.weight(("up", "up", "0", "0")) == 0

    def test_generate_angles_equal_under_short_format(self, tmp_path):
        out_file = tmp_path / "close.json"
        code = run_cli(
            "generate", "singlet", "--angles-a", "10,10.0000001", "--angles-b", "0",
            "--out", str(out_file),
        )
        assert code == 0
        assert load_model_file(str(out_file)).space("ya").atoms == ("10", "10.0000001")

    def test_generate_uniform(self, tmp_path):
        out_file = tmp_path / "uniform.json"
        run_cli("generate", "singlet", "--angles-a", "0", "--angles-b", "90",
                "--out", str(out_file))
        model = load_model_file(str(out_file))
        assert all(w == Fraction(1, 4) for w in model.measure.weights.values())
        assert len(model.measure.weights) == 4

    def test_generate_pipeline_to_realizability(self, tmp_path, capsys):
        out_file = tmp_path / "chsh.json"
        code = run_cli(
            "generate", "singlet", "--angles-a", "0,90", "--angles-b", "45,135",
            "--max-denominator", "1000000", "--out", str(out_file),
        )
        assert code == 0
        assert "chsh =" in capsys.readouterr().out
        assert run_cli("realizability", str(out_file)) == 1

    def test_chsh_command(self, capsys):
        code = run_cli("chsh", str(FIXTURE_DIR / "pr_box.json"))
        assert code == 0
        assert "chsh = 4/1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "angle_args",
        [("--angles-a", "-30,45", "--angles-b", "-.5"), ("--angles-a=-30,45", "--angles-b=-.5")],
        ids=["space", "equals"],
    )
    def test_generate_reads_a_leading_negative_angle(self, angle_args, tmp_path):
        out_file = tmp_path / "negative.json"
        assert run_cli("generate", "singlet", *angle_args, "--out", str(out_file)) == 0
        expected = serialize_model(singlet_model([-30.0, 45.0], [-0.5]))
        assert out_file.read_text(encoding="utf-8") == expected

    def test_bad_angles_exit_two(self, tmp_path):
        assert run_cli(
            "generate", "singlet", "--angles-a", "abc", "--angles-b", "0",
            "--out", str(tmp_path / "x.json"),
        ) == 2


class TestGenerateRefusals:
    """Refused angle lists exit 2 with one line and leave --out unwritten."""

    @pytest.mark.parametrize(
        "angles_a, angles_b",
        [
            ("inf,0", "0,1"),
            ("0", "-inf"),
            ("1e400", "0"),
            ("nan", "0"),
            (",".join(map(str, range(101))), ",".join(map(str, range(100)))),
        ],
        ids=["inf", "-inf", "1e400", "nan", "over-cap"],
    )
    def test_exits_two(self, angles_a, angles_b, tmp_path, capsys):
        out_file = tmp_path / "x.json"
        argv = ("generate", "singlet", "--angles-a", angles_a, "--angles-b", angles_b)
        assert run_cli(*argv, "--out", str(out_file)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out_file.exists()


class TestUsageErrors:
    """A command line argparse rejects exits 2 with one "error: " line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check",),
            (),
            ("chsh", str(FIXTURE_DIR / "pr_box.json"), "--bogus"),
            ("generate", "singlet", "--angles-a", "0", "--angles-b", "0", "--max-denominator", "x"),
            ("check", "x.json", "--a\nb"),
        ],
        ids=["missing-file", "empty", "unknown-flag", "bad-int", "newline-flag"],
    )
    def test_one_line_exit_two(self, argv, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: hvkit")
        assert captured.err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("check", "-h")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hvkit check")


def one_tag_diagonal(layout, weights):
    """determinize_empirical's diagonal with every outcome pair moved onto the first tag."""
    tag = next(iter(weights))[2]
    return FiniteMeasure(layout, {(xa, xb, tag): w for (xa, xb, _), w in weights.items()})


class TestInternalCheckFailure:
    """A failed internal cross-check is a bug, and exits 2 with one "error: " line."""

    @pytest.mark.parametrize(
        "target, replacement, argv",
        [
            # locality fails on this file, so a fiber reading that holds disagrees with the checker
            (
                "hvkit.properties.is_fiber_product",
                lambda *args: True,
                ("check", str(FIXTURE_DIR / "pr_box_singleton_hv.json"), "--property", "locality"),
            ),
            (
                "hvkit.determinize.equivalent",
                lambda *args: False,
                ("determinize", str(FIXTURE_DIR / "fair_coin_product_hv.json"), "--method", "local", "--out", "out.json"),
            ),
            # one tag carries every outcome pair: the output still realizes the model,
            # but is not strongly deterministic
            (
                "hvkit.determinize.FiniteMeasure",
                one_tag_diagonal,
                ("determinize", str(FIXTURE_DIR / "pr_box.json"), "--method", "empirical", "--out", "out.json"),
            ),
            (
                "hvkit.determinize.realizes",
                lambda *args: False,
                ("determinize", str(FIXTURE_DIR / "pr_box.json"), "--method", "empirical", "--out", "out.json"),
            ),
        ],
        ids=["fiber-reading", "determinize-selfcheck", "empirical-determinism", "empirical-realization"],
    )
    def test_exits_two(self, target, replacement, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(target, replacement)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("determinize", str(FIXTURE_DIR / "pr_box.json"), "--method", "empirical"),
            ("generate", "singlet", "--angles-a", "0", "--angles-b", "0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_directory_exits_two(self, argv, tmp_path, capsys):
        out_file = tmp_path / "missing" / "x.json"
        assert run_cli(*argv, "--out", str(out_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_file}")
        assert err.count("\n") == 1


def single_atom_hv_document(p="1/1", label="0"):
    return {
        "spaces": {"xa": ["0"], "xb": ["0"], "ya": ["0"], "yb": ["0"], "lam": ["l0"]},
        "weights": [{"atom": {"xa": label, "xb": "0", "ya": "0", "yb": "0", "lam": "l0"}, "p": p}],
    }


class TestInputBoundaries:
    """Hostile files end in exit 2 with one line on stderr, never a traceback."""

    def check_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert run_cli("check", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return err

    def test_deeply_nested_json(self, tmp_path, capsys):
        text = "[" * 200_000
        with pytest.raises(ModelFormatError, match="nested too deeply"):
            parse_model_text(text)
        self.check_exits_two(tmp_path, capsys, text)

    @pytest.mark.parametrize("label", [["0"], {"0": "0"}, None])
    def test_non_string_atom_label(self, tmp_path, capsys, label):
        text = json.dumps(single_atom_hv_document(label=label))
        with pytest.raises(ModelFormatError, match="labels must be strings"):
            parse_model_text(text)
        self.check_exits_two(tmp_path, capsys, text)

    def test_weight_at_the_digit_cap_is_accepted(self, tmp_path, capsys):
        n = "7" * MAX_RATIONAL_DIGITS
        path = tmp_path / "model.json"
        path.write_text(json.dumps(single_atom_hv_document(p=f"{n}/{n}")))
        assert run_cli("check", str(path), "--property", "locality") == 0

    @pytest.mark.parametrize("form", ["{n}/{n}", "1/{n}", "-{n}"])
    def test_weight_past_the_digit_cap_exits_two(self, tmp_path, capsys, form):
        n = "7" * (MAX_RATIONAL_DIGITS + 1)
        text = json.dumps(single_atom_hv_document(p=form.format(n=n)))
        err = self.check_exits_two(tmp_path, capsys, text)
        assert f"more than {MAX_RATIONAL_DIGITS} digits" in err
        assert "set_int_max_str_digits" not in err

    def test_weight_sum_past_the_digit_cap_exits_two(self, tmp_path, capsys):
        # each "p" is inside the cap, but their sum's denominator is not
        document = single_atom_hv_document(p="1/" + "7" * MAX_RATIONAL_DIGITS)
        document["spaces"]["lam"].append("l1")
        atom = dict(document["weights"][0]["atom"], lam="l1")
        document["weights"].append({"atom": atom, "p": "1/" + "3" * MAX_RATIONAL_DIGITS})
        err = self.check_exits_two(tmp_path, capsys, json.dumps(document))
        assert f"sum to exactly 1, got a rational over {MAX_RATIONAL_DIGITS} digits long" in err

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{")
        assert run_cli("check", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_long_non_rational_weight_message_is_bounded(self, tmp_path, capsys):
        text = json.dumps(single_atom_hv_document(p="x" * 1_000_000))
        with pytest.raises(ModelFormatError) as caught:
            parse_model_text(text)
        message = str(caught.value)
        assert "\n" not in message
        assert len(message) < 200
        assert message.startswith("weights[0]: not a rational: 'xxx")
        err = self.check_exits_two(tmp_path, capsys, text)
        assert len(err) < 200


def distinct_denominator_chsh_document():
    """A 2x2 model whose four contexts have distinct 2,001-digit denominators.

    Every "p" is within the digit cap, but E(context) = 2/d - 1 at each
    context, so the CHSH value's denominator is near 8,000 digits long.
    """
    weights = []
    for k, (ya, yb) in zip((1, 3, 7, 9), [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]):
        a = Fraction(1, 4 * (10**2000 + k))
        for (xa, xb), w in ((("0", "0"), a), (("0", "1"), Fraction(1, 4) - a)):
            atom = {"xa": xa, "xb": xb, "ya": ya, "yb": yb}
            weights.append({"atom": atom, "p": f"{w.numerator}/{w.denominator}"})
    return {"spaces": {c: ["0", "1"] for c in ("xa", "xb", "ya", "yb")}, "weights": weights}


def past_the_digit_cap_model():
    """An in-library model holding a weight with a 4,301-digit denominator."""
    tiny = Fraction(1, 10**MAX_RATIONAL_DIGITS)
    return hv_model("0", "01", "0", "0", ("l0",), {
        ("0", "0", "0", "0", "l0"): tiny, ("0", "1", "0", "0", "l0"): 1 - tiny,
    })


class TestOutputDigitCap:
    """A result past MAX_RATIONAL_DIGITS is refused with exit 2 and one line."""

    def test_chsh_result_past_the_cap_exits_two(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(distinct_denominator_chsh_document()))
        assert run_cli("chsh", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "MAX_RATIONAL_DIGITS" in captured.err

    def test_save_refuses_value_past_the_cap_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ResourceLimitError, match="MAX_RATIONAL_DIGITS"):
            save_model_file(past_the_digit_cap_model(), str(path))
        assert not path.exists()

    def test_determinize_out_past_the_cap_exits_two_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hvkit.cli, "determinize_empirical", lambda e: past_the_digit_cap_model())
        path = tmp_path / "out.json"
        argv = ("determinize", str(FIXTURE_DIR / "pr_box.json"), "--method", "empirical", "--out", str(path))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "MAX_RATIONAL_DIGITS" in err
        assert not path.exists()


def json_dumps_text(model):
    """The model file's text as ``json.dumps`` writes its document."""
    measure = model.measure
    coords = measure.layout.names
    document = {
        "spaces": {name: list(measure.layout.space(name).atoms) for name in coords},
        "weights": [
            {"atom": dict(zip(coords, atom)), "p": f"{w.numerator}/{w.denominator}"}
            for atom, w in measure.weights.items()
        ],
    }
    return json.dumps(document, indent=2) + "\n"


# quote, backslash, the label separator, control characters, non-ASCII and astral characters
AWKWARD = '"\\|\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600\U0010ffff'
LABELS = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), min_size=1, max_size=5)


@st.composite
def labelled_models(draw):
    coords = HV_COORDS if draw(st.booleans()) else PSI_COORDS
    spaces = [FiniteSpace(name, tuple(draw(st.lists(LABELS, min_size=1, max_size=3, unique=True)))) for name in coords]
    atom = st.tuples(*(st.sampled_from(space.atoms) for space in spaces))
    atoms = draw(st.lists(atom, min_size=1, max_size=6, unique=True))
    numerators = draw(st.lists(st.integers(1, 10**30), min_size=len(atoms), max_size=len(atoms)))
    weights = {a: Fraction(n, sum(numerators)) for a, n in zip(atoms, numerators)}
    measure = FiniteMeasure(ProductLayout(tuple(spaces)), weights)
    return HVModel(measure) if LAM in coords else EmpiricalModel(measure)


class TestWriterMatchesJsonDumps:
    """serialize_model writes exactly the bytes json.dumps(document, indent=2) does."""

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(labelled_models())
    def test_generated_models(self, model):
        assert serialize_model(model) == json_dumps_text(model)

    @pytest.mark.parametrize("char", AWKWARD)
    def test_each_awkward_character(self, char):
        model = empirical_model((char, f"a{char}b"), (f"{char}{char}",), "0", "01", {
            (char, f"{char}{char}", "0", "0"): Fraction(1, 3),
            (f"a{char}b", f"{char}{char}", "0", "1"): Fraction(2, 3),
        })
        assert serialize_model(model) == json_dumps_text(model)

    @pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
    def test_shipped_fixtures(self, name):
        text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
        model = parse_model_text(text)
        assert serialize_model(model) == json_dumps_text(model) == text

    def test_weight_past_the_cap_after_others_raises_and_leaves_no_file(self, tmp_path):
        tiny = Fraction(1, 10**MAX_RATIONAL_DIGITS)
        model = empirical_model("012", "0", "0", "0", {
            ("0", "0", "0", "0"): Fraction(1, 2), ("1", "0", "0", "0"): Fraction(1, 2) - tiny, ("2", "0", "0", "0"): tiny,
        })
        with pytest.raises(ResourceLimitError, match="MAX_RATIONAL_DIGITS"):
            serialize_model(model)
        path = tmp_path / "out.json"
        with pytest.raises(ResourceLimitError, match="MAX_RATIONAL_DIGITS"):
            save_model_file(model, str(path))
        assert not path.exists()


class TestVerifyCommand:
    @pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
    def test_verify_all_fixtures(self, name, capsys):
        assert run_cli("verify", str(FIXTURE_DIR / name)) == 0
        assert "consistent" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(n for n in FIXTURE_FILES if n.endswith("_hv.json")))
    def test_nested_marginals_compare_distinct_measures(self, name, monkeypatch, capsys):
        # after check_all, the memo of the model holds lam's marginal; the
        # nested chain must not hand that same object back
        compared = []
        real = hvkit.cli.measures_equal

        def recording(p, q):
            compared.append((p, q))
            return real(p, q)

        monkeypatch.setattr(hvkit.cli, "measures_equal", recording)
        assert run_cli("verify", str(FIXTURE_DIR / name)) == 0
        assert "cross-check nested marginals: consistent" in capsys.readouterr().out
        [(nested, direct)] = compared
        assert nested is not direct
        assert nested == direct


def checkout_env():
    """The environment for a child process that imports hvkit from this checkout, installed or not."""
    env = dict(os.environ)
    src = str(FIXTURE_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "hvkit", "check",
             str(FIXTURE_DIR / "pr_box_singleton_hv.json"), "--property", "locality"],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert result.returncode == 1
        assert "locality: FAILS" in result.stdout

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_closed_stdout_ends_in_one_line(self, flags):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hvkit", *flags, "check", str(FIXTURE_DIR / "signaling_hv.json")],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=checkout_env(),
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
