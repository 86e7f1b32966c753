"""Exit code 2 with one stderr line for numerical and configuration errors
in every subcommand, so that exit code 1 means only "a check failed"."""

import json
import warnings

import pytest

from conformal2d import cli
from conformal2d.cli import main


def stderr_lines(capsys) -> list[str]:
    return capsys.readouterr().err.strip().splitlines()


def test_moving_spheres_negative_lam_max_is_an_error(capsys):
    assert main(["moving-spheres", "--lam-max", "-1"]) == 2
    err = stderr_lines(capsys)
    assert len(err) == 1 and err[0].startswith("error: ") and "lam_max" in err[0]


# far samples at lam 4 overflow |e^z|^2; that slack is non-finite and fails closed
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x, halvings", [("0.5,0", 55), ("3,0", 53)])
def test_sphere_search_stops_before_samples_round_onto_x(capsys, x, halvings):
    assert main(["moving-spheres", "--field", '{"family":"exp_example"}',
                 "--x", x, "--lam-max", "4"]) == 2
    assert stderr_lines(capsys) == [
        f"error: no admissible sphere radius found above lam_max / 2^{halvings}"]


def test_envelope_nan_eps_is_config_error(capsys):
    assert main(["envelope", "--eps", "nan"]) == 2
    err = stderr_lines(capsys)
    assert err == ["config error: eps must be positive"]


@pytest.mark.parametrize("exc", [OverflowError("overflow"), ValueError("bad value")])
def test_raising_subcommand_exits_2(monkeypatch, capsys, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "inf_envelope", boom)
    assert main(["envelope"]) == 2
    assert stderr_lines(capsys) == [f"error: {exc}"]


@pytest.mark.parametrize("spec", [
    '{"family":"liouville","f":[1]}',
    '{"family":"pullback","base":[],"map":{"kind":"exp"}}',
    '{"family":"bubble","a":1}',
    '{"family":"nonsense"}',
])
def test_malformed_field_spec_is_config_error(capsys, spec):
    assert main(["moving-spheres", "--field", spec]) == 2
    err = stderr_lines(capsys)
    assert len(err) == 1 and err[0].startswith("config error: bad field spec")


def test_moving_spheres_accepts_composed_map_spec(capsys):
    spec = {"family": "pullback", "base": {"family": "bubble", "a": 1.0, "b": 8.0},
            "map": {"kind": "composed",
                    "outer": {"kind": "mobius", "a": 0, "b": 1, "c": 1, "d": 0,
                              "conjugating": True},
                    "inner": {"kind": "polynomial", "coeffs": [0.5, 1]}}}
    assert main(["moving-spheres", "--field", json.dumps(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["field"] == spec
    assert payload["report"]["unbounded"] is False


def test_exp_example_search_raises_no_runtime_warning(capsys):
    # the sample grid reaches x1 = 640, where |e^z|^2 overflows; the values
    # stay finite, and the search ends in its own message
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["moving-spheres", "--field", '{"family":"exp_example"}', "--x", "0,0"])
    assert code == 2
    err = stderr_lines(capsys)
    assert len(err) == 1 and "no admissible sphere radius" in err[0]


# -- one numeric argument domain --------------------------------------------------


@pytest.mark.parametrize("eps, line", [
    ("inf", "error: eps must be finite and > 0, got inf"),
    ("nan", "config error: eps must be positive"),
    ("-inf", "config error: eps must be positive"),
])
def test_envelope_non_finite_eps_exits_2(capsys, eps, line):
    # eps = inf used to exit 0 with a semiconcavity defect of 0.0
    assert main(["envelope", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                                        ("0", "0.0"), ("-1e3", "-1000.0")])
@pytest.mark.parametrize("argv", [["verify", "--suite", "bubble"], ["envelope"]],
                         ids=lambda a: a[0])
def test_out_of_domain_tol_is_config_error(capsys, argv, tol, shown):
    # verify --tol inf used to pass every row and exit 0; verify and envelope
    # with --tol nan exited 1, the "a check failed" code
    assert main([*argv, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: tol must be finite and > 0, got {shown}"]


@pytest.mark.parametrize("argv, line", [
    (["solve-radial", "--tol", "-inf"], "error: rtol must be finite and > 0, got -inf"),
    (["solve-radial", "--v0", "-1e3"], "error: |v0| = 1000 exceeds 700"),
    (["solve-radial", "--cone", "-inf"], "error: cone index must satisfy 1 < p <= 2, got -inf"),
    (["envelope", "--eps", "-1e3"], "config error: eps must be positive"),
    (["moving-spheres", "--lam-max", "-inf"], "error: lam_max must be finite and positive"),
    (["moving-spheres", "--x", "-0.5"], "config error: point must be x1,x2, got '-0.5'"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_negative_float_values_reach_the_subcommand(capsys, argv, line):
    # argparse reads "-inf" and "-1e3" as option strings and printed a usage
    # block; joined to their flags they reach the subcommand's own check
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_negative_finite_values_are_accepted(capsys):
    assert main(["solve-radial", "--v0", "-1e-1", "--grid", "0:1:11"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["v0"] == -0.1


def test_negative_point_is_accepted(capsys):
    # "--x -0.5,0" printed a usage block; it now reads as "--x=-0.5,0"
    assert main(["moving-spheres", "--x", "-0.5,0"]) == 0
    spaced = json.loads(capsys.readouterr().out)
    assert main(["moving-spheres", "--x=-0.5,0"]) == 0
    joined = json.loads(capsys.readouterr().out)
    assert spaced["config"]["x"] == [-0.5, 0.0]
    assert spaced["report"] == joined["report"]


@pytest.mark.parametrize("suite", ["", ",", ",,"])
def test_empty_suite_list_is_config_error(capsys, suite):
    # "--suite ''" used to run no suite, write "checks": [] and exit 0
    assert main(["verify", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: no suite named; available: ")
