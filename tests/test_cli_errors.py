"""Exit code 2 with one stderr line for numerical and configuration errors
in every subcommand, so that exit code 1 means only "a check failed"."""

import json

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
