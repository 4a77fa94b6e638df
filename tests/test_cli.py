"""Command-line interface: exit codes, file outputs, precedence, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdetaylor import PdeProblem, TaylorExpansion, cli, derivative, get_problem, sample_points, seed_variable
from pdetaylor.bench import default_exclusion
from pdetaylor.series import log

PI = math.pi


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# -- bench -------------------------------------------------------------------


def test_bench_heat_passes_and_writes_report(tmp_path, capsys):
    code = cli.main(["bench", "--problem", "heat", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all accuracy bounds hold" in out
    assert "problem: heat" in out
    assert (tmp_path / "bench_heat.csv").exists()


def test_bench_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["bench", "--problem", "wave", "--out", str(a)]) == 0
    assert cli.main(["bench", "--problem", "wave", "--out", str(b)]) == 0
    assert (a / "bench_wave.csv").read_bytes() == (b / "bench_wave.csv").read_bytes()


def test_bench_without_oracle_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["bench", "--problem", "burgers", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "no exact solution" in err
    assert "problems:" in err


# -- derive -------------------------------------------------------------------


def test_derive_exports_closed_form_derivatives(tmp_path):
    code = cli.main(
        ["derive", "--problem", "heat", "--order", "2", "--points", "7",
         "--seed", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    header, rows = read_rows(tmp_path / "derivatives_heat.csv")
    assert header == "component,order,x,value"
    assert len(rows) == 3 * 7
    kappa = -0.4 * PI**2
    expected_x = sample_points(get_problem("heat"), 7, default_exclusion(get_problem("heat")), 5)
    for m, i, x, v in ((int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows):
        assert m == 0
        assert v == pytest.approx(kappa**i * math.sin(PI * x), rel=1e-12)
    got_x = sorted({float(r[2]) for r in rows})
    np.testing.assert_allclose(got_x, np.sort(expected_x), rtol=0, atol=0)


def test_derive_default_order_and_points(tmp_path):
    code = cli.main(["derive", "--problem", "allen_cahn", "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_rows(tmp_path / "derivatives_allen_cahn.csv")
    assert len(rows) == 8 * 100  # orders 0..7 at 100 points


def test_derive_param_override_changes_values(tmp_path):
    code = cli.main(
        ["derive", "--problem", "heat", "--order", "1", "--points", "5",
         "--seed", "1", "--param", "alpha=0.2", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "derivatives_heat.csv")
    first_order = [r for r in rows if r[1] == "1"]
    for r in first_order:
        x, v = float(r[2]), float(r[3])
        assert v == pytest.approx(-0.2 * PI**2 * math.sin(PI * x), rel=1e-12)


# -- taylor --------------------------------------------------------------------


def test_taylor_burgers_default_export(tmp_path):
    code = cli.main(["taylor", "--problem", "burgers", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "taylor_points_burgers.csv")
    assert header == "component,t,x,value"
    assert len(rows) == 500  # 100 points at five horizons
    values = np.array([float(r[3]) for r in rows])
    assert np.isfinite(values).all()
    horizons = sorted({float(r[1]) for r in rows})
    assert horizons == [0.01, 0.02, 0.03, 0.04, 0.05]


def test_taylor_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["taylor", "--problem", "burgers", "--out", str(a)]) == 0
    assert cli.main(["taylor", "--problem", "burgers", "--out", str(b)]) == 0
    assert (
        (a / "taylor_points_burgers.csv").read_bytes()
        == (b / "taylor_points_burgers.csv").read_bytes()
    )


def test_taylor_at_zero_reproduces_initial_profile(tmp_path):
    code = cli.main(
        ["taylor", "--problem", "burgers", "--t1", "0", "--points", "20",
         "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "taylor_points_burgers.csv")
    assert len(rows) == 20
    for r in rows:
        x, v = float(r[2]), float(r[3])
        assert v == pytest.approx(-math.sin(PI * x), abs=1e-15)


def test_taylor_json_format(tmp_path):
    code = cli.main(
        ["taylor", "--problem", "schrodinger", "--points", "6", "--t1", "0.01",
         "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    records = json.loads((tmp_path / "taylor_points_schrodinger.json").read_text())
    assert len(records) == 2 * 6  # both components
    assert set(records[0]) == {"component", "t", "x", "value"}
    assert {r["component"] for r in records} == {0, 1}


def test_taylor_evaluates_each_horizon_once(tmp_path, monkeypatch):
    # every component's values come from one evaluation per horizon, not one
    # per (component, horizon)
    horizons = []
    evaluate = TaylorExpansion.evaluate

    def counted(self, t1):
        horizons.append(t1)
        return evaluate(self, t1)

    monkeypatch.setattr(TaylorExpansion, "evaluate", counted)
    code = cli.main(
        ["taylor", "--problem", "schrodinger", "--points", "4", "--t1", "0.01",
         "--t1", "0.03", "--out", str(tmp_path)]
    )
    assert code == 0
    assert horizons == [0.01, 0.03]
    _, rows = read_rows(tmp_path / "taylor_points_schrodinger.csv")
    assert [(int(r[0]), float(r[1])) for r in rows[::4]] == [(0, 0.01), (0, 0.03), (1, 0.01), (1, 0.03)]


def test_taylor_repeated_t1_flags(tmp_path):
    code = cli.main(
        ["taylor", "--problem", "heat", "--points", "4", "--t1", "0.01",
         "--t1", "0.03", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "taylor_points_heat.csv")
    assert len(rows) == 8


# -- plotdata -------------------------------------------------------------------


def test_plotdata_exports_matching_profiles(tmp_path):
    code = cli.main(["plotdata", "--problem", "diffusion", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "plot_diffusion_t0.1.csv")
    assert header == "x,exact,taylor"
    assert len(rows) == 500
    gap = max(abs(float(r[1]) - float(r[2])) for r in rows)
    assert gap < 1e-13
    xs = [float(r[0]) for r in rows]
    assert -1 < xs[0] < xs[-1] < 1


def test_plotdata_requires_oracle(tmp_path):
    assert cli.main(["plotdata", "--problem", "burgers", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "horizons, named",
    [(["--t1", "0.1", "--t1", "0.10000001"], "plot_diffusion_t0.1.csv"),
     (["--t1", "0.05", "--t1", "0.05"], "plot_diffusion_t0.05.csv")],
    ids=["same-name", "same-horizon"],
)
def test_plotdata_horizons_that_name_one_file_are_a_usage_error(
    tmp_path, capsys, monkeypatch, horizons, named
):
    def no_expansion(*args):
        raise AssertionError("expanded before the horizons were checked")

    monkeypatch.setattr(cli, "compute_expansion", no_expansion)
    out = tmp_path / "out"
    assert cli.main(["plotdata", "--problem", "diffusion", *horizons, "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"would both write {named}" in errors[0]
    assert not out.exists()


def test_plotdata_distinct_horizons_keep_their_files(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli.main(["plotdata", "--problem", "diffusion", "--out", str(one)]) == 0
    assert cli.main(
        ["plotdata", "--problem", "diffusion", "--t1", "0.1", "--t1", "0.05", "--out", str(two)]
    ) == 0
    assert sorted(p.name for p in two.iterdir()) == ["plot_diffusion_t0.05.csv", "plot_diffusion_t0.1.csv"]
    assert (two / "plot_diffusion_t0.1.csv").read_bytes() == (one / "plot_diffusion_t0.1.csv").read_bytes()


# -- configuration and errors ----------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reproducible run\n"
        "problem = heat\n"
        "order = 4\n"
        "points = 9\n"
        "seed = 3\n",
        encoding="utf-8",
    )
    code = cli.main(["derive", "--config", str(cfg), "--order", "2", "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_rows(tmp_path / "derivatives_heat.csv")
    assert len(rows) == 3 * 9  # order came from the flag, points from the file


def test_config_file_t1_list(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat\nt1 = 0.01, 0.02, 0.03\npoints = 5\n", encoding="utf-8")
    code = cli.main(["taylor", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_rows(tmp_path / "taylor_points_heat.csv")
    assert len(rows) == 15


HEAT = get_problem("heat")


def outputs(root):
    files = (p for p in root.rglob("*") if p.suffix in (".csv", ".json"))
    return sorted(p.relative_to(root).as_posix() for p in files)


def only_rows(root):
    (name,) = outputs(root)
    return read_rows(root / name)[1]


def sampled_x(root):
    return sorted({float(r[2]) for r in only_rows(root)})


def fitted_alpha(root):
    first = [(float(r[2]), float(r[3])) for r in only_rows(root) if r[1] == "1"]
    return {round(-v / (PI**2 * math.sin(PI * x)), 12) for x, v in first}


# key: command, config line, flag argv, observation of the output, and the
# expected observation when the value comes from the file, a flag or nowhere.
PRECEDENCE = {
    "problem": ("derive", "problem = heat", ["--problem", "wave"], outputs,
                (["derivatives_heat.csv"], ["derivatives_wave.csv"], "exit 2")),
    "order": ("derive", "order = 2", ["--order", "3"], lambda root: len(only_rows(root)) // 4 - 1,
              (2, 3, 7)),
    "points": ("derive", "points = 3", ["--points", "5"], lambda root: len(only_rows(root)) // 2,
               (3, 5, 100)),
    "seed": ("derive", "seed = 5", ["--seed", "6"], sampled_x,
             tuple(sorted(sample_points(HEAT, 4, default_exclusion(HEAT), s)) for s in (5, 6, 0))),
    "t1": ("taylor", "t1 = 0.01, 0.02", ["--t1", "0.03", "--t1", "0.04"],
           lambda root: sorted({float(r[1]) for r in only_rows(root)}),
           ([0.01, 0.02], [0.03, 0.04], [0.01, 0.02, 0.03, 0.04, 0.05])),
    "tau": ("derive", "tau = 0.5", ["--tau", "0.9"], sampled_x,
            tuple(sorted(sample_points(HEAT, 4, t, 0)) for t in (0.5, 0.9, default_exclusion(HEAT)))),
    "out": ("derive", "out = from_file", ["--out", "from_flag"], outputs,
            (["from_file/derivatives_heat.csv"], ["from_flag/derivatives_heat.csv"],
             ["derivatives_heat.csv"])),
    "format": ("taylor", "format = json", ["--format", "csv"], outputs,
               (["taylor_points_heat.json"], ["taylor_points_heat.csv"], ["taylor_points_heat.csv"])),
    "param": ("derive", "param = alpha=0.2", ["--param", "alpha=0.3"], fitted_alpha,
              ({0.2}, {0.3}, {0.4})),
}
BASE_CONFIG = {"problem": "problem = heat", "order": "order = 1", "points": "points = 4"}


@pytest.mark.parametrize("source", ["file", "flag", "default"])
@pytest.mark.parametrize("key", list(PRECEDENCE))
def test_each_option_comes_from_a_flag_then_the_file_then_the_default(
    tmp_path, monkeypatch, capsys, key, source
):
    command, line, flag, observe, expected = PRECEDENCE[key]
    lines = [v for k, v in BASE_CONFIG.items() if k != key]
    if source != "default":
        lines.append(line)
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", "run.cfg"] + (flag if source == "flag" else [])
    code = cli.main(argv)
    capsys.readouterr()
    got = observe(tmp_path) if code == 0 else f"exit {code}"
    assert got == expected[("file", "flag", "default").index(source)]


def test_config_file_param_list_merges_with_flags_and_t1_flags_replace_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = heat\norder = 1\npoints = 4\nparam = alpha=0.2, mode=2\n", encoding="utf-8"
    )
    assert cli.main(["derive", "--config", "run.cfg", "--param", "alpha=0.3"]) == 0
    rows = only_rows(tmp_path)
    for i, x, v in ((int(r[1]), float(r[2]), float(r[3])) for r in rows):
        assert v == pytest.approx((-0.3 * (2 * PI) ** 2) ** i * math.sin(2 * PI * x), rel=1e-12)
    (tmp_path / "derivatives_heat.csv").unlink()
    cfg.write_text(cfg.read_text(encoding="utf-8") + "t1 = 0.01, 0.02\n", encoding="utf-8")
    assert cli.main(["taylor", "--config", "run.cfg", "--t1", "0.03"]) == 0
    assert sorted({float(r[1]) for r in only_rows(tmp_path)}) == [0.03]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat\ngrid = 5\n", encoding="utf-8")
    assert cli.main(["derive", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


# The options each subcommand reads; it takes no other flag or config key.
OPTIONS_READ = {
    "bench": {"problem", "order", "points", "seed", "t1", "tau", "out", "param"},
    "derive": {"problem", "order", "points", "seed", "tau", "out", "param"},
    "taylor": {"problem", "order", "points", "seed", "t1", "tau", "out", "format", "param"},
    "plotdata": {"problem", "order", "points", "t1", "out", "param"},
}
UNREAD = [
    ("derive", "t1", "0.5"), ("derive", "format", "json"), ("plotdata", "seed", "4"),
    ("plotdata", "tau", "0.9"), ("plotdata", "format", "json"), ("bench", "format", "csv"),
]


def help_text(command, capsys):
    assert cli.main([command, "--help"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(OPTIONS_READ))
def test_each_subcommand_help_lists_exactly_its_options(command, capsys):
    options = help_text(command, capsys).split("options:")[1]
    assert set(re.findall(r"^  --(\w+)", options, re.M)) == OPTIONS_READ[command] | {"config"}


@pytest.mark.parametrize("command", list(OPTIONS_READ))
def test_each_subcommand_help_names_every_problem(command, capsys):
    text = " ".join(help_text(command, capsys).split())
    for name in ("heat", "diffusion", "wave", "burgers", "allen_cahn", "schrodinger"):
        assert name in text


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, key, value", UNREAD)
def test_option_a_subcommand_does_not_read_is_a_usage_error(
    tmp_path, capsys, command, key, value, source
):
    cfg = tmp_path / "run.cfg"
    extra_line = f"{key} = {value}\n" if source == "file" else ""
    cfg.write_text(f"problem = heat\norder = 1\npoints = 3\n{extra_line}", encoding="utf-8")
    flags = [f"--{key}", value] if source == "flag" else []
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert ("unrecognized arguments" if source == "flag" else "unknown key") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", UNREAD)
def test_an_unread_flag_is_reported_with_the_subcommand_usage(
    tmp_path, capsys, command, key, value
):
    out = str(tmp_path / "out")
    assert cli.main([command, "--problem", "heat", "--out", out, f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pdetaylor {command} [-h]")
    assert f"pdetaylor {command}: error: unrecognized arguments: --{key} {value}" in err


@pytest.mark.parametrize("command", ["bench", "taylor", "plotdata"])
def test_empty_horizon_list_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat\norder = 1\npoints = 3\nt1 =\n", encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{command} needs at least one --t1 horizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("format = xml", "--format must be csv or json, got 'xml'"),
        ("order = two", "config key 'order': cannot parse 'two'"),
        ("t1 = 0.01, soon", "config key 't1': cannot parse '0.01, soon'"),
    ],
)
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = heat\n{line}\n", encoding="utf-8")
    assert cli.main(["taylor", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert cli.main(["derive", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_unknown_problem(tmp_path, capsys):
    assert cli.main(["derive", "--problem", "advection", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "problems:" in err and "heat" in err


def test_no_problem_selected(capsys):
    assert cli.main(["derive"]) == 2
    assert "no problem selected" in capsys.readouterr().err


def test_unknown_parameter_key(tmp_path):
    assert (
        cli.main(["derive", "--problem", "heat", "--param", "beta=1", "--out", str(tmp_path)])
        == 2
    )


def test_malformed_parameter(tmp_path, capsys):
    assert cli.main(["derive", "--problem", "heat", "--param", "alpha", "--out", str(tmp_path)]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_order_out_of_range(tmp_path):
    for bad in ("0", "25"):
        assert cli.main(["derive", "--problem", "heat", "--order", bad, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "--problem", "heat", "--order", "0"], "error: --order must be in 1..20, got 0\n"),
        (["taylor", "--problem", "heat", "--t1", "1.5"], "error: t1=1.5 outside [0, 1] for problem heat\n"),
    ],
    ids=["order", "horizon"],
)
def test_usage_error_that_is_not_about_the_problem_prints_one_line(argv, message, tmp_path, capsys):
    # the list of problems follows only an unknown problem or one without
    # the closed form a command needs
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == message


def test_horizon_beyond_problem_end(tmp_path):
    assert cli.main(["taylor", "--problem", "heat", "--t1", "1.5", "--out", str(tmp_path)]) == 2
    assert cli.main(["taylor", "--problem", "heat", "--t1", "-0.1", "--out", str(tmp_path)]) == 2


def test_non_finite_horizon_is_a_usage_error(tmp_path, capsys):
    for bad in ("nan", "inf", "-inf"):
        assert cli.main(["taylor", "--problem", "heat", f"--t1={bad}", "--out", str(tmp_path)]) == 2
        assert "outside [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, offending",
    [
        (["bench", "--problem", "heat", "--param", "alpha=nan"],
         "'alpha' of problem 'heat' must be finite, got nan"),
        (["derive", "--problem", "burgers", "--param", "viscosity=inf"],
         "'viscosity' of problem 'burgers' must be finite, got inf"),
        (["derive", "--problem", "heat", "--param", "length=0"],
         "'length' of problem 'heat' must be positive, got 0.0"),
        (["derive", "--problem", "heat", "--param", "length=-1"],
         "'length' of problem 'heat' must be positive, got -1.0"),
        (["derive", "--problem", "allen_cahn", "--tau", "nan"],
         "exclusion threshold must be >= 0, got nan"),
        (["derive", "--problem", "heat", "--param", "alpha=-1"],
         "'alpha' of problem 'heat' must be non-negative, got -1.0"),
        (["taylor", "--problem", "burgers", "--param", "viscosity=-1"],
         "'viscosity' of problem 'burgers' must be non-negative, got -1.0"),
        (["derive", "--problem", "allen_cahn", "--param", "diffusion=-1"],
         "'diffusion' of problem 'allen_cahn' must be non-negative, got -1.0"),
        (["derive", "--problem", "heat", "--param", "mode=1.5"],
         "'mode' of problem 'heat' must be an integer, got 1.5"),
        (["taylor", "--problem", "wave", "--param", "second_mode=2.5"],
         "'second_mode' of problem 'wave' must be an integer, got 2.5"),
        (["derive", "--problem", "heat", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_bad_parameter_or_threshold_is_a_usage_error(tmp_path, capsys, argv, offending):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert offending in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "ic, rhs, message",
    [
        (lambda seed: [seed * 0.0 + 1.0], lambda u, u_x, u_xx, t, x: [log(u[0] * 0.0 - 1.0)],
         "log requires every constant-term entry positive"),
        (lambda seed: [derivative(seed_variable(seed.constant_term, seed.order), seed.order + 1)],
         lambda u, u_x, u_xx, t, x: [u[0]],
         "cannot produce derivative order"),
    ],
    ids=["lift-domain", "jet-order"],
)
def test_numerical_failure_exits_1_although_it_is_a_value_error(
    tmp_path, capsys, monkeypatch, ic, rhs, message
):
    toy = PdeProblem(
        name="toy", components=1, domain=(-1.0, 1.0), t_end=1.0, params={}, ic=ic, rhs=rhs,
        ic_numpy=lambda x: [np.ones_like(x)], rhs_numpy=lambda u, u_x, u_xx, t, x: [u[0]],
    )
    monkeypatch.setattr(cli, "get_problem", lambda name, params=None: toy)
    assert cli.main(["taylor", "--problem", "heat", "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _run_warning_loud(argv):
    """Run the CLI in a fresh interpreter that shows every RuntimeWarning on
    stderr, as a plain run does."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "pdetaylor.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )


def test_divergence_prints_its_error_line_and_no_numpy_warnings(tmp_path):
    run = _run_warning_loud(
        ["taylor", "--problem", "allen_cahn", "--param", "reaction=1e150", "--order", "20",
         "--out", str(tmp_path)]
    )
    assert run.returncode == 1
    assert run.stderr == "error: non-finite expansion coefficient at order 3 (component 0)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["taylor", "derive"])
def test_non_finite_initial_condition_diverges_at_order_0(tmp_path, command):
    # sin(inf * x) is NaN already in C_0; sampling the points must not warn either
    run = _run_warning_loud(
        [command, "--problem", "heat", "--param", "mode=1e308", "--order", "2", "--points", "3",
         "--out", str(tmp_path)]
    )
    assert run.returncode == 1
    assert run.stderr == "error: non-finite expansion coefficient at order 0 (component 0)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, error",
    [
        # C_10 is finite, 10! * C_10 is not
        (["derive", "--problem", "heat", "--param", "alpha=1e30", "--points", "3"],
         "time derivative of order 10 (component 0) overflows"),
        (["bench", "--problem", "heat", "--param", "alpha=1e30", "--t1", "0.01"],
         "time derivative of order 10 (component 0) overflows"),
        # the expansion's derivatives are finite; V's closed form at order 10
        # needs speed**11
        (["bench", "--problem", "wave", "--param", "speed=1e30", "--t1", "0.01"],
         "closed-form time derivative of order 10 overflows"),
    ],
    ids=["derive-heat", "bench-heat", "bench-wave"],
)
def test_overflowing_derivatives_print_one_error_line(tmp_path, argv, error):
    run = _run_warning_loud([*argv, "--order", "10", "--out", str(tmp_path)])
    assert run.returncode == 1
    assert run.stderr == f"error: {error}\n"
    assert not list(tmp_path.iterdir())


def test_out_pointing_at_a_file_is_a_usage_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    run = _run_warning_loud(
        ["derive", "--problem", "heat", "--order", "2", "--points", "3", "--out", str(taken)]
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["derive", "plotdata"])
def test_points_beyond_memory_print_one_error_line(tmp_path, command):
    # 10**17 doubles are 800 PB, past any address space, so the allocation
    # fails at once whatever the kernel's overcommit policy; 2 * 10**18 and
    # 2**63 are more doubles than one numpy array can index, and are refused
    # before any allocation
    for points in (10**17, 2 * 10**18, 2**63):
        run = _run_warning_loud(
            [command, "--problem", "heat", "--order", "2", "--points", str(points), "--out", str(tmp_path)]
        )
        assert run.returncode == 1, points
        assert run.stderr.startswith("error: out of memory: ") and run.stderr.count("\n") == 1
        assert "Traceback" not in run.stderr
        assert not list(tmp_path.iterdir())


def test_argparse_level_errors_map_to_exit_codes(capsys):
    assert cli.main([]) == 2  # a subcommand is required
    assert cli.main(["derive", "--format", "xml"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# -- start-up -------------------------------------------------------------------

_IMPORT_PROBE = """
import json, sys

attempts = []


class Refuse:
    # an import of a refused package raises, and is recorded in case the
    # error is caught
    refused = ["scipy"]

    def find_spec(self, name, path=None, target=None):
        if any(name == r or name.startswith(r + ".") for r in self.refused):
            attempts.append(name)
            raise ImportError(f"{name} is not to be imported")
        return None


refuse = Refuse()
sys.meta_path.insert(0, refuse)

import numpy as np

# numpy 1.x imports numpy.random itself, and a finder never sees a module
# that is loaded already; numpy 2.x loads it on first use
refuse.refused.append("numpy.random")
numpy_own = {m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"]}

import pdetaylor, pdetaylor.cli
from pdetaylor import cli, get_problem, reference_solve

out = sys.argv[1]
codes = [
    cli.main(["taylor", "--problem", "burgers", "--order", "2", "--points", "5", "--out", out]),
    cli.main(["bench", "--problem", "heat", "--points", "5", "--out", out]),
    cli.main(["derive", "--problem", "allen_cahn", "--order", "2", "--points", "5", "--out", out]),
]
# burgers has Dirichlet ends, allen_cahn is periodic
values = [v for name in ("burgers", "allen_cahn")
          for v in reference_solve(get_problem(name), np.linspace(-1.0, 1.0, 7), 1e-4)]
random = sorted(m for m in sys.modules
                if m.split(".")[:2] == ["numpy", "random"] and m not in numpy_own)
print(json.dumps({"codes": codes, "refused": attempts, "numpy.random": random,
                  "finite": all(bool(np.isfinite(v).all()) for v in values)}))
"""


def test_no_run_of_the_package_imports_scipy_or_numpy_random(tmp_path):
    # a fresh interpreter, so that nothing this suite imported is loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["refused"] == []
    assert result["numpy.random"] == []
    assert result["finite"]
