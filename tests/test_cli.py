import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import bicforge as bf
from bicforge import cli, solver
from bicforge.errors import GridTooCoarse, NoSolutionInRange


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "bicforge.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def load_schema(name: str) -> dict:
    text = resources.files("bicforge.schemas").joinpath(name).read_text()
    return json.loads(text)


REPORT_SCHEMA = load_schema("report.schema.json")
MODEL_SCHEMA = load_schema("model.schema.json")


def check_report(stdout: str) -> dict:
    doc = json.loads(stdout)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


def test_delta_bound_single():
    rc, out, _ = run_cli("delta-bound", "--lambda", "-1", "--mass", "1")
    assert rc == 0
    doc = check_report(out)
    r = doc["results"]
    assert r["e_b"] == pytest.approx(-0.5)
    assert r["kappa"] == pytest.approx(1.0)
    assert r["boundary_residual_norm"] < 1e-12


def test_delta_bound_two_band():
    rc, out, _ = run_cli("delta-bound", "--two-band", "--mu", "0", "--g", "1",
                         "--lambda", "-1")
    assert rc == 0
    r = check_report(out)["results"]
    assert r["e_b"] == pytest.approx(0.875)
    assert r["lambda_c"] == pytest.approx(-4.0)
    assert r["verdict"] == "QuasiBIC"
    labels = sorted(p["label"] for p in r["poles"])
    assert labels == ["LowerHalf", "Real", "Real", "UpperHalf"]


def test_pole_table_order_does_not_follow_rounding_noise():
    # a real pole's Im and the evanescent pair's Re are rounding noise of
    # about 1e-16; ordered by them, the UpperHalf and LowerHalf rows of the
    # spin-orbit model traded places between these energies
    model = bf.soc_model(gamma=0.5, mu=1.0)
    tables = [cli._pole_table(model, 0.6917497 + d) for d in (0.0, 1e-15, 3e-15)]
    assert [row["label"] for row in tables[0]] == ["Real", "Real", "UpperHalf", "LowerHalf"]
    assert [row["im"] for row in tables[0][:2]] == [0.0, 0.0]
    for table in tables[1:]:
        assert [row["label"] for row in table] == [row["label"] for row in tables[0]]
        for row, first in zip(table, tables[0]):
            assert (row["re"], row["im"]) == pytest.approx((first["re"], first["im"]), abs=1e-12)


def test_delta_bound_repulsive_exit_code():
    rc, out, err = run_cli("delta-bound", "--lambda", "1")
    assert rc == 2
    assert "no bound state" in err


def test_delta_bound_wave_file(tmp_path):
    wave = tmp_path / "wave.tsv"
    rc, out, _ = run_cli("delta-bound", "--two-band", "--mu", "0.3", "--g", "0.8",
                         "--lambda", "-1", "--wave-out", str(wave))
    assert rc == 0
    lines = wave.read_text().splitlines()
    assert lines[0].startswith("# x ")
    data = np.loadtxt(wave)
    assert data.shape[1] == 1 + 2 * 2  # x plus Re/Im per channel


def test_bic_verify_small_grid(tmp_path):
    spec_file = tmp_path / "fq.tsv"
    rc, out, _ = run_cli("bic-verify", "--model", "soc", "--gamma", "0.5",
                         "--nu", "0.7", "--mu", "1", "--n-points", "1024",
                         "--spectrum-out", str(spec_file))
    assert rc == 0
    r = check_report(out)["results"]
    assert r["verdict"] == "ExactBIC"
    assert r["residual_rel"] < 1e-3
    assert abs(abs(r["real_poles"][0]) - 2.06325) < 1e-3
    # spectrum file: component magnitude at the pole is tiny vs its peak
    data = np.loadtxt(spec_file)
    qs = data[:, 0]
    f1 = np.hypot(data[:, 1], data[:, 2])
    at_pole = f1[np.argmin(np.abs(qs - r["real_poles"][1]))]
    assert at_pole < 5e-3 * f1.max()


def test_spectrum_out_matches_fourier_residual(tmp_path, monkeypatch, capsys):
    seen = []

    def spy(state, pot, b, *args):
        seen.append((state, pot, b))
        return bf.fourier_line(state, pot, b, *args)

    monkeypatch.setattr(cli, "fourier_line", spy)
    spec_file = tmp_path / "fq.tsv"
    rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                   "--n-points", "1024", "--spectrum-out", str(spec_file)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    (state, pot, b), = seen
    q_max = 2.0 * max(abs(p) for p in check_report(captured.out)["results"]["real_poles"])
    qs = np.linspace(-q_max, q_max, 801)
    data = np.loadtxt(spec_file)
    assert np.allclose(data[:, 0], qs, rtol=0, atol=1e-12 * q_max)
    want = bf.fourier_residual(state, pot, b, qs)
    got = data[:, 1::2] + 1j * data[:, 2::2]
    assert got.shape == want.shape
    # per channel: a real or imaginary part alone can be pure roundoff
    assert (np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0)).all()


def test_bic_verify_usage_error():
    rc, _, err = run_cli("bic-verify", "--model", "soc", "--gamma", "0.5",
                         "--nu", "0.7")
    assert rc == 1
    assert "--mu" in err


def test_bic_verify_deterministic():
    args = ("bic-verify", "--model", "soc", "--gamma", "0.5", "--nu", "0.7",
            "--mu", "1", "--n-points", "1024")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_bic_verify_model_file_roundtrip(tmp_path):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    pots = [{"variant": "soc_bic", "gamma": 0.5, "nu": 0.7}, {"variant": "none"}]
    path = tmp_path / "model.json"
    bf.save_model(path, model, pots)
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, MODEL_SCHEMA)
    loaded, pot_docs = bf.load_model(path)
    assert loaded.n_bands == 2
    assert np.allclose(loaded.a1, model.a1)

    e0 = bf.e_bic_analytic(0.5, 0.7, 1.0)
    rc, out, _ = run_cli("bic-verify", "--model-file", str(path),
                         "--n-points", "1024", "--mesh-points", "5",
                         "--e-window", f"{e0-0.02}:{e0+0.02}")
    assert rc == 0
    r = check_report(out)["results"]
    assert r["verdict"] == "ExactBIC"
    assert r["energy"] == pytest.approx(e0, abs=1e-3)


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_bands": 2, "mass": 1.0}')
    rc, _, err = run_cli("bic-verify", "--model-file", str(bad),
                         "--e-window", "0:1")
    assert rc == 1


def _soc_model_file(tmp_path, pots) -> str:
    path = tmp_path / "model.json"
    bf.save_model(path, bf.soc_model(gamma=0.5, mu=1.0), pots)
    return str(path)


@pytest.mark.parametrize("pots, fragment", [
    ([{"variant": "mystery"}, None], "unknown potential variant 'mystery'"),
    ([{"variant": "delta"}, None], "missing key 'strength'"),
    ([{"variant": "tabulated", "path": "no-such-table.tsv"}, None], "no-such-table.tsv"),
    ([{"variant": "soc_bic", "gamma": 0.5, "nu": 0.7}], "one potential entry per channel"),
    (["delta", None], "must be an object or null"),
], ids=["unknown_variant", "missing_key", "unreadable_table", "wrong_entry_count",
        "not_an_object"])
def test_model_file_bad_potential_entry_exit_usage(tmp_path, capsys, pots, fragment):
    rc = cli.main(["bic-verify", "--model-file", _soc_model_file(tmp_path, pots),
                   "--n-points", "1024", "--mesh-points", "5", "--e-window", "0.67:0.71"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("bicforge: ") and fragment in captured.err
    assert captured.err.count("\n") == 1


SOC_POTS = [{"variant": "soc_bic", "gamma": 0.5, "nu": 0.7}, {"variant": "none"}]


@pytest.mark.parametrize("extra, flags", [
    (("--gamma", "9"), "--gamma"),
    (("--nu", "0.7"), "--nu"),
    (("--mu", "1"), "--mu"),
    (("--scale", "0.5"), "--scale"),
    (("--mass", "2"), "--mass"),
    (("--scale", "0.5", "--gamma", "9"), "--gamma, --scale"),
], ids=["gamma", "nu", "mu", "scale", "mass", "scale_and_gamma"])
def test_model_file_refuses_flags_it_does_not_read(tmp_path, capsys, monkeypatch,
                                                   extra, flags):
    # these were echoed in params while the file's model was solved as it is
    monkeypatch.setattr(cli, "find_energy", lambda *a, **k: pytest.fail("solved"))
    rc = cli.main(["bic-verify", "--model-file", _soc_model_file(tmp_path, SOC_POTS),
                   "--n-points", "1025", "--e-window=0.67:0.71", *extra])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"bicforge: --model-file does not take {flags}: ")
    assert captured.err.count("\n") == 1


def test_model_file_takes_unit_scale_and_mass(tmp_path, monkeypatch):
    def stub(*args, **kwargs):
        raise NoSolutionInRange("stub")

    monkeypatch.setattr(cli, "find_energy", stub)
    rc = cli.main(["bic-verify", "--model-file", _soc_model_file(tmp_path, SOC_POTS),
                   "--n-points", "1025", "--e-window=0.67:0.71", "--scale", "1",
                   "--mass", "1.0"])
    assert rc == cli.EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("argv, message", [
    (["delta-bound", "--lambda", "-1", "--mu", "0.3", "--g", "5"],
     "bicforge: single-band delta-bound does not take --mu, --g: "),
    (["delta-bound", "--b1", "-1", "--mu", "1", "--g", "1", "--lambda", "7"],
     "bicforge: general-B delta-bound does not take --lambda: "),
    (["oracle", "--single-band", "--lambda", "-1", "--target", "-0.5", "--n", "512",
      "--gamma", "9", "--nu", "3"], "bicforge: oracle --single-band does not take --gamma, --nu\n"),
    (["oracle", "--two-band", "--mu", "0.3", "--g", "1", "--lambda", "-1", "--target", "0.5",
      "--n", "512", "--gamma", "3", "--nu", "2"],
     "bicforge: oracle --two-band does not take --gamma, --nu\n"),
    (["oracle", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--target", "0.5", "--n", "512",
      "--lambda", "-1", "--g", "1"],
     "bicforge: the spin-orbit oracle does not take --lambda, --g\n"),
    (["kernel-check", "--mu", "0.3", "--g", "5"],
     "bicforge: kernel-check without --energies does not take --mu, --g\n"),
    (["oracle", "--single-band", "--two-band", "--lambda", "-1", "--target", "-0.5"],
     "bicforge oracle: error: argument --two-band: not allowed with argument --single-band\n"),
], ids=["delta_single_mu_g", "delta_general_b_lambda", "oracle_single_gamma_nu",
        "oracle_two_band_gamma_nu", "oracle_soc_lambda_g", "kernel_check_mu_g",
        "oracle_single_and_two_band"])
def test_modes_refuse_flags_they_do_not_read(capsys, argv, message):
    # each of these solved its mode, exited 0 and echoed the unread values in params
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage error
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_negative_nu_warns_as_positive_nu_does(capsys):
    # the well depends on nu through cosh, so -nu decays at rate 2|nu|; the
    # coverage check read 2 nu = -1.4 and warned
    for nu in ("0.7", "-0.7"):
        rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", nu, "--mu", "1",
                       "--n-points", "1024"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert check_report(captured.out)["status"] == "ok"
        assert captured.err == ""


def test_soc_bic_well_past_cosh_overflow_reads_exact_bic(capsys):
    # at half-width 1100 more than half the well's samples were NaN: the
    # report read QuasiBIC with a null residual after four warning lines
    rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                   "--half-width", "1100", "--n-points", "16384"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (cli.EXIT_OK, "")
    results = check_report(captured.out)["results"]
    assert results["verdict"] == "ExactBIC" and results["residual_rel"] < 1e-3


def test_bic_verify_sizes_its_mesh_for_fast_poles(capsys, mesh_of):
    # at mu = 2 the rescaled window's real poles reach |p| ~ 3: a fixed
    # 512-point mesh grid on half-width 30 gives dx*p ~ 0.35 and fails
    kernels, _ = mesh_of(bf.soc_model(gamma=0.5, mu=2.0), bf.Grid.symmetric(30.0, 4096),
                         *cli._soc_window(0.5, 0.7, 2.0, 0.3, 0.2), 48)
    with pytest.raises(GridTooCoarse, match="dx.p = 0.3"):
        for kernel in kernels:
            solver._check_grid(kernel, bf.Grid.symmetric(30.0, 512))
    rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "2",
                   "--scale", "0.9"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert check_report(captured.out)["results"]["all_energies"] == [
        pytest.approx(1.71803, abs=1e-5)]


def test_model_file_sizes_its_mesh_for_a_wide_band_spread(tmp_path, capsys, mesh_of):
    # a0 = 0.8 (sigma_z + sigma_x) spreads its bands by 2.26 > 1.84: at
    # half-width 40 a fixed 512-point mesh grid cannot resolve the real poles
    # near the window's top, where |p| reaches sqrt(2 * 2.26)
    model = bf.two_band_model(0.8, 0.8)
    path = tmp_path / "model.json"
    bf.save_model(path, model, [{"variant": "delta", "strength": -1.0}, None])
    edge = float(np.sqrt(1.28)) * (1.0 - 1e-4)
    kernels, _ = mesh_of(model, bf.Grid.symmetric(40.0, 2049), -edge, edge, 48)
    with pytest.raises(GridTooCoarse):
        for kernel in kernels:
            solver._check_grid(kernel, bf.Grid.symmetric(40.0, 512))
    rc = cli.main(["bic-verify", "--model-file", str(path), "--n-points", "2049",
                   "--half-width", "40", "--mesh-points", "48", f"--e-window={-edge!r}:{edge!r}"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert check_report(captured.out)["results"]["all_energies"] == [
        pytest.approx(0.7670941546, abs=1e-8)]


def test_warning_prints_as_one_line(tmp_path, capsys):
    # Python's format named the source file and line of the find_energy call
    # and echoed that line. The rate is the kernel's at the root the report
    # reads (0.296751 was a mesh probe's)
    path = tmp_path / "model.json"
    bf.save_model(path, bf.two_band_model(0.3, 1.0), [{"variant": "delta", "strength": -1.0}, None])
    rc = cli.main(["bic-verify", "--model-file", str(path), "--e-window=0.5:1.0",
                   "--n-points", "1025", "--half-width", "10", "--mesh-points", "12"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert check_report(captured.out)["status"] == "ok"
    assert captured.err == ("bicforge: warning: grid half-width 10 is under 10 decay "
                            "lengths (rate 0.643674)\n")


@pytest.mark.parametrize("command", [
    ["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1"],
    ["scan", "--param", "scale", "--range", "0.9:1.1:3",
     "--gamma", "0.5", "--nu", "0.7", "--mu", "1"],
], ids=["bic-verify", "scan"])
@pytest.mark.parametrize("bad, flag", [
    (("--n-points", "10"), "--n-points"),
    (("--n-points", "-5"), "--n-points"),
    (("--half-width", "-5"), "--half-width"),
    (("--half-width", "0"), "--half-width"),
], ids=["n_points_10", "n_points_neg", "half_width_neg", "half_width_0"])
def test_grid_bad_arguments_exit_usage(capsys, command, bad, flag):
    rc = cli.main([*command, *bad])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"bicforge: {flag} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["delta-bound", "--lambda", "nan"], "--lambda"),
    (["delta-bound", "--lambda", "-1", "--mass", "inf"], "--mass"),
    (["delta-bound", "--two-band", "--mu", "0.3", "--g=-inf", "--lambda", "-1"], "--g"),
    (["bic-verify", "--gamma", "0.5", "--nu", "nan", "--mu", "1"], "--nu"),
    (["scan", "--param", "scale", "--range", "0.9:1.1:3", "--gamma", "0.5",
      "--nu", "0.7", "--mu", "1", "--half-width", "inf"], "--half-width"),
    (["oracle", "--single-band", "--lambda", "-1", "--target", "NaN"], "--target"),
], ids=["lambda_nan", "mass_inf", "g_neg_inf", "nu_nan", "half_width_inf", "target_nan"])
def test_non_finite_float_exit_usage(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_USAGE
    assert captured.out == ""
    assert f"argument {flag}: must be finite" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, dest, value", [
    (["delta-bound", "--two-band", "--mu", "-9.6e-05", "--g", "1", "--lambda", "-1"],
     "mu", -9.6e-05),
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--scale", "-1E-1"],
     "scale", -0.1),
    (["scan", "--param", "scale", "--range", "0.9:1.1:3", "--gamma", "-5e-1",
      "--nu", "0.7", "--mu", "1"], "gamma", -0.5),
    (["oracle", "--single-band", "--lambda", "-1", "--target", "-.5e+0"], "target", -0.5),
], ids=["delta-bound", "bic-verify", "scan", "oracle"])
def test_negative_exponent_notation_is_a_value(argv, dest, value):
    # argparse took "-9.6e-05" for an option and exited 1 with "expected
    # one argument"
    assert getattr(cli.build_parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("argv, message", [
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--n-points", "1024",
      "--e-window", "0.6:inf"],
     "bicforge: --e-window must be lo:hi, two finite numbers, got '0.6:inf'\n"),
    (["scan", "--param", "scale", "--range", "0.9:inf:2", "--gamma", "0.5", "--nu", "0.7",
      "--mu", "1", "--n-points", "1024"],
     "bicforge: --range must be lo:hi:steps, finite lo and hi and an integer step "
     "count, got '0.9:inf:2'\n"),
], ids=["e_window_inf", "range_inf"])
def test_non_finite_window_and_range_exit_usage(capsys, argv, message):
    # was a LinAlgError traceback (window) and rows with param nan and inf (range)
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("argv", [
    ("--lambda", "-1", "--mass", "0"),
    ("--b1", "-1", "--mu", "1", "--g", "1", "--mass", "-2"),
    ("--two-band", "--mu", "1", "--g", "1", "--lambda", "-1", "--mass", "0"),
], ids=["single_band", "general_b", "two_band"])
def test_delta_bound_bad_mass_exit_usage(argv):
    # the model is built before the closed forms: no traceback, no warning
    rc, out, err = run_cli("delta-bound", *argv)
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err == "bicforge: mass must be positive\n"


@pytest.mark.parametrize("command", [
    ["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--scale", "0.9"],
    ["scan", "--param", "scale", "--range", "0.9:1.1:3",
     "--gamma", "0.5", "--nu", "0.7", "--mu", "1"],
], ids=["bic-verify", "scan"])
@pytest.mark.parametrize("mesh", ["-3", "0", "1"])
def test_mesh_points_below_two_exit_usage(capsys, command, mesh):
    rc = cli.main([*command, "--mesh-points", mesh])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"bicforge: --mesh-points must be >= 2, got {mesh}\n"


@pytest.mark.parametrize("extra, mesh", [
    ([], 7),
    (["--mesh-points", "3"], 3),
    (["--scale", "0.9"], 48),
    (["--e-window", "0.67:0.71"], 48),
    (["--scale", "0.9", "--mesh-points", "5"], 5),
], ids=["default", "explicit", "rescaled", "window", "rescaled_explicit"])
def test_bic_verify_mesh_points_honoured(monkeypatch, extra, mesh):
    seen = []

    def stub(*args, mesh_points, **kwargs):
        seen.append(mesh_points)
        raise NoSolutionInRange("stub")

    monkeypatch.setattr(cli, "find_energy", stub)
    rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                   "--n-points", "1024", *extra])
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert seen == [mesh]


def test_bic_verify_reports_mesh_points_used(capsys):
    rc = cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                   "--n-points", "1024"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert check_report(captured.out)["params"]["mesh_points"] == 7


def test_missing_model_file_exit_usage(tmp_path, capsys):
    rc = cli.main(["bic-verify", "--model-file", str(tmp_path / "nope.json"),
                   "--e-window", "0:1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith(f"bicforge: model file {tmp_path / 'nope.json'}: ")
    assert captured.err.count("\n") == 1


def test_model_file_not_utf8_exit_usage(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    rc = cli.main(["bic-verify", "--model-file", str(path), "--e-window", "0:1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith(f"bicforge: model file {path}: not UTF-8")
    assert captured.err.count("\n") == 1


def test_model_file_potentials_not_a_list_exit_usage(tmp_path, capsys):
    path = _soc_model_file(tmp_path, {"variant": "soc_bic", "gamma": 0.5, "nu": 0.7})
    rc = cli.main(["bic-verify", "--model-file", path, "--e-window", "0:1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith("bicforge: ")
    assert "'potentials' must be a list" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_tabulated_path_resolves_from_model_file(tmp_path, monkeypatch, capsys, absolute):
    # mf/tab.json names its table by a path relative to mf/, and the run
    # starts in mf's parent directory
    folder = tmp_path / "mf"
    folder.mkdir()
    xs = np.linspace(-30.0, 30.0, 6001)
    np.savetxt(folder / "tab.txt", np.column_stack([xs, bf.potential_soc_bic(0.5, 0.7, xs)]))
    table = str(folder / "tab.txt") if absolute else "tab.txt"
    bf.save_model(folder / "tab.json", bf.soc_model(gamma=0.5, mu=1.0),
                  [{"variant": "tabulated", "path": table}, None])
    monkeypatch.chdir(tmp_path)
    e0 = bf.e_bic_analytic(0.5, 0.7, 1.0)
    rc = cli.main(["bic-verify", "--model-file", "mf/tab.json", "--n-points", "1024",
                   "--mesh-points", "3", "--e-window", f"{e0 - 0.02}:{e0 + 0.02}"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert json.loads(captured.out)["results"]["energy"] == pytest.approx(e0, abs=1e-3)


def test_scan_ignores_jobs_environment(monkeypatch, capsys):
    # worker counts are gone: neither a malformed BICFORGE_JOBS nor --jobs
    # changes what scan does
    monkeypatch.setenv("BICFORGE_JOBS", "abc")
    rc = cli.main(["scan", "--param", "scale", "--range", "1:1:0", "--jobs", "3",
                   "--gamma", "0.5", "--nu", "0.7", "--mu", "1"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out == "param,energy,residual_rel,tail_rel,verdict\n"


def test_scan_rows_and_errors(tmp_path):
    out_file = tmp_path / "scan.csv"
    rc, out, _ = run_cli("scan", "--param", "nu", "--range", "0.6:0.8:3",
                         "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                         "--n-points", "1024", "--mesh-points", "7",
                         "--jobs", "2", "--out", str(out_file))
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,energy,residual_rel,tail_rel,verdict"
    assert len(lines) == 4
    assert out_file.read_text() == out


def test_scan_deterministic_across_jobs():
    args = ("scan", "--param", "scale", "--range", "0.95:1.05:3",
            "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
            "--n-points", "1024", "--mesh-points", "9")
    rc1, out1, _ = run_cli(*args, "--jobs", "1")
    rc2, out2, _ = run_cli(*args, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_scan_malformed_range():
    rc, _, _ = run_cli("scan", "--param", "scale", "--range", "1:0:-5",
                       "--gamma", "0.5", "--nu", "0.7", "--mu", "1")
    assert rc == 1


def test_scan_unknown_param_is_one_argparse_line(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--param", "foo", "--range", "0.9:1.1:3",
                  "--gamma", "0.5", "--nu", "0.7", "--mu", "1"])
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "argument --param: invalid choice: 'foo'" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_scan_empty_range():
    rc, out, _ = run_cli("scan", "--param", "scale", "--range", "1:1:0",
                         "--gamma", "0.5", "--nu", "0.7", "--mu", "1")
    assert rc == 0
    assert out.strip() == "param,energy,residual_rel,tail_rel,verdict"


def test_oracle_single_band():
    rc, out, _ = run_cli("oracle", "--single-band", "--lambda", "-1",
                         "--target", "-0.5", "--k", "3", "--n", "2048")
    assert rc == 0
    r = check_report(out)["results"]
    assert r["states"][0]["energy"] == pytest.approx(-0.5, abs=1e-2)


def test_oracle_grid_too_large():
    rc, _, err = run_cli("oracle", "--single-band", "--lambda", "-1",
                         "--target", "-0.5", "--n", "100000")
    assert rc == 4
    assert "resource" in err


@pytest.mark.parametrize("bad, flag", [
    (("--n", "10"), "--n"),
    (("--n", "-5"), "--n"),
    (("--k", "0"), "--k"),
    (("--k", "25"), "--k"),
    (("--half-width", "-3"), "--half-width"),
    (("--x-cut", "99"), "--x-cut"),
])
def test_oracle_bad_arguments_exit_usage(capsys, bad, flag):
    rc = cli.main(["oracle", "--single-band", "--lambda", "-1",
                   "--target", "-0.5", "--n", "256", *bad])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"bicforge: {flag} ")
    assert captured.err.count("\n") == 1


def test_kernel_check_default_passes():
    rc, out, _ = run_cli("kernel-check")
    assert rc == 0
    doc = check_report(out)
    rows = {r["check"]: r for r in doc["results"]["rows"]}
    assert rows["single_band_extended_vs_closed_form"]["max_deviation"] < 1e-12
    assert rows["two_band_residue_vs_constant_coupling"]["max_deviation"] < 1e-10
    assert rows["soc_gamma_terms_vs_quoted_variant"]["status"] == "pass"
    assert rows["soc_sigma_z_terms_vs_quoted_variant"]["status"] == "info"


def test_kernel_check_degenerate_energy_fails():
    rc, out, _ = run_cli("kernel-check", "--mu", "0", "--g", "1",
                         "--energies", "1.0")
    assert rc == 5
    doc = json.loads(out)
    statuses = {r["check"]: r["status"] for r in doc["results"]["rows"]}
    assert statuses["two_band_requested_energy_1"] == "DegeneratePoles"


def test_main_entry_in_process(capsys):
    rc = cli.main(["delta-bound", "--lambda", "-0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["e_b"] == pytest.approx(-0.125)


def test_consecutive_in_process_calls_match_fresh_processes(capsys):
    # main reuses one parser: a flag given to the first call must not leak
    # into the second, which relies on the defaults
    argvs = [["delta-bound", "--two-band", "--mu", "0", "--g", "1", "--lambda", "-1"],
             ["delta-bound", "--lambda", "-0.5"]]
    outs = []
    for argv in argvs:
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [run_cli(*argv)[1] for argv in argvs]


@pytest.mark.parametrize("energies", ["nan", "inf", "1e400", "0.3,-inf"])
def test_kernel_check_non_finite_energies_exit_usage(energies):
    # each ended in a LinAlgError traceback
    rc, out, err = run_cli("kernel-check", "--trials", "1", "--energies", energies)
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err
    assert err == (f"bicforge: --energies must be comma-separated finite numbers, "
                   f"got {energies!r}\n")


def _non_finite_model(path, field):
    doc = bf.models.model_to_dict(bf.soc_model(gamma=0.5, mu=1.0),
                                  [{"variant": "delta", "strength": -1.0}, None])
    if field == "a0":
        doc["a0"][0][0] = [float("nan"), 0.0]
    elif field == "strength":
        doc["potentials"][0]["strength"] = float("nan")
    else:
        doc[field] = float("inf")
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    return str(path)


@pytest.mark.parametrize("field, message", [
    ("a0", "bicforge: a0 has non-finite entries\n"),
    ("strength", "bicforge: bad potential entry: 'strength' must be finite, got nan\n"),
    ("mass", "bicforge: mass must be finite, got inf\n"),
    ("n_bands", "bicforge: model file needs numeric 'n_bands' and 'mass'\n"),
], ids=["a0", "strength", "mass", "n_bands"])
def test_model_file_non_finite_number_exit_usage(tmp_path, capsys, field, message):
    # a0 ended in a LinAlgError traceback, strength in exit 3 and mass in an
    # underflow message; n_bands in an OverflowError traceback
    path = _non_finite_model(tmp_path / "model.json", field)
    rc = cli.main(["bic-verify", "--model-file", path, "--e-window=-0.6:0.6"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == message


def test_list_values_starting_with_minus(capsys):
    # each exited 1 with argparse's "expected one argument"
    assert cli.main(["scan", "--param", "scale", "--range", "-0.4:1.2:0",
                     "--gamma", "0.5", "--nu", "0.7", "--mu", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "param,energy,residual_rel,tail_rel,verdict\n"
    assert cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                     "--e-window", "-0.5:-0.6"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "bicforge: --e-window needs lo < hi\n"
    assert cli.main(["kernel-check", "--energies", "-0.3,0.2", "--trials", "1"]) == cli.EXIT_OK
    rows = {r["check"]: r["status"] for r in json.loads(capsys.readouterr().out)["results"]["rows"]}
    assert rows["two_band_requested_energy_-0.3"] == "pass"


@pytest.mark.parametrize("argv, flag", [
    (["kernel-check", "--energies", "-inf"], "--energies"),
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--e-window", "-inf:0"],
     "--e-window"),
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "-inf"], "--mu"),
    (["delta-bound", "--lambda", "-nan"], "--lambda"),
], ids=["energies", "e_window", "mu", "lambda"])
def test_non_finite_values_starting_with_minus(capsys, argv, flag):
    # each exited 1 with argparse's "expected one argument"
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # the argparse type check of a float flag
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("bicforge") and captured.err.count("\n") == 1
    assert flag in captured.err and "finite" in captured.err
    assert "expected one argument" not in captured.err


def test_soc_singular_denominator_exit_usage():
    # nu^2 >= alpha' = 1 + sqrt(1 - gamma^2 nu^2) passes the radicand check
    rc, out, err = run_cli("bic-verify", "--gamma", "0.1", "--nu", "2", "--mu", "3")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == "bicforge: nu^2 = 4 must be < alpha' = 1.9798\n"


@pytest.mark.parametrize("flag, argv", [
    ("--out", ["oracle", "--single-band", "--lambda", "-1", "--target", "-0.5", "--n", "256"]),
    ("--wave-out", ["delta-bound", "--lambda", "-1"]),
    ("--spectrum-out", ["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1",
                        "--n-points", "1024"]),
], ids=["out", "wave_out", "spectrum_out"])
@pytest.mark.parametrize("target, reason", [
    ("missing", "No such file or directory"),
    ("dir", "Is a directory"),
], ids=["missing_dir", "is_dir"])
def test_unwritable_output_path_exit_usage(tmp_path, capsys, flag, argv, target, reason):
    # each ended in a FileNotFoundError or IsADirectoryError traceback
    path = str(tmp_path / "missing" / "f.txt") if target == "missing" else str(tmp_path)
    rc = cli.main([*argv, flag, path])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"bicforge: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--trials", "0"], "--trials must be >= 1, got 0"),
    (["--trials", "-3"], "--trials must be >= 1, got -3"),
], ids=["seed_neg", "trials_0", "trials_neg"])
def test_kernel_check_seed_and_trials_exit_usage(capsys, argv, message):
    # a negative seed ended in a ValueError traceback; no trial left the
    # randomized row passing at deviation 0 with exit 0
    rc = cli.main(["kernel-check", *argv])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert (captured.out, captured.err) == ("", f"bicforge: {message}\n")


def test_kernel_check_refuses_too_many_trials(capsys):
    # --trials 100000000 ran for more than 100 s; the bound refuses it at once
    import time
    start = time.perf_counter()
    rc = cli.main(["kernel-check", "--trials", "100000000"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RESOURCE
    assert (captured.out, captured.err) == (
        "", f"bicforge: resource limit: kernel-check refuses --trials 100000000 > "
            f"{cli.MAX_TRIALS}\n")


SCALE_SCAN = ["scan", "--param", "scale", "--gamma", "0.5", "--nu", "0.7", "--mu", "1"]


@pytest.mark.parametrize("argv, message", [
    ([*SCALE_SCAN, "--range", "0.9:1.1:1000000000"],
     f"scan refuses --range step count 1000000000 > {cli.MAX_SCAN_ROWS}"),
    ([*SCALE_SCAN, "--range", "0.9:1.1:3", "--n-points", "40000000"],
     f"scan refuses --n-points 40000000 > {cli.MAX_POINTS}"),
    ([*SCALE_SCAN, "--range", "0.9:1.1:3", "--mesh-points", "3000000"],
     f"scan refuses --mesh-points 3000000 > {cli.MAX_MESH_POINTS}"),
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--n-points", "1024", "--mesh-points", "3000000"],
     f"bic-verify refuses --mesh-points 3000000 > {cli.MAX_MESH_POINTS}"),
    (["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1", "--n-points", "40000000"],
     f"bic-verify refuses --n-points 40000000 > {cli.MAX_POINTS}"),
], ids=["scan_rows", "scan_points", "scan_mesh", "bic_verify_mesh", "bic_verify_points"])
def test_sizes_beyond_their_bounds_are_refused_before_allocating(capsys, argv, message):
    # each ended in a numpy memory-error traceback under a 1.5 GB address
    # space (a 7.45 GiB linspace of rows, the mesh's kernel batch, a 2.38 GiB
    # coupling array); the bounds refuse them before any array is built
    import tracemalloc
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == cli.EXIT_RESOURCE
    assert (captured.out, captured.err) == ("", f"bicforge: resource limit: {message}\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("param, value, base", [
    ("nu", "0.7", ["--gamma", "0.5", "--mu", "1"]),
    ("gamma", "0.5", ["--nu", "0.7", "--mu", "1"]),
    ("mu", "1", ["--gamma", "0.5", "--nu", "0.7"]),
])
def test_scan_needs_only_the_base_flags_it_reads(capsys, param, value, base):
    # each exited 1 with "scan needs base --gamma, --nu and --mu"
    argv = ["scan", "--param", param, "--range", f"{value}:{value}:1", *base,
            "--n-points", "1024", "--mesh-points", "7"]
    assert cli.main(argv) == cli.EXIT_OK
    without = capsys.readouterr().out
    assert cli.main([*argv, f"--{param}", "9"]) == cli.EXIT_OK
    assert capsys.readouterr().out == without
    row = without.splitlines()[1].split(",")
    assert float(row[0]) == float(value) and row[-1] == "ExactBIC"
    rc = cli.main(["scan", "--param", param, "--range", "0.7:0.7:1", *base[:2]])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err == f"bicforge: scan --param {param} needs base {base[2]}\n"


def test_delta_bound_overflowing_mass_exit_usage():
    # 1/(2m) overflows: a LinAlgError traceback after numpy's overflow warnings
    rc, out, err = run_cli("delta-bound", "--lambda", "-1", "--mass", "1e-320")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == ("bicforge: mass 9.99989e-321 is out of range: 2*mass or 1/(2*mass) "
                   "is not finite\n")


def test_kernel_check_overflowing_energy_is_an_error_row():
    # each ended in a LinAlgError traceback. At 1e300 the two bands' poles
    # agree to about 1e-150 relative; at 1e308 the pencil's 2m E overflows
    rc, out, err = run_cli("kernel-check", "--trials", "1", "--energies", "0.3,1e300,1e308")
    assert rc == cli.EXIT_CHECK
    assert err == "bicforge: check failure: 2 kernel check(s) failed\n"
    rows = {r["check"]: r for r in check_report(out)["results"]["rows"]}
    assert rows["two_band_requested_energy_0.3"]["status"] == "pass"
    assert rows["two_band_requested_energy_1e+300"] == {
        "check": "two_band_requested_energy_1e+300", "max_deviation": None,
        "tolerance": 1e-10, "status": "DegeneratePoles",
        "detail": "poles -1.41421e+150 and -1.41421e+150 coincide at E=1e+300; "
                  "offset the energy"}
    assert rows["two_band_requested_energy_1e+308"] == {
        "check": "two_band_requested_energy_1e+308", "max_deviation": None,
        "tolerance": 1e-10, "status": "error",
        "detail": "the pencil of E - H0(p) is not finite at energy 1e+308"}


@pytest.mark.parametrize("argv, code, fragment", [
    ("bic-verify --gamma 0 --nu 1 --mu 1e-8 --scale 0.9", cli.EXIT_NO_BOUND,
     "bicforge: no bound state: the window about the analytic BIC energy -0.5"),
    ("scan --param nu --range -1:1:3 --gamma 0 --mu -1e-8 --n-points 512 --mesh-points 2",
     cli.EXIT_OK, "Error(the window about the analytic BIC energy -0.5"),
    ("delta-bound --lambda -1e200", cli.EXIT_USAGE,
     "bicforge: closed-form e_b = -inf is not finite"),
    ("delta-bound --two-band --mu 0 --g 1 --lambda -1e200", cli.EXIT_USAGE,
     "bicforge: closed-form e_b = -inf is not finite"),
    ("delta-bound --mu -0.5 --g 7 --b3 -1e300", cli.EXIT_USAGE,
     "bicforge: closed-form e_b = -inf is not finite"),
    ("kernel-check --mu 0.5 --g 1e-320 --trials 1 --energies -1e-8", cli.EXIT_CHECK,
     '"detail": "c0, d0 overflow at g = 9.99989e-321; use residue_green"'),
    ("oracle --single-band --lambda -1 --target -0.5 --n 256 --mass 1e-308", cli.EXIT_USAGE,
     "bicforge: kinetic scale 1/(2m dx^2) overflows"),
    ("oracle --two-band --lambda -0.5 --g 0 --mu -1 --mass 1e-8 --target 1e-320 --k 20 "
     "--half-width 1e-320 --n 64", cli.EXIT_USAGE,
     "bicforge: kinetic scale 1/(2m dx^2) overflows"),
    ("bic-verify --gamma -0.5 --nu -1e300 --mu 1e300", cli.EXIT_USAGE,
     "bicforge: gamma^2 nu^2 overflows at gamma = -0.5, nu = -1e+300"),
    ("scan --param gamma --range 0:1:2 --nu 0.5 --mu -1e300 --n-points 512", cli.EXIT_OK,
     "Error(mu^2 - nu^2 gamma^2 overflows"),
    ("oracle --single-band --lambda 1e300 --half-width 1e-8 --n 128 --k 2 --target 1e-8",
     cli.EXIT_USAGE, "bicforge: the potential coupling V(x) B overflows on the grid"),
    ("oracle --single-band --lambda 0.5 --half-width 1e300 --n 128 --k 1 --target 1e-320 "
     "--x-cut 2", cli.EXIT_USAGE, "bicforge: kinetic scale 1/(2m dx^2) underflows to 0"),
    ("delta-bound --two-band --mu -0.5 --g 1e300 --lambda -1", cli.EXIT_USAGE,
     "bicforge: closed-form lambda_critical = -inf is not finite"),
    ("delta-bound --mu -1e300 --g 1e-320 --b1 -1e300 --b2 -1 --mass 1e-308", cli.EXIT_USAGE,
     "bicforge: closed-form amp_ratio divides by m <v2|B|v1>, which underflows to 0"),
    ("scan --param gamma --range -1e300:0:1 --gamma 0 --nu 1e-8 --mu 1e-8 --n-points 64 "
     "--mesh-points 2", cli.EXIT_OK, "Error(gamma^2 nu^2 overflows at gamma = -1e+300"),
    ("oracle --two-band --mu -0.5 --g 1e300 --lambda 2 --target 1e300 --n 64 --k 2",
     cli.EXIT_USAGE, "bicforge: the shift-invert factorisation of H - 1e+300 overflows"),
    ("bic-verify --gamma -1e-8 --nu -0.5 --mu 2 --scale -1e300 --half-width 1 "
     "--mesh-points 257 --n-points 257", cli.EXIT_USAGE,
     "bicforge: the potential coupling V(x) B has no finite norm on the grid"),
    # the free box of 65 sites at dx = 1 has the eigenvalue 1 - cos(pi/2) = 1
    ("oracle --single-band --lambda 0 --half-width 32 --n 65 --target 1 --k 1",
     cli.EXIT_USAGE, "bicforge: the target 1 is an eigenvalue of the box Hamiltonian"),
], ids=["soc_window_empty", "scan_soc_window_empty", "single_band_e_b", "two_band_e_b",
        "general_b_e_b", "kernel_check_c0_d0", "oracle_kinetic_inf", "oracle_kinetic_zero_div",
        "soc_bic_radicand", "scan_e_bic_radicand", "oracle_coupling_inf",
        "oracle_kinetic_zero", "lambda_critical", "general_b_amp_ratio",
        "scan_numpy_scalar_param", "oracle_shift_invert", "coupling_norm",
        "oracle_singular_target"])
def test_overflowing_input_ends_in_one_line(capfd, argv, code, fragment):
    # each ended in a traceback (ValueError, OverflowError, ZeroDivisionError,
    # RuntimeError, ArpackError), printed numpy warning lines before its one
    # line, or wrote a NaN into its report; capfd also sees what LAPACK
    # prints to fd 1 (the shift-invert oracle printed DLASCL lines there)
    rc = cli.main(argv.split())
    captured = capfd.readouterr()
    assert rc == code
    assert "bicforge: warning:" not in captured.err
    assert fragment in captured.err + captured.out
    if argv.startswith("scan"):
        rows = captured.out.splitlines()[1:]
        assert captured.err == "" and rows and all("Error(" in row for row in rows)
    else:
        (line,) = captured.err.splitlines()
        assert line.startswith("bicforge: ")
    if code == cli.EXIT_USAGE:
        assert captured.out == ""
