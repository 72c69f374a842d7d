import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import bicforge as bf
from bicforge import cli
from bicforge.errors import NoSolutionInRange


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
