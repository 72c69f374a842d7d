import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import bicforge as bf
from bicforge import cli


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
