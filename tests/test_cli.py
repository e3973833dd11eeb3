import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from circlemaps.cli import main
from circlemaps.mapspec import (
    MapSpecError,
    quotient_from_spec,
    sampled_from_spec,
    spec_from_quotient,
)
from circlemaps.certify import quadratic_quotient
from circlemaps.approx import approximate_homeomorphism


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


IDENTITY = {"type": "blaschke_quotient", "zeros": [[0.0, 0.0]], "poles": [], "sigma": 0.0}


def test_spec_roundtrip_identical_spectra(tmp_path):
    Q = quadratic_quotient(0.2 + 0.1j, np.exp(0.3j))
    spec = spec_from_quotient(Q)
    Q2 = quotient_from_spec(spec)
    from circlemaps.fourier import fourier_coefficients, spectrum_csv_rows
    from circlemaps.gallery import rational_family

    rows1 = list(spectrum_csv_rows(fourier_coefficients(rational_family(Q, 1024))))
    rows2 = list(spectrum_csv_rows(fourier_coefficients(rational_family(Q2, 1024))))
    assert rows1 == rows2  # bit-identical CSV


def test_spec_validation_errors():
    with pytest.raises(MapSpecError):
        quotient_from_spec({"type": "star", "x": 1, "y": 1})
    with pytest.raises(MapSpecError):
        quotient_from_spec({"type": "blaschke_quotient", "zeros": [[1.5, 0.0]], "poles": []})
    with pytest.raises(MapSpecError):
        sampled_from_spec({"type": "avoidable"})
    with pytest.raises(MapSpecError):
        sampled_from_spec({"type": "samples", "values": []})


def test_cli_fourier_identity(tmp_path, capsys):
    spec = write_spec(tmp_path, "id.json", IDENTITY)
    out = tmp_path / "spec.csv"
    assert main(["fourier", "--spec", spec, "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,re,im,abs"
    above = [r for r in rows[1:] if float(r.split(",")[3]) > 1e-8]
    assert len(above) == 1 and above[0].startswith("1,")
    summary = json.loads((tmp_path / "spec.summary.json").read_text())
    assert summary["support"] == [1]
    assert summary["enclosed_area"] == pytest.approx(np.pi, abs=1e-9)


def test_cli_fourier_star_flags_vanishing(tmp_path):
    spec = write_spec(tmp_path, "star.json",
                      {"type": "star", "x": 8.0, "y": 1 / np.sqrt(3)})
    out = tmp_path / "star.csv"
    assert main(["fourier", "--spec", spec, "--grid", "65536", "--out", str(out),
                 "--tolerance", "1e-6", "--window", "16"]) == 0
    summary = json.loads((tmp_path / "star.summary.json").read_text())
    assert 1 not in summary["support"]
    rows = out.read_text().strip().splitlines()
    assert all(abs(int(r.split(",")[0])) <= 16 for r in rows[1:])


def test_cli_fourier_avoidable_support_pattern(tmp_path):
    spec = write_spec(tmp_path, "gap.json", {"type": "avoidable", "N": 1})
    out = tmp_path / "gap.csv"
    assert main(["fourier", "--spec", spec, "--grid", "16384", "--out", str(out),
                 "--tolerance", "1e-4"]) == 0
    summary = json.loads((tmp_path / "gap.summary.json").read_text())
    assert summary["support"]
    assert all(n % 3 == 1 for n in summary["support"])


def test_cli_certify_verdicts(tmp_path, capsys):
    spec = write_spec(tmp_path, "id.json", IDENTITY)
    assert main(["certify", "--spec", spec]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Diffeomorphism"

    good = write_spec(tmp_path, "good.json",
                      {"type": "blaschke_quotient", "zeros": [[0, 0], [0, 0]],
                       "poles": [[0.3, 0]], "sigma": 0.0})
    assert main(["certify", "--spec", good]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Diffeomorphism"

    bad = write_spec(tmp_path, "bad.json",
                     {"type": "blaschke_quotient", "zeros": [[0, 0], [0, 0]],
                      "poles": [[0.4, 0]], "sigma": 0.0})
    assert main(["certify", "--spec", bad]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotHomeomorphism"
    assert "witness_theta" in payload


def test_cli_certify_grid_not_power_of_two_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "id.json", IDENTITY)
    assert main(["certify", "--spec", spec, "--grid", "1000"]) == 2
    assert "grid size must be a power of two >= 64" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-8", "3", "1000"])
def test_cli_grid_not_power_of_two_exits_2_everywhere(tmp_path, capsys, grid):
    spec = write_spec(tmp_path, "mobius.json", {"type": "mobius", "a": [0.3, 0.0]})
    for cmd in ("fourier", "certify", "approximate", "figure", "bounds"):
        assert main([cmd, "--spec", spec, "--grid", grid, "--out", str(tmp_path / f"{cmd}.out")]) == 2, cmd
        assert "grid size must be a power of two >= 64" in capsys.readouterr().err, cmd


def test_cli_approximate_rotation(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot.json",
                      {"type": "blaschke_quotient", "zeros": [[0.0, 0.0]],
                       "poles": [], "sigma": 0.9})
    out = tmp_path / "approx.json"
    assert main(["approximate", "--spec", spec, "--eps", "0.05",
                 "--direction", "below", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certification"]["verdict"] == "Diffeomorphism"
    assert payload["sup_error"] < 0.05
    assert payload["quotient"]["type"] == "blaschke_quotient"
    assert {"r", "n", "eps", "eta"} <= set(payload["log"].keys())


def test_cli_figure(tmp_path):
    spec = write_spec(tmp_path, "gap.json", {"type": "avoidable", "N": 1})
    out = tmp_path / "fig.svg"
    assert main(["figure", "--spec", spec, "--grid", "2048", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "polygon" in text


def test_cli_bounds_identity_and_constant(tmp_path, capsys):
    spec = write_spec(tmp_path, "id.json", IDENTITY)
    assert main(["bounds", "--spec", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["heinz"]["hall_ok"] is True
    assert payload["curvature_bound"] == pytest.approx(4.0, abs=1e-9)

    m = 64
    const = write_spec(tmp_path, "const.json",
                       {"type": "samples", "kind": "unimodular",
                        "values": [[1.0, 0.0]] * m})
    assert main(["bounds", "--spec", const]) == 3  # no bound available


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_spec(tmp_path, "bad.json", {"type": "nonsense"})
    assert main(["fourier", "--spec", bad]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["fourier", "--spec", missing]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert main(["certify", "--spec", str(notjson)]) == 2


# json.dumps writes the non-standard NaN literal, which json.load accepts


def test_cli_non_finite_zero_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "nan_zero.json",
                     {"type": "blaschke_quotient", "zeros": [[float("nan"), 0.0]],
                      "poles": [], "sigma": 0.0})
    out = tmp_path / "nan.csv"
    assert main(["fourier", "--spec", spec, "--out", str(out)]) == 2
    assert not (tmp_path / "nan.summary.json").exists()
    assert main(["certify", "--spec", spec]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_non_finite_sigma_exits_2(tmp_path):
    spec = write_spec(tmp_path, "nan_sigma.json",
                     {"type": "blaschke_quotient", "zeros": [[0.0, 0.0]],
                      "poles": [], "sigma": float("nan")})
    out = tmp_path / "sigma.csv"
    assert main(["fourier", "--spec", spec, "--out", str(out)]) == 2
    assert not (tmp_path / "sigma.summary.json").exists()


def test_cli_non_finite_mobius_exits_2(tmp_path):
    spec = write_spec(tmp_path, "nan_a.json", {"type": "mobius", "a": [float("nan"), 0.1]})
    assert main(["certify", "--spec", spec]) == 2


def test_cli_non_finite_samples_exit_2(tmp_path):
    values = [[float(np.cos(t)), float(np.sin(t))] for t in np.arange(64) * (2 * np.pi / 64)]
    values[7] = [float("nan"), 0.0]
    spec = write_spec(tmp_path, "nan_samples.json", {"type": "samples", "values": values})
    for cmd in ("fourier", "bounds", "figure"):
        assert main([cmd, "--spec", spec, "--out", str(tmp_path / f"{cmd}.out")]) == 2


MALFORMED_SPECS = {
    "sigma_text": dict(IDENTITY, sigma="abc"),
    "sigma_null": dict(IDENTITY, sigma=None),
    "sigma_list": dict(IDENTITY, sigma=[1, 2]),
    "zeros_number": dict(IDENTITY, zeros=5),
    "json_array": [1, 2],
    "fractional_N": {"type": "avoidable", "N": 2.7},
    "samples_short_pairs": {"type": "samples", "values": [[1]] * 64},
    "samples_triples": {"type": "samples", "values": [[1, 0, 5]] * 64},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_cli_malformed_spec_exits_2(tmp_path, capsys, name):
    spec = write_spec(tmp_path, f"{name}.json", MALFORMED_SPECS[name])
    for cmd in ("fourier", "certify", "approximate", "figure", "bounds"):
        assert main([cmd, "--spec", spec, "--out", str(tmp_path / f"{cmd}.out")]) == 2, cmd
        assert "input error" in capsys.readouterr().err, cmd


def test_runtime_imports_only_numpy():
    # scipy, mpmath and hypothesis serve the tests only; importing the package must not load them
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, circlemaps, circlemaps.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quotient_pipelines_leave_numpy_ma_unimported(tmp_path):
    # the first np.unique of a process imports numpy.ma, about 12 ms on numpy 2.4
    certify_spec = write_spec(tmp_path, "good.json",
                              {"type": "blaschke_quotient", "zeros": [[0, 0], [0, 0]],
                               "poles": [[0.3, 0]], "sigma": 0.0})
    rotation_spec = write_spec(tmp_path, "rot.json",
                               {"type": "blaschke_quotient", "zeros": [[0.0, 0.0]],
                                "poles": [], "sigma": 0.9})
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; import numpy as np; "
            "from circlemaps import (BlaschkeQuotient, CircleLift, PeriodicC1Function, approximate_c1, "
            "approximate_homeomorphism, certify_quotient, continuous_arg); "
            "from circlemaps.cli import main; "
            "Q = BlaschkeQuotient.make([0.0, 0.0], [0.3]); "
            "assert certify_quotient(Q).verdict == 'Diffeomorphism'; "
            "continuous_arg(Q, 64); "
            "approximate_c1(PeriodicC1Function.from_callable(lambda t: 0.2 * np.sin(t), "
            "lambda t: 0.2 * np.cos(t)), 0.2); "
            "approximate_homeomorphism(CircleLift.from_breakpoints([(0, 0.4), (2 * np.pi, 0.4 + 2 * np.pi)]), "
            "0.05, 'below'); "
            "assert main(['certify', '--spec', sys.argv[1]]) == 0; "
            "assert main(['approximate', '--spec', sys.argv[2], '--eps', '0.05']) == 0; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, certify_spec, rotation_spec], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"  # after the two commands' JSON


@pytest.mark.parametrize("cmd,flag,value", [
    ("approximate", "--eps", "nan"), ("approximate", "--eps", "0"), ("approximate", "--eps", "-1"),
    ("approximate", "--eps", "inf"), ("fourier", "--tolerance", "nan"),
    ("fourier", "--tolerance", "-1"), ("fourier", "--tolerance", "inf"),
])
def test_cli_bad_eps_or_tolerance_exits_2_and_writes_nothing(tmp_path, capsys, cmd, flag, value):
    spec = write_spec(tmp_path, "mobius.json", {"type": "mobius", "a": [0.3, 0.0]})
    out = tmp_path / "result.out"
    assert main([cmd, "--spec", spec, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and flag in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mobius.json"]



@pytest.mark.filterwarnings("ignore:spectral tail mass")  # the corner at x = 1e16 is sharp
@pytest.mark.parametrize("cmd", ["fourier", "bounds", "figure"])
def test_cli_accepts_a_star_with_a_large_x(tmp_path, cmd):
    # the rounded segment test sees sides 1 and 3 of these star vertices cross
    spec = write_spec(tmp_path, "star.json", {"type": "star", "x": 1e16, "y": 0.5})
    assert main([cmd, "--spec", spec, "--out", str(tmp_path / f"{cmd}.out")]) == 0


def test_cli_approximate_log_is_the_library_log(tmp_path):
    spec = {"type": "mobius", "a": [0.3, 0.0]}
    out = tmp_path / "approx.json"
    assert main(["approximate", "--spec", write_spec(tmp_path, "mobius.json", spec),
                 "--eps", "0.05", "--direction", "above", "--out", str(out)]) == 0
    log = approximate_homeomorphism(quotient_from_spec(spec), 0.05, "above").log
    payload = json.loads(out.read_text())
    assert list(payload["log"]) == sorted(log)
    assert all(payload["log"][k] == v for k, v in log.items())


def test_cli_mobius_spec_spectrum_and_verdict(tmp_path, capsys):
    a = 0.3 + 0.2j
    spec = write_spec(tmp_path, "mobius.json", {"type": "mobius", "a": [a.real, a.imag]})
    out = tmp_path / "spectrum.csv"
    assert main(["fourier", "--spec", spec, "--grid", "256", "--out", str(out)]) == 0
    coef = {}
    for row in out.read_text().strip().splitlines()[1:]:
        n, re, im, _ = row.split(",")
        coef[int(n)] = complex(float(re), float(im))
    assert len(coef) == 255
    for n, c in coef.items():
        exact = a if n == 0 else (-a.conjugate()) ** (n - 1) * (1 - abs(a) ** 2) if n > 0 else 0.0
        assert abs(c - exact) < 1e-12, n
    capsys.readouterr()
    assert main(["certify", "--spec", spec]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Diffeomorphism"


@pytest.mark.parametrize("a", [[1.0, 0.0], [0.8, 0.8]])
def test_cli_mobius_spec_outside_the_disk_exits_2(tmp_path, capsys, a):
    spec = write_spec(tmp_path, "mobius.json", {"type": "mobius", "a": a})
    for cmd in ("fourier", "certify"):
        assert main([cmd, "--spec", spec, "--out", str(tmp_path / f"{cmd}.out")]) == 2, cmd
        assert "a must lie strictly inside" in capsys.readouterr().err, cmd
