import importlib.util
from pathlib import Path

from antiprod import harness

_PATH = Path(__file__).resolve().parents[1] / "tools" / "gate_calibration.py"


def _tool():
    spec = importlib.util.spec_from_file_location("gate_calibration", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _gates(text):
    """{(report, statistic): (gate, pass rate)} of a calibration table."""
    rows = [line.strip("|").split("|") for line in text.splitlines()[2:]]
    return {(r[0].strip(), r[1].strip()): (r[2].strip(), r[3].strip())
            for r in rows}


def test_calibration_table_runs_on_two_seeds():
    tool = _tool()
    gates = _gates(tool.table(tool.calibrate(range(2), nsamples=2000)))
    assert gates[("spherical-suite", "phi_z_3")][0] == "< 3"
    assert gates[("spherical-suite", "phi_limit_n2")] == ("< 1e-08", "2/2")
    assert gates[("spherical-suite", "fn_rel_0")] == ("< 1e-06", "2/2")
    assert gates[("spherical-suite", "hc_n1_err")] == ("< 1e-12", "2/2")
    assert gates[("corank2-n2", "norm_err")] == ("< 1e-10", "2/2")
    assert gates[("corank2-n2", "norm")] == ("-", "-")
    assert gates[("corank2-n2", "chi2_pvalue")][0] == "> 0.001"
    assert gates[("corank2-n2", "ks")] == ("-", "-")
    assert gates[("corank2-n2", "passed")][0] == "report"
    for name, ks_gate in (("spectrum-ginibre-n1", "< 0.01"),
                          ("spectrum-jacobi-n1", "< 0.01"),
                          ("spectrum-ginibre-n2", "< 0.015")):
        assert gates[(name, "ks")][0] == ks_gate
        assert gates[(name, "norm_err")] == ("< 1e-06", "2/2")
        assert gates[(name, "norm")] == ("-", "-")
    assert gates[("prop45-distribution-n1", "ks")][0] == "< 0.01"


def test_calibration_reads_the_gates_of_the_harness(monkeypatch):
    # a gate moved in the harness shows up in the table, and the pass rate
    # is counted against the moved gate: no seed passes z < 0
    tool = _tool()
    monkeypatch.setattr(harness, "SPHERICAL_Z_MAX", 0.0)
    monkeypatch.setattr(harness, "CORANK2_NORM_TOL", 2.0)
    gates = _gates(tool.table(tool.calibrate(range(2), nsamples=2000)))
    assert gates[("spherical-suite", "hc_n2_z")] == ("< 0", "0/2")
    assert gates[("spherical-suite", "passed")][1] == "0/2"
    assert gates[("corank2-n2", "norm_err")] == ("< 2", "2/2")
