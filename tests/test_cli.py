import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ionwalk import cli, fock, probe, reconstruct, walk
from ionwalk.fock import HilbertParams, MotionalEnsemble

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write_cfg(path, **overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "walk",
        "seed": 3,
        "hilbert": {"n_max": 96, "eta": 0.06},
        "walk": {"n_steps": 3, "model": "lamb_dicke"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def test_validate_flags_inadequate_truncation(tmp_path, capsys):
    # n_max below the heuristic is advice: the run's tail check decides
    cfg = tmp_path / "c.json"
    write_cfg(cfg, hilbert={"n_max": 50}, walk={"n_steps": 23})
    assert cli.main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ADVICE: n_max 50") and "676" in out[0]
    assert out[-1] == "OK"


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    data = write_cfg(cfg)
    data["surprise"] = 1
    cfg.write_text(json.dumps(data))
    assert cli.main(["run", str(cfg)]) == 1
    assert "stage=config" in capsys.readouterr().err


def test_run_walk_outputs_and_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg)
    prefix1 = tmp_path / "a"
    prefix2 = tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(prefix1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(prefix2)]) == 0
    for step in range(4):
        f1 = prefix1.parent / f"{prefix1.name}_step{step:02d}_density.csv"
        assert f1.exists()
    summary1 = (prefix1.parent / f"{prefix1.name}_summary.csv").read_bytes()
    summary2 = (prefix2.parent / f"{prefix2.name}_summary.csv").read_bytes()
    assert summary1 == summary2
    d1 = (prefix1.parent / f"{prefix1.name}_step03_density.csv").read_bytes()
    d2 = (prefix2.parent / f"{prefix2.name}_step03_density.csv").read_bytes()
    assert d1 == d2


def test_density_csv_roundtrip_and_normalization(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg)
    prefix = tmp_path / "w"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_step02_density.csv")
    assert header == ["x", "p"]
    x, dens = data[:, 0], data[:, 1]
    h = x[1] - x[0]
    assert abs(np.sum(dens) * h - 1.0) < 1e-3
    header, data = read_csv(prefix.parent / f"{prefix.name}_summary.csv")
    assert header == ["step", "w_x", "w_p", "nbar"]
    assert np.allclose(data[:, 2], 1.0, atol=1e-9)


def test_run_leaky_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, hilbert={"n_max": 24}, walk={"n_steps": 8})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "stage=walk" in err and "LeakyStateError" in err


@pytest.mark.parametrize("experiment", ["walk", "classical", "reverse", "two_ion"])
def test_run_grid_too_narrow_exits_2(tmp_path, capsys, experiment):
    # every experiment that writes densities checks the grid's coverage
    cfg = tmp_path / "c.json"
    n_ions = 2 if experiment == "two_ion" else 1
    write_cfg(cfg, experiment=experiment, hilbert={"n_max": 96, "n_ions": n_ions},
              density_grid={"extent": 2})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert f"stage={experiment}: GridCoverageError:" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


def test_run_classical_leaky_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="classical", hilbert={"n_max": 30},
              walk={"n_steps": 15})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "stage=classical: LeakyStateError: step 4:" in err
    assert "Traceback" not in err


def test_all_order_reach_beyond_truncation_rejected(tmp_path, capsys):
    # the walk's fold-back check, decided from the config alone: run exited 2
    cfg = tmp_path / "c.json"
    write_cfg(cfg, hilbert={"n_max": 100},
              walk={"n_steps": 1, "model": "all_order", "step_size": 40.0})
    assert_rejected(tmp_path, capsys, cfg, "walk",
                    "step 1: reach 40 exceeds the truncated position range 2 sqrt(n_max) = 20")


def test_all_order_walk_at_a_subnormal_step_runs(tmp_path, capsys):
    # the reach check's 2 sqrt(n_max) / step_size is inf here: int() of it
    # raised OverflowError, a traceback from run
    cfg = tmp_path / "c.json"
    write_cfg(cfg, hilbert={"n_max": 40},
              walk={"n_steps": 2, "model": "all_order", "step_size": 5e-324})
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_short_reconstruction_grid_rejected(tmp_path, capsys):
    # fuzz seed 7, case 882: run exited 0 with a density squeezed onto [-3, 3]
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", hilbert={"n_max": 40}, walk={"n_steps": 1},
              scan={"n_points": 21, "noiseless": True},
              reconstruction={"grid_spacing": 0.5, "steps": [0, 1], "grid_extent": 3.0,
                              "use_kinetic_bound": False})
    assert_rejected(tmp_path, capsys, cfg, "reconstruct",
                    "reconstruction grid extent 3 does not cover the walk support s*N + 2 = 4")


def test_empty_reconstruction_steps_rejected(tmp_path, capsys):
    # run computed the whole walk, then wrote a diagnostics file holding {} and exited 0
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", hilbert={"n_max": 40}, walk={"n_steps": 1},
              scan={"n_points": 21, "noiseless": True},
              reconstruction={"grid_spacing": 0.5, "steps": []})
    assert_rejected(tmp_path, capsys, cfg, "reconstruct",
                    "reconstruction.steps is empty: there is no step to reconstruct")


def test_output_prefix_checked_under_out(tmp_path, capsys):
    # run --out ignores output_prefix, but the config is unusable without the flag
    cfg = tmp_path / "c.json"
    write_cfg(cfg, output_prefix="o/")
    assert_rejected(tmp_path, capsys, cfg, "walk", "output prefix 'o/' has no file name")


@pytest.mark.parametrize("experiment, section", [
    ("walk", {"density_grid": {"extent": 0.01, "spacing": 0.05}}),
    ("reconstruct", {"reconstruction": {"grid_extent": 0.04, "grid_spacing": 0.05}}),
], ids=["density_grid", "reconstruction"])
def test_run_grid_too_coarse_exits_1(tmp_path, capsys, experiment, section):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, walk={"n_steps": 1},
              scan={"noiseless": True, "n_points": 41}, **section)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert f"stage={experiment}: grid of extent" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("g_*"))
    assert cli.main(["validate", str(cfg)]) == 1
    assert f"stage={experiment}: grid of extent" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, section", [
    ("walk", {"density_grid": {"spacing": 1e-12}}),                     # 1.6e13 points
    ("reconstruct", {"reconstruction": {"grid_extent": 1e12}}),         # 2e13 points
    ("reverse", {"density_grid": {"extent": 1e308, "spacing": 1e-300}}),  # inf points
], ids=["density_grid.spacing", "reconstruction.grid_extent", "infinite_count"])
def test_oversized_grid_rejected(tmp_path, capsys, experiment, section):
    # counted before np.arange allocates terabytes or int(inf) overflows
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, walk={"n_steps": 1}, **section)
    assert_rejected(tmp_path, capsys, cfg, experiment,
                    f"points exceed the limit of {cli.MAX_GRID_POINTS}")


def test_grid_at_the_size_limit_is_built():
    wcfg = walk.WalkConfig(n_steps=1, params=HilbertParams(n_max=40))
    assert cli._grid(wcfg, cli.MAX_GRID_POINTS // 2, 1.0).points.size == cli.MAX_GRID_POINTS
    with pytest.raises(cli.ConfigError, match="exceed the limit"):
        cli._grid(wcfg, cli.MAX_GRID_POINTS // 2 + 1, 1.0)


@pytest.mark.parametrize("model", ["lamb_dicke", "all_order"])
def test_overflowing_step_size_rejected(tmp_path, capsys, model):
    # (s*N/2 + 3)^2 overflows a float: validate raised OverflowError in
    # required_n_max, and run in fock.coherent_amplitudes
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="nbar_curve", hilbert={"n_max": 40},
              walk={"n_steps": 2, "step_size": 1e300, "model": model})
    assert_rejected(tmp_path, capsys, cfg, "nbar_curve", "walk reach s*N = 2e+300")


def test_step_beyond_the_truncation_exits_2(tmp_path, capsys):
    # a finite heuristic: validate advises against it, and run finds the whole
    # packet above n_max (the coherent-state table no longer sizes a 1e101-level window)
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="nbar_curve", hilbert={"n_max": 40},
              walk={"n_steps": 2, "step_size": 1e100})
    assert cli.main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("ADVICE: n_max 40")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "nb")]) == 2
    err = capsys.readouterr().err
    assert "stage=nbar_curve: LeakyStateError: step 1: tail population 1.00e+00" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_validate_prints_a_huge_heuristic_briefly(tmp_path, capsys):
    # (s*N/2 + 3)^2 = 1e200 was printed as an exact integer of 201 digits
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="nbar_curve", hilbert={"n_max": 40},
              walk={"n_steps": 2, "step_size": 1e100})
    assert cli.main(["validate", str(cfg)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "ADVICE: n_max 40, truncation heuristic (s*N/2 + 3)^2 = 1e+200 for N=2, s=1e+100"


@pytest.mark.parametrize("experiment, section", [
    ("walk", {"hilbert": {"n_max": 10 ** 12}}),                        # 14.6 TiB Fock state
    ("walk", {"hilbert": {"n_max": 10 ** 7}, "walk": {"n_steps": 0, "model": "all_order"}}),
    ("scan", {"scan": {"n_points": 10 ** 13}}),                         # 72.8 TiB k grid
    ("scan", {"walk": {"n_steps": 10 ** 12}}),                          # range(n_steps + 1)
], ids=["hilbert.n_max", "all_order_eigenbasis", "scan.n_points", "walk.n_steps"])
def test_oversized_arrays_rejected(tmp_path, capsys, experiment, section):
    # counted before anything is allocated: these ended in MemoryError
    # tracebacks from fock_state, np.linspace and list(range(...))
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, **{"walk": {"n_steps": 1}, **section})
    assert_rejected(tmp_path, capsys, cfg, experiment,
                    f"entries, above the limit of {cli.MAX_ARRAY_ENTRIES}")


def test_long_lamb_dicke_walk_fits_the_array_limit():
    # N = 200 at n_max = required_n_max(200, 2): a 41,210 x 401 coherent-state table
    n_max = walk.required_n_max(200, 2.0)
    cfg = {"schema_version": 1, "experiment": "width_curve",
           "hilbert": {"n_max": n_max}, "walk": {"n_steps": 200}}
    assert cli.validate_config(cfg)[0].startswith("OK: n_max")
    run = cli._resolve(cfg, 0)
    assert cli._largest_array("width_curve", run.wcfg, 61, None) == (
        41_210 * 401, "the coherent-state table")


@pytest.mark.parametrize("experiment, section, message", [
    ("width_curve", {"hilbert": {"n_max": 100}, "walk": {"n_steps": 100_000, "step_size": 1e-6}},
     f"a lattice factor's sum buffer would hold {6 * 200_001 ** 2:.3g} entries"),
    ("width_curve", {"hilbert": {"n_max": 100}, "walk": {"n_steps": 1500, "step_size": 0.01}},
     f"a lattice factor's sum buffer would hold {6 * 3001 ** 2:.3g} entries"),
    ("walk", {"hilbert": {"n_max": 8000}, "walk": {"n_steps": 850, "step_size": 0.01},
              "density_grid": {"spacing": 0.0029}},
     f"the Gaussian table would hold {3401 * 10_001:.3g} entries"),
    ("walk", {"hilbert": {"n_max": 5000}, "walk": {"n_steps": 1, "model": "all_order"},
              "density_grid": {"spacing": 0.0016}},
     f"the Hermite table would hold {5001 * 10_001:.3g} entries"),
    ("nbar_curve", {"hilbert": {"n_max": 16_000_000}, "walk": {"n_steps": 0}},
     f"the carrier Rabi table would hold {200 * 16_000_001:.3g} entries"),
], ids=["lattice_matrix", "lattice_buffer", "gaussian_table", "hermite_table", "rabi_table"])
def test_uncounted_arrays_rejected(tmp_path, capsys, experiment, section, message):
    # each passed validate: the count's largest array was the coherent-state
    # table, an L x L lattice matrix, the eigenbasis or the Fock state, all
    # below the limit, while the run would build the (3, L, 2L) sum buffer of
    # a 200,001- or 3,001-site lattice, a density table on 10,001 grid
    # points, or 200 Rabi times by 16 million levels
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, **section)
    assert_rejected(tmp_path, capsys, cfg, experiment, message)


def test_validate_config_returns_report_lines(tmp_path):
    # a narrow density grid is advice: the run's 0.999 mass check decides
    cfg = write_cfg(tmp_path / "c.json", experiment="reverse")
    assert cli.validate_config(cfg) == [
        "OK: n_max 96, truncation heuristic (s*N/2 + 3)^2 = 36 for N=3, s=2",
        "OK: grid extent 12, walk support s*N + 2 = 8"]
    assert cli.validate_config({**cfg, "density_grid": {"extent": 3}})[1] == (
        "ADVICE: grid extent 3, walk support s*N + 2 = 8")


def test_validate_advice_goes_to_stdout(tmp_path, capsys):
    # validate exited 1 on advice alone, which run's own checks decide
    cfg = tmp_path / "c.json"
    write_cfg(cfg, hilbert={"n_max": 50}, walk={"n_steps": 23}, density_grid={"extent": 3})
    assert cli.main(["validate", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("ADVICE: n_max 50, truncation heuristic (s*N/2 + 3)^2 = 676 "
                            "for N=23, s=2\nADVICE: grid extent 3, walk support s*N + 2 = 48\nOK\n")
    assert captured.err == ""


@pytest.mark.parametrize("axis", ["x", "p"])
def test_lamb_dicke_scan_at_a_huge_k(tmp_path, capsys, axis):
    # k^2 overflowed to inf: the result, e^-inf = 0, was exact, but numpy
    # warned (an error under the tests' warning filter)
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="scan", hilbert={"n_max": 40}, walk={"n_steps": 2},
              scan={"axis": axis, "k_max": 1e300, "n_points": 3, "noiseless": True})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == ""
    _, data = read_csv(tmp_path / "s_scan.csv")
    assert data[0, 1] == 1.0 and np.all(data[1:, 1] == 0.0)


@pytest.mark.parametrize("experiment, n_ions, builds", [
    ("walk", 1, 0), ("classical", 1, 0), ("two_ion", 2, 0), ("width_curve", 1, 0),
    ("reverse", 1, 2), ("nbar_curve", 1, 4)])
def test_runs_build_only_the_fock_states_they_read(tmp_path, monkeypatch, experiment, n_ions,
                                                   builds):
    # lamb_dicke walks stay on the lattice: densities, widths and nbar are
    # read from it; one build per snapshot whose Fock state the run reads:
    # the reversal fidelity reads the initial and the final state, and each
    # carrier Rabi scan one snapshot, the initial one included
    calls = []
    build = fock.LatticeFactor.fock
    monkeypatch.setattr(fock.LatticeFactor, "fock", lambda lattice, n_max: calls.append(1) or
                        build(lattice, n_max))
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, hilbert={"n_max": 120, "n_ions": n_ions})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == builds


def test_run_reverse_experiment(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reverse", walk={"n_steps": 2})
    prefix = tmp_path / "r"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    payload = json.loads((prefix.parent / f"{prefix.name}_summary.json").read_text())
    assert payload["fidelity"] > 0.999


def test_run_reverse_at_huge_coin_phase(tmp_path, capsys):
    # coin_phase + pi rounds to coin_phase at 1e300: the inverse coin must
    # not be a pi-shifted copy, or the packet wraps round the lattice
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reverse", hilbert={"n_max": 40},
              walk={"n_steps": 2, "coin_phase": 1e300})
    prefix = tmp_path / "r"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((prefix.parent / f"{prefix.name}_summary.json").read_text())
    assert payload["fidelity"] >= 1.0 - 1e-12


def test_run_scan_experiment(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="scan", walk={"n_steps": 1},
              scan={"axis": "x", "n_points": 21, "k_max": 2.0, "shots": 200})
    prefix = tmp_path / "s"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_scan.csv")
    assert header == ["k", "estimate", "shots"]
    assert data.shape == (21, 3)
    assert np.all(np.abs(data[:, 1]) <= 1.0)
    assert np.all(data[:, 2] == 200)


@pytest.mark.parametrize("axis, n_ions, spin_prep",
                         [("x", 1, "plus_z"), ("p", 1, "plus_y"),
                          ("x", 2, "plus_y"), ("p", 2, "plus_z")])
def test_noiseless_lamb_dicke_scan_matches_fock_path(tmp_path, axis, n_ions, spin_prep):
    # the scan experiment reads the lattice factor of snapshot_ensemble's
    # ensemble; the eigenbasis scan of a Fock-only copy is the reference
    # (40 levels above required_n_max: truncation error below 1e-14)
    n_max = walk.required_n_max(3, 2.0 * n_ions) + 40
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="scan", hilbert={"n_max": n_max, "n_ions": n_ions},
              scan={"axis": axis, "spin_prep": spin_prep, "noiseless": True})
    prefix = tmp_path / "s"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    _, data = read_csv(prefix.parent / f"{prefix.name}_scan.csv")
    wcfg = walk.WalkConfig(n_steps=3, params=HilbertParams(n_max=n_max, n_ions=n_ions))
    ensemble = walk.snapshot_ensemble(walk.quantum_walk(wcfg), 3)
    assert ensemble.lattice is not None
    want = probe.scan_observable(MotionalEnsemble(ensemble.params, ensemble.factor),
                                 spin_prep, data[:, 0], axis)
    assert np.max(np.abs(data[:, 1] - want)) < 1e-12
    assert np.all(data[:, 2] == 0)


def test_run_classical_experiment(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="classical", walk={"n_steps": 2})
    prefix = tmp_path / "cl"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_summary.csv")
    assert np.allclose(data[:, 1] ** 2, [1.0, 5.0, 9.0], atol=1e-10)    # <x^2> = 4N + 1


def test_run_two_ion_requires_two_ions(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="two_ion")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "t")]) == 1
    cfg2 = tmp_path / "c2.json"
    write_cfg(cfg2, experiment="two_ion", hilbert={"n_max": 160, "n_ions": 2},
              walk={"n_steps": 1})
    assert cli.main(["run", str(cfg2), "--out", str(tmp_path / "t2")]) == 0


def test_run_reconstruct_experiment(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", walk={"n_steps": 1},
              scan={"noiseless": True, "n_points": 41},
              reconstruction={"kind": "linear", "grid_spacing": 0.1,
                              "steps": [1]})
    prefix = tmp_path / "rec"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_step01_density.csv")
    x, dens = data[:, 0], data[:, 1]
    assert abs(np.sum(dens) * (x[1] - x[0]) - 1.0) < 1e-5
    diag_path = prefix.parent / f"{prefix.name}_diagnostics.json"
    first = diag_path.read_bytes()
    diag = json.loads(first)["1"]
    assert diag["fisher"] <= 4 * diag["kinetic_bound"] + 1e-6
    assert set(diag) == {"objective", "fisher", "kinetic_bound", "iterations",
                         "gap", "multiplier"}
    assert 0.0 < diag["gap"] < 1e-7 and diag["multiplier"] >= 0.0
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    assert diag_path.read_bytes() == first


def test_run_width_curve(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="width_curve", walk={"n_steps": 3})
    prefix = tmp_path / "wc"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_widths.csv")
    assert header == ["N", "w_x", "w_x_classical", "w_x_classical_ref", "w_p", "nbar"]
    ref = [np.sqrt(4 * n + 1) for n in range(4)]       # step size 2
    assert np.allclose(data[:, 3], ref, atol=1e-9)
    assert np.allclose(data[:, 2], ref, atol=1e-10)    # the dephased walk is exact


def test_run_nbar_curve(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="nbar_curve", walk={"n_steps": 2})
    prefix = tmp_path / "nb"
    assert cli.main(["run", str(cfg), "--out", str(prefix)]) == 0
    header, data = read_csv(prefix.parent / f"{prefix.name}_nbar.csv")
    assert header == ["N", "nbar_exact", "nbar_fit"]
    assert np.allclose(data[:, 1], data[:, 2], atol=0.15)


def test_nbar_curve_beyond_the_scan_exits_2(tmp_path, capsys):
    # two 14-width steps: <n> ~ 98 asks for 216 populations from 200 Rabi times
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="nbar_curve", hilbert={"n_max": 300},
              walk={"n_steps": 2, "step_size": 14.0})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "nb")]) == 2
    err = capsys.readouterr().err
    assert "stage=nbar_curve: FitWindowError: 200 distinct times cannot resolve" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("experiment, overrides", [
    ("reconstruct", {"walk": {"n_steps": 2}, "scan": {"noiseless": True, "n_points": 41},
                     "reconstruction": {"kind": "linear", "grid_spacing": 0.2,
                                        "steps": [1, 2]}}),
    ("nbar_curve", {"walk": {"n_steps": 2}}),
])
def test_debug_log_reports_each_solve(tmp_path, monkeypatch, caplog, experiment, overrides):
    # IONWALK_DEBUG=1 logs one line per solve: the step, its Newton steps,
    # gap and (with a Fisher bound) multiplier; the result files do not change
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment=experiment, **overrides)
    outputs, logged = {}, {}
    for debug in (False, True):
        if debug:
            monkeypatch.setenv("IONWALK_DEBUG", "1")
        caplog.clear()
        out = tmp_path / f"debug{int(debug)}"
        out.mkdir()
        assert cli.main(["run", str(cfg), "--out", str(out / "o")]) == 0
        outputs[debug] = {p.name: p.read_bytes() for p in out.iterdir()}
        logged[debug] = [r.getMessage() for r in caplog.records
                         if "Newton steps" in r.getMessage()]
    assert outputs[True] == outputs[False]
    assert logged[False] == []
    solves = logged[True]
    assert len(solves) == (2 if experiment == "reconstruct" else 3)
    if experiment == "reconstruct":
        diagnostics = json.loads(outputs[True]["o_diagnostics.json"])
        for line, n in zip(solves, ("1", "2")):
            d = diagnostics[n]
            assert line == (f"step {n}: {d['iterations']} Newton steps, gap {d['gap']:.3g}, "
                            f"multiplier {d['multiplier']:.6g}")
    else:
        for n, line in enumerate(solves):
            assert re.fullmatch(rf"step {n}: [1-9]\d* Newton steps, gap \S+", line)


def test_config_schema_is_valid():
    # load_config validates with a validator built once and no longer
    # checks the schema against its meta-schema on every call
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of code run with args in a new interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_stays_lean():
    # scipy.linalg and jsonschema (with referencing, attrs and rpds) were most
    # of every run's start-up; importing the CLI and checking a config loads
    # none of them, and of the third-party packages only the declared runtime
    # dependencies. Modules that site's .pth files import before are not
    # counted, nor the spec-less modules Cython extensions create.
    code = ("import json, sys; before = set(sys.modules); import ionwalk.cli; "
            "ionwalk.cli.load_config(sys.argv[1]); "
            "added = {m.partition('.')[0] for m in set(sys.modules) - before "
            "         if sys.modules[m].__spec__ is not None}; "
            "print(json.dumps([sorted(added - set(sys.stdlib_module_names) - {'ionwalk'}), "
            "sorted(m for m in sys.modules if m.partition('.')[0] in "
            "('scipy', 'jsonschema', 'referencing', 'attrs', 'attr', 'rpds'))]))")
    added, forbidden = json.loads(_fresh_python(code, str(CONFIGS[0])))
    assert forbidden == []
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert added == sorted(re.split(r"[<>=!~;\[ ]", dep)[0] for dep in dependencies) == ["numpy"]


def test_runs_load_neither_scipy_nor_numpy_ma(tmp_path):
    # an all_order reconstruction under the kinetic bound (motional SVD, barrier
    # solver), a lamb_dicke classical walk (dephasing) and a lamb_dicke phonon
    # fit (shot noise, simplex solve); np.unique would load numpy.ma
    runs = {
        "rec": {"experiment": "reconstruct", "hilbert": {"n_max": 60, "eta": 0.06},
                "walk": {"n_steps": 2, "model": "all_order"}, "scan": {"n_points": 21},
                "reconstruction": {"kind": "x_diagonal", "grid_spacing": 0.4,
                                   "use_kinetic_bound": True, "steps": [2]}},
        "classical": {"experiment": "classical", "walk": {"n_steps": 2}},
        "nbar": {"experiment": "nbar_curve", "walk": {"n_steps": 2}},
    }
    for name, overrides in runs.items():
        write_cfg(tmp_path / f"{name}.json", **overrides)
    code = ("import sys; from ionwalk import cli; "
            "codes = [cli.main(['run', f'{p}.json', '--out', p]) for p in sys.argv[1:]]; "
            "print(codes, [m for m in ('scipy', 'numpy.ma') if m in sys.modules])")
    out = _fresh_python(code, *(str(tmp_path / name) for name in runs))
    assert out.strip() == "[0, 0, 0] []"
    assert (tmp_path / "rec_step02_density.csv").exists()


@pytest.mark.parametrize("argv", [["run", "c.json", "--threads", "2"], ["run"], ["validate"]],
                         ids=["threads_flag", "run_without_config", "validate_without_config"])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 is reserved for numerical failures, so argparse's own 2 becomes 1
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    assert cli.main(["run", "-h"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_trials_key_rejected(tmp_path, capsys):
    # the classical walk is exact, so a trial count is a config error
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="width_curve", walk={"n_steps": 1, "trials": 200})
    assert_rejected(tmp_path, capsys, cfg, "config", "'trials' was unexpected")


def test_missing_config_file(capsys):
    assert cli.main(["run", "/nonexistent/nowhere.json"]) == 1
    assert "stage=config" in capsys.readouterr().err


def test_write_csv_golden_bytes(tmp_path):
    # floats as "%.14g", integers as str(int), one column at a time;
    # 0.1 + 0.2 needs 17 digits under repr
    path = tmp_path / "g.csv"
    floats = np.array([0.1, -2.5, -0.0, 3.0, 1e-300, 1.0 / 3.0, 5e-324, 0.1 + 0.2])
    ints = np.array([0, -7, 12, 3, 100000, 2, 1, 8])
    cli.write_csv(str(path), ["x", "n"], [floats, ints])
    assert path.read_bytes() == (b"x,n\n0.1,0\n-2.5,-7\n-0,12\n3,3\n1e-300,100000\n"
                                 b"0.33333333333333,2\n4.9406564584125e-324,1\n0.3,8\n")
    # a column formatted once and reused writes the same bytes
    again = tmp_path / "h.csv"
    cli.write_csv(str(again), ["x", "n"], [cli._format_column(floats), ints])
    assert again.read_bytes() == path.read_bytes()


def test_run_csv_precision_contract(tmp_path):
    # every written float within 5e-14 relative of the computed double (plus
    # the half-ulp of reading it back), zeros exact, at most 14 significant
    # digits, and the same bytes from a second run; the grid reaches far
    # enough for the tails to underflow to zero and through the subnormals
    cfg = tmp_path / "c.json"
    write_cfg(cfg, density_grid={"extent": 40.0, "spacing": 0.05})
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / name / "w")]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]
    files = outputs[0]

    result = walk.quantum_walk(walk.WalkConfig(n_steps=3, params=HilbertParams(n_max=96)))
    grid = reconstruct.PositionGrid.symmetric(40.0, 0.05).points
    exact = {f"w_step{n:02d}_density.csv": np.column_stack([grid, dens]) for n, dens in
             enumerate(walk.snapshot_densities(result, range(4), grid))}
    snaps = result.snapshots
    exact["w_summary.csv"] = np.column_stack([
        np.arange(4), [walk.width_x(s) for s in snaps], [walk.width_p(s) for s in snaps],
        [walk.mean_phonon(s) for s in snaps]])
    assert sorted(files) == sorted(exact)
    assert np.any(exact["w_step03_density.csv"] == 0.0)

    for name, text in files.items():
        rows = [line.split(",") for line in text.decode().splitlines()[1:]]
        written = np.array(rows, dtype=float)
        assert written.shape == exact[name].shape
        err = np.abs(written - exact[name])
        assert np.all(err <= (5e-14 + 2.0 ** -53) * np.abs(exact[name])), name
        assert np.all(written[exact[name] == 0.0] == 0.0)
        for cell in (c for row in rows for c in row):
            mantissa = cell.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 14, (name, cell)


def assert_rejected(tmp_path, capsys, cfg, stage, message):
    """Both commands exit 1 naming the stage; run leaves no file and no staging directory."""
    for command in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert cli.main(command) == 1
        err = capsys.readouterr().err
        assert f"stage={stage}: " in err and message in err
        assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_rejected(tmp_path, capsys, token):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, walk={"n_steps": 2, "coin_phase": 0.5})
    cfg.write_text(cfg.read_text().replace("0.5", token))
    assert_rejected(tmp_path, capsys, cfg, "config", "not finite")


@pytest.mark.parametrize("model", ["third_order", "x_diagonal"])
def test_x_only_walk_model_rejected(tmp_path, capsys, model):
    # the x-only models are gone: the schema's enum, built from FidelityModel,
    # refuses them before any experiment runs
    cfg = tmp_path / "c.json"
    write_cfg(cfg, walk={"n_steps": 2, "model": model})
    assert_rejected(tmp_path, capsys, cfg, "config",
                    f"{model!r} is not one of ['lamb_dicke', 'all_order']")


def test_reconstruction_step_beyond_walk_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", walk={"n_steps": 6},
              scan={"noiseless": True, "n_points": 41},
              reconstruction={"steps": [1, 9]})
    assert_rejected(tmp_path, capsys, cfg, "reconstruct", "beyond walk.n_steps = 6")


def test_kinetic_bound_with_too_few_scan_points_rejected(tmp_path, capsys):
    # the kinetic bound's momentum width fit needs probe.FIT_MIN_POINTS
    # points, so the run could only end in a FitWindowError: a config error
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", hilbert={"n_max": 40}, walk={"n_steps": 1},
              scan={"n_points": 3, "noiseless": True},
              reconstruction={"grid_spacing": 0.5})
    assert_rejected(tmp_path, capsys, cfg, "reconstruct",
                    f"scan.n_points >= {probe.FIT_MIN_POINTS} for the momentum width fit")


def test_duplicate_reconstruction_steps_rejected(tmp_path, capsys):
    # each step is solved and written once
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", walk={"n_steps": 2},
              scan={"noiseless": True, "n_points": 41},
              reconstruction={"steps": [2, 2, 1]})
    assert_rejected(tmp_path, capsys, cfg, "config", "[2, 2, 1] has non-unique elements")


@pytest.mark.parametrize("overrides", [{"experiment": "scan", "scan": {"n_points": 3.0}},
                                       {"walk": {"n_steps": 2.0}},
                                       {"hilbert": {"n_max": 60.0}},
                                       {"experiment": "two_ion",
                                        "hilbert": {"n_max": 160, "n_ions": 2.0}}],
                         ids=["scan.n_points", "walk.n_steps", "hilbert.n_max", "hilbert.n_ions"])
def test_integral_floats_for_integer_keys_rejected(tmp_path, capsys, overrides):
    # Draft 2020-12 counts 3.0 as an integer; the runners then raised TypeError
    cfg = tmp_path / "c.json"
    write_cfg(cfg, **overrides)
    assert_rejected(tmp_path, capsys, cfg, "config", "is not of type 'integer'")


@pytest.mark.parametrize("route, prefix", [("--out", "out/"), ("output_prefix", "out/"),
                                           ("--out", "out/.")])
def test_prefix_without_file_name_exits_1(tmp_path, capsys, monkeypatch, route, prefix):
    # "out/" and "out/." name a directory and no file, so the outputs would
    # be bare suffixes such as "_step00_density.csv" or "._step00_density.csv"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    if route == "--out":
        write_cfg(tmp_path / "c.json")
        commands = [["run", "c.json", "--out", prefix]]
    else:
        write_cfg(tmp_path / "c.json", output_prefix=prefix)
        commands = [["run", "c.json"], ["validate", "c.json"]]
    for argv in commands:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"stage=walk: output prefix {prefix!r} has no file name" in err
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"]
    assert list((tmp_path / "out").iterdir()) == []


def test_walk_sections_resolve_to_the_dataclass_defaults(tmp_path):
    # hilbert and walk keys are HilbertParams' and WalkConfig's fields, so
    # an unset key takes the dataclass default and an unknown one, in a dict
    # passed straight to run_experiment, is a ConfigError
    cfg = {"schema_version": 1, "experiment": "walk",
           "hilbert": {"n_max": 40}, "walk": {"n_steps": 2}}
    want = walk.WalkConfig(n_steps=2, params=HilbertParams(n_max=40), seed=5)
    assert cli._resolve(cfg, 5).wcfg == want
    for section, key in (("hilbert", "nmax"), ("walk", "trails"), ("walk", "seed")):
        bad = {**cfg, section: {**cfg[section], key: 1}}
        with pytest.raises(cli.ConfigError, match=key):
            cli.run_experiment(bad, str(tmp_path / "o"), 5)
    with pytest.raises(cli.ConfigError, match="n_max"):
        cli.run_experiment({**cfg, "hilbert": {}}, str(tmp_path / "o"), 5)
    assert list(tmp_path.iterdir()) == []


def test_out_into_missing_directory_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "nowhere" / "w")]) == 1
    err = capsys.readouterr().err
    assert "stage=walk: cannot write outputs" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_negative_seed_flag_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="classical", walk={"n_steps": 1})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "stage=classical: seed -1 must be >= 0" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_failed_run_publishes_nothing(tmp_path, capsys, monkeypatch):
    solve = reconstruct.reconstruct_density
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "reconstruct_density", fail_second)
    cfg = tmp_path / "c.json"
    write_cfg(cfg, experiment="reconstruct", walk={"n_steps": 2},
              scan={"noiseless": True, "n_points": 41},
              reconstruction={"kind": "linear", "steps": [1, 2]})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "rec")]) == 2
    assert "stage=reconstruct: RuntimeError: injected failure" in capsys.readouterr().err
    assert len(calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_validate(path, capsys):
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "OK"
    assert not [line for line in out if line.startswith("ADVICE:")]
