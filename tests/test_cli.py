import dataclasses
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from spatialmoran import N2Params, moran_rho, montecarlo, n2_F, transition_kernel, galanis_model
import spatialmoran.cli as cli_module
from spatialmoran import exact, verification
from spatialmoran.cli import main


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")


@pytest.fixture(scope="module")
def schema():
    text = resources.files("spatialmoran").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


#: @complete:11 under a policy that is not stationary.
MIXED_POLICY = "@complete:11 --mu " + ",".join(["0.05"] * 10 + ["0.5"])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def run_json(capsys, schema, *argv):
    """Exit code and output of ``main(argv)``, parsed as strict JSON (no NaN, no Infinity:
    ``jsonschema`` would take a float NaN for a number) and validated against the schema."""
    code, out = run(capsys, *argv)
    doc = json.loads(out, parse_constant=_reject)
    jsonschema.validate(doc, schema)
    return code, doc


class TestExactCommand:
    def test_galanis_level_one(self, capsys, schema):
        code, doc = run_json(capsys, schema, "exact", "--model", "@galanis",
                             "--r", "1", "--init", "level:1:uniform")
        assert code == 0
        assert doc["rho_alpha"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["manifest"]["command"] == "exact"
        assert len(doc["rho"]) == 8
        assert doc["deviation"]["1"] <= 1e-9
        assert doc["moran"]["1"] == pytest.approx(1 / 3)

    def test_complete_graph_single_mutant(self, capsys, schema):
        code, doc = run_json(capsys, schema, "exact", "--model", "@complete:5",
                             "--r", "2", "--init", "mask:1")
        assert code == 0
        assert doc["rho_alpha"] == pytest.approx(16 / 31, abs=1e-12)
        assert doc["rho_alpha"] == pytest.approx(moran_rho(1, 5, 2.0), abs=1e-12)

    def test_closed_form_solver_block_fits_the_schema(self, capsys, schema):
        code, doc = run_json(capsys, schema, "exact", "--model", "@complete:11", "--r", "2")
        assert code == 0
        assert doc["solver"]["method"] == "closed-form" and doc["solver"]["iterations"] == 0
        assert doc["deviation"]["1"] == 0.0

    def test_init_is_optional(self, capsys, schema):
        code, doc = run_json(capsys, schema, "exact", "--model", "@n2:1,1")
        assert code == 0
        assert "rho_alpha" not in doc

    def test_fitness_below_double_resolution_is_solved(self, capsys, schema):
        # r - 1 rounds to -1 here, where log1p(r - 1) is undefined
        code, doc = run_json(capsys, schema, "exact", "--model", "@galanis", "--r", "1e-17")
        assert code == 0
        assert doc["moran"]["1"] == pytest.approx(1e-34, rel=1e-12)

    def test_malformed_matrix_exits_two(self, capsys, schema, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "W": [[0.5, 0.6], [0.5, 0.5]], "r": 1}))
        code, doc = run_json(capsys, schema, "exact", "--model", str(path))
        assert code == 2
        assert doc["error"]["type"] == "NotStochastic"

    @pytest.mark.parametrize("field", ["W", "mu"])
    def test_non_finite_entry_exits_two(self, capsys, schema, tmp_path, field):
        doc = {"n": 2, "W": [[0.0, 1.0], [1.0, 0.0]], "mu": [0.5, 0.5], "r": 1}
        doc[field][0] = [float("nan"), 1.0] if field == "W" else float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code, out = run_json(capsys, schema, "exact", "--model", str(path))
        assert code == 2
        assert out["error"]["type"] == "NotStochastic"

    def test_byte_stable(self, capsys):
        args = ("exact", "--model", "@galanis", "--init", "mask:1")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("indent", [None, 0, 2])
    # dense LU; a stationary policy certified in closed form; BiCGSTAB for a policy that is not
    @pytest.mark.parametrize("model", ["@galanis", "@complete:11",
                                       pytest.param(MIXED_POLICY, id="@complete:11-mu")])
    @pytest.mark.parametrize("init", [(), ("--init", "level:1:uniform")])
    def test_output_is_json_dumps_of_the_dict_form(self, capsys, monkeypatch, indent, model, init):
        # the rho block is written apart from json.dumps; the reference is built from the
        # same report, so the floats the test compares do not depend on the machine
        reports = []

        def solve(model, alpha=None):
            reports.append(exact.fixation_probabilities(model, alpha=alpha))
            return reports[-1]

        monkeypatch.setattr(cli_module, "fixation_probabilities", solve)
        argv = ["exact", "--model", *model.split(), "--r", "1.5", *init]
        if indent is not None:
            argv += ["--json-indent", str(indent)]
        code, out = run(capsys, *argv)
        (report,) = reports
        n, deviation = report.n, report.per_level_deviation.tolist()
        doc = {
            "manifest": cli_module._manifest("exact", argv, None),
            "rho": [{"mask": mask, "value": value} for mask, value in enumerate(report.rho.tolist())],
            "deviation": {str(j): deviation[j] for j in range(1, n)},
            "moran": {str(j): moran_rho(j, n, 1.5) for j in range(1, n)},
            "solver": dataclasses.asdict(report.solver),
        }
        if init:
            doc["rho_alpha"] = report.rho_alpha
        assert code == 0
        assert report.solver.method == {"@galanis": "dense", "@complete:11": "closed-form",
                                         MIXED_POLICY: "iterative"}[model]
        assert out == json.dumps(doc, indent=indent) + "\n"


@pytest.mark.parametrize("indent", [None, 0, 2])
def test_emit_writes_each_bit_pattern_as_json_dumps_does(capsys, indent):
    # repeated values, -0.0 beside 0.0, the least subnormal, and values of 17 digits
    rho = np.array([0.0, -0.0, 1 / 3, 1 / 3, 5e-324, 0.1 + 0.2, -0.0, 1.0,
                    np.nextafter(0.1, 1.0), 0.0, 5e-324, 0.1 + 0.2, 1.0])
    # the key is matched, not a string that holds it (json.dumps escapes its quotes)
    doc = {"manifest": {"note": '"rho": null'}, "rho": None, "after": [0.5]}
    cli_module._emit(doc, indent, rho)
    rows = [{"mask": mask, "value": value} for mask, value in enumerate(rho.tolist())]
    assert capsys.readouterr().out == json.dumps(dict(doc, rho=rows), indent=indent) + "\n"


class TestSimulateCommand:
    def test_galanis_estimate(self, capsys, schema):
        code, doc = run_json(capsys, schema, "simulate", "--model", "@galanis",
                             "--init", "mask:1", "--trials", "20000", "--seed", "11")
        assert code == 0
        sigma = np.sqrt((1 / 3) * (2 / 3) / 20000)
        assert abs(doc["frequency"] - 1 / 3) <= 4 * sigma
        assert doc["fixations"] + doc["extinctions"] + doc["censored"] == 20000
        assert doc["manifest"]["seed"] == 11

    def test_zero_trials_exits_two(self, capsys, schema):
        code, doc = run_json(capsys, schema, "simulate", "--model", "@galanis",
                             "--init", "mask:1", "--trials", "0", "--seed", "1")
        assert code == 2
        assert doc["error"]["type"] == "OutOfRange"

    def test_absorbing_init_exits_two(self, capsys, schema):
        code, doc = run_json(capsys, schema, "simulate", "--model", "@galanis",
                             "--init", "mask:7", "--trials", "10", "--seed", "1")
        assert code == 2
        assert doc["error"]["type"] == "AtomOnAbsorbing"

    def test_more_than_63_vertices_runs(self, capsys, schema):
        code, doc = run_json(capsys, schema, "simulate", "--model", "@complete:70",
                             "--r", "1.5", "--init", "mask:31", "--trials", "200",
                             "--seed", "1")
        assert code == 0
        exact = moran_rho(5, 70, 1.5)
        assert abs(doc["frequency"] - exact) <= 4 * np.sqrt(exact * (1 - exact) / 200)

    def test_faithful_mode_with_step_cap(self, capsys, schema):
        code, doc = run_json(capsys, schema, "simulate", "--model", "@n2:0.1,0.1",
                             "--init", "mask:1", "--trials", "500", "--seed", "3",
                             "--mode", "faithful", "--max-steps", "50")
        assert code == 0
        assert doc["mode"] == "faithful"
        assert doc["censored"] + doc["fixations"] + doc["extinctions"] == 500

    def test_every_trial_censored_writes_null(self, capsys, schema):
        # the library's NaN frequency and interval are written as null, strict JSON
        code, doc = run_json(capsys, schema, "simulate", "--model", "@complete:10",
                             "--init", "level:5:uniform", "--trials", "5", "--max-steps", "1")
        assert code == 0
        assert doc["censored"] == 5
        assert doc["frequency"] is None and doc["ci_halfwidth"] is None

    def test_identical_across_worker_counts(self, capsys):
        docs = []
        for workers in ("1", "4", "8"):
            _, out = run(capsys, "simulate", "--model", "@galanis", "--init", "mask:1",
                         "--trials", "5000", "--seed", "9", "--workers", workers)
            doc = json.loads(out)
            doc["manifest"]["arguments"] = []  # only the echoed argv differs
            docs.append(doc)
        assert docs[0] == docs[1] == docs[2]

    def test_worker_environment_variable_is_ignored(self, capsys, schema, monkeypatch):
        # a malformed value once made build_parser raise ValueError for every subcommand
        def no_pool(*args, **kwargs):
            raise AssertionError("simulate without --workers must run in-process")

        monkeypatch.setenv("SPATIALMORAN_WORKERS", "abc")
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        assert run_json(capsys, schema, "exact", "--model", "@galanis")[0] == 0
        code, doc = run_json(capsys, schema, "simulate", "--model", "@galanis",
                             "--init", "mask:1", "--trials", "10")
        assert code == 0
        assert doc["trials"] == 10


class TestSweepCommand:
    def test_header_and_order(self, capsys):
        code, out = run(capsys, "sweep", "--c", "2", "--r", "0.5", "--grid", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,m,F"
        coords = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
        assert coords == sorted(coords)
        assert len(lines) == 1 + 9

    def test_stationary_column_unit(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _ = run(capsys, "sweep", "--c", "1", "--r", "4", "--grid", "201",
                      "--out", str(path))
        assert code == 0
        rows = path.read_text().strip().split("\n")[1:]
        hits = 0
        for row in rows:
            a, m, F = (float(v) for v in row.split(","))
            if m == 0.5:
                hits += 1
                assert abs(F - 1.0) <= 1e-12
        assert hits == 201

    @pytest.mark.parametrize("c, r, grid", [(2.0, 3.0, 11), (0.5, 3.0, 57), (1.0, 4.0, 101)])
    def test_rows_are_labelled_with_the_points_evaluated(self, capsys, c, r, grid):
        # F at each printed (a, m) is bitwise the closed form there
        code, out = run(capsys, "sweep", "--c", str(c), "--r", str(r), "--grid", str(grid))
        assert code == 0
        mismatches = 0
        for line in out.strip().split("\n")[1:]:
            a, m, F = (float(v) for v in line.split(","))
            if not np.isnan(F):
                mismatches += F != n2_F(N2Params(a=a, m=m, c=c, r=r))
        assert mismatches == 0

    def test_grid_too_small_exits_two(self, capsys):
        code, _ = run(capsys, "sweep", "--c", "1", "--r", "1", "--grid", "1")
        assert code == 2

    def test_inverse_ratio_sweeps_mirror_both_axes(self, capsys):
        _, out_a = run(capsys, "sweep", "--c", "2", "--r", "3", "--grid", "11")
        _, out_b = run(capsys, "sweep", "--c", "0.5", "--r", "3", "--grid", "11")
        grid_a = np.array([float(line.split(",")[2]) for line in out_a.strip().split("\n")[1:]]).reshape(11, 11)
        grid_b = np.array([float(line.split(",")[2]) for line in out_b.strip().split("\n")[1:]]).reshape(11, 11)
        assert np.max(np.abs(grid_a - grid_b[::-1, ::-1])) <= 1e-12


class TestVerifyCommand:
    def test_builtin_suite_passes(self, capsys, schema):
        code, doc = run_json(capsys, schema, "verify", "--graphs", "3")
        assert code == 0
        assert doc["pass"] is True
        expected = {
            "stochasticity_stationarity", "stationary_selection_fixation",
            "isothermal_fixation", "martingale_drift", "martingale_exponential",
            "ratio_constancy_stationary", "ratio_deviation_witness",
            "classic_reduction", "macro_markov", "n2_closed_form",
            "galanis_closed_form",
        }
        assert set(doc["checks"]) == expected
        assert all(entry["pass"] for entry in doc["checks"].values())

    def test_user_model_is_descriptive(self, capsys, schema):
        code, doc = run_json(capsys, schema, "verify", "--model", "@galanis",
                             "--mu", "uniform")
        assert code == 0
        report = doc["model_report"]
        assert report["macro_markov"]["lumpable"] is False
        assert report["ratio_constancy"] > 1e-6
        assert report["policy_is_stationary"] is False

    def test_infinite_ratio_writes_null(self, capsys, schema):
        # a zero policy entry: vertex 2 is never selected, so from mask 4 no mutant is gained
        code, doc = run_json(capsys, schema, "verify", "--model", "@galanis",
                             "--mu", "0.5,0.5,0")
        assert code == 0
        report = doc["model_report"]
        assert report["ratio_constancy"] is None
        assert report["single_mutant_ratio_witness"] == {"mask": 4, "deviation": None}

    def test_complete_graph_model_is_lumpable(self, capsys, schema):
        code, doc = run_json(capsys, schema, "verify", "--model", "@complete:4", "--r", "1")
        assert code == 0
        assert doc["model_report"]["macro_markov"]["lumpable"] is True

    @pytest.mark.parametrize("flags", [("--r", "3"), ("--mu", "uniform"),
                                       ("--dump-kernel", "kernel.csv")])
    def test_model_flags_without_a_model_exit_two(self, capsys, schema, tmp_path, monkeypatch,
                                                  flags):
        # the builtin suite has no model to apply them to
        monkeypatch.chdir(tmp_path)
        code, doc = run_json(capsys, schema, "verify", "--graphs", "1", *flags)
        assert code == 2
        assert doc["error"]["type"] == "InputError" and "--model" in doc["error"]["message"]
        assert not (tmp_path / "kernel.csv").exists()

    def test_model_above_exact_size_exits_two(self, capsys, schema):
        code, doc = run_json(capsys, schema, "verify", "--model", "@complete:21")
        assert code == 2
        assert doc["error"]["type"] == "TooLarge"

    @pytest.mark.parametrize("graphs", ["0", "-1"])
    def test_graphs_below_one_exits_two(self, capsys, schema, graphs):
        code, doc = run_json(capsys, schema, "verify", "--graphs", graphs)
        assert code == 2
        assert doc["error"]["type"] == "OutOfRange"

    def test_failed_builtin_suite_exits_one(self, capsys, monkeypatch):
        def failing_suite(seed, graphs):
            return {"stochasticity_stationarity": {
                "pass": False, "max_deviation": 1.0, "threshold": 1e-12}}

        monkeypatch.setattr(cli_module, "builtin_suite", failing_suite)
        code, out = run(capsys, "verify", "--graphs", "1")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_infinite_deviation_writes_null(self, capsys, schema, monkeypatch):
        monkeypatch.setattr(verification, "_galanis_suite", lambda rng: float("inf"))
        code, doc = run_json(capsys, schema, "verify", "--graphs", "1")
        assert code == 1
        check = doc["checks"]["galanis_closed_form"]
        assert check["pass"] is False and check["max_deviation"] is None
        assert doc["checks"]["n2_closed_form"]["max_deviation"] is not None

    def test_dump_kernel(self, capsys, tmp_path):
        path = tmp_path / "kernel.csv"
        code, _ = run(capsys, "verify", "--model", "@galanis", "--dump-kernel", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "from_mask,to_mask,prob"
        triples = [line.split(",") for line in lines[1:]]
        keys = [(int(s), int(d)) for s, d, _ in triples]
        assert keys == sorted(keys)
        kernel = transition_kernel(galanis_model(1.0))
        expected = {(s, d): p for s, d, p in kernel.entries()}
        assert len(triples) == len(expected)
        for s, d, p in triples:
            assert float(p) == pytest.approx(expected[(int(s), int(d))], abs=1e-15)
        sums = {}
        for s, _, p in triples:
            sums[int(s)] = sums.get(int(s), 0.0) + float(p)
        assert all(abs(v - 1.0) <= 1e-12 for v in sums.values())


_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_SIM = ("--init", "mask:1", "--trials", "10")


@pytest.mark.parametrize("argv, error", [
    (("exact", "--model", "@complete:abc"), "InputError"),
    (("exact", "--model", "@galanis", "--init", "atoms:[(1,0.5),(2)]"), "InputError"),
    (("exact", "--model", "@galanis", "--init", 'atoms:[("x",1)]'), "InputError"),
    (("exact", "--model", "@galanis", "--init", "atoms:[(1,0.5,3)]"), "InputError"),
    (("sweep", "--c", "2", "--r", "0"), "OutOfRange"),
    (("sweep", "--c", "2", "--r", "-1"), "OutOfRange"),
    (("sweep", "--c", "0", "--r", "2"), "OutOfRange"),
    (("sweep", "--c", "-1", "--r", "2"), "OutOfRange"),
    (("sweep", "--c", "nan", "--r", "2"), "OutOfRange"),
    (("sweep", "--c", "inf", "--r", "2", "--grid", "3"), "OutOfRange"),
    (("sweep", "--c", "1", "--r", "inf", "--grid", "3"), "OutOfRange"),
    (("sweep", "--c", "1", "--r", "nan", "--grid", "3"), "OutOfRange"),
    (("exact", "--model", "@galanis", "--init", "atoms:[(1,NaN)]"), "NotStochastic"),
    (("simulate", "--model", "@galanis", "--init", "atoms:[(1,NaN)]", "--trials", "10"),
     "NotStochastic"),
    # model documents, written to a file
    (("exact", "--model", {"n": "abc", "W": _SWAP}), "NotStochastic"),
    (("simulate", "--model", {"n": "abc", "W": _SWAP}, *_SIM), "NotStochastic"),
    (("exact", "--model", {"n": None, "W": _SWAP}), "NotStochastic"),
    (("simulate", "--model", {"n": None, "W": _SWAP}, *_SIM), "NotStochastic"),
    (("exact", "--model", {"W": 5}), "InputError"),
    (("simulate", "--model", {"W": 5}, *_SIM), "InputError"),
    (("exact", "--model", {"W": _SWAP, "mu": {"a": 1}}), "InputError"),
    (("simulate", "--model", {"W": _SWAP, "mu": {"a": 1}}, *_SIM), "InputError"),
    # masks that are not integers, and JSON booleans, are refused rather than coerced
    (("exact", "--model", "@galanis", "--init", "atoms:[(1.5,1)]"), "InputError"),
    (("simulate", "--model", "@galanis", "--init", "atoms:[(2.9,1)]", "--trials", "10"),
     "InputError"),
    (("exact", "--model", "@galanis", "--init", "atoms:[(true,0.5),(2,0.5)]"), "InputError"),
    (("simulate", "--model", "@galanis", "--init", "atoms:[(1,true)]", "--trials", "10"),
     "NotStochastic"),
    (("exact", "--model", {"W": [[False, True], [True, False]], "r": True}), "NotStochastic"),
    (("simulate", "--model", {"W": [[False, True], [True, False]]}, *_SIM), "NotStochastic"),
    (("exact", "--model", {"W": _SWAP, "r": True}), "NotStochastic"),
    (("exact", "--model", {"W": [[0.5, 0.5], [1]]}), "NotStochastic"),
    (("verify", "--seed", "-1"), "OutOfRange"),
])
def test_malformed_input_exits_two_with_its_type(capsys, schema, tmp_path, argv, error):
    if isinstance(argv[2], dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(argv[2]))
        argv = (*argv[:2], str(path), *argv[3:])
    code, doc = run_json(capsys, schema, *argv)
    assert code == 2
    assert doc["error"]["type"] == error
