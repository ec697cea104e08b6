import csv
import inspect
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import ddpmlab
from ddpmlab import bounds, experiments, simulate
from ddpmlab.cli import main
from ddpmlab.experiments import ConfigError, parse_config, run
from ddpmlab.schedule import from_linear_variance, save_schedule
from ddpmlab.target import save_target, symmetric_mixture


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_values():
    cfg = parse_config("""
# comment
experiment = schedule-audit
schedule.n = 1000
gamma1 = 0.15
gamma2 = 30.67
""")
    assert cfg.experiment == "schedule-audit"
    assert cfg.get("schedule.n") == 1000
    assert cfg.get("gamma1") == 0.15


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("experiment = identity\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError):
        parse_config("gamma1 = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = identity\nexperiment = identity\n")
    with pytest.raises(ConfigError):
        parse_config("experiment identity\n")


@pytest.mark.parametrize("text, line", [(" = 3\nexperiment = identity\n", 1),
                                        ("experiment = identity\n# note\n=\n", 3)])
def test_parse_config_rejects_an_empty_key(text, line):
    with pytest.raises(ConfigError, match=rf"^line {line}: empty key$"):
        parse_config(text)


def test_sign_adjudication_defaults_to_256_paths(tmp_path):
    # the bench config without its paths and substeps_list: 256 paths through
    # the default 128..1024 substeps of 8 intervals, 8193 states a path
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "configs",
                         "sign_adjudication.cfg")
    with open(bench) as fh:
        text = "".join(line for line in fh
                       if not line.startswith(("paths", "substeps_list")))
    cfg = write(tmp_path, "sign.cfg", text)
    out = str(tmp_path / "sign")
    assert main(["run", cfg, "--seed", "1", "--out", out]) == 0
    with open(os.path.join(out, "bsde_residuals.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["substeps"]) for r in rows] == [128, 128, 256, 256, 512, 512, 1024, 1024]
    assert {r["paths"] for r in rows} == {"256"}
    with open(os.path.join(out, "summary.txt")) as fh:
        assert fh.read().splitlines()[-1] == "RESULT PASS"


def test_schedule_audit_run_pass_and_fail(tmp_path):
    cfg = write(tmp_path, "audit.cfg", """
experiment = schedule-audit
schedule.kind = linear
schedule.n = 1000
schedule.v_start = 1e-4
schedule.v_end = 0.02
gamma1 = 0.15
gamma2 = 30.67
""")
    out = str(tmp_path / "out1")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "RESULT PASS" in summary
    assert os.path.exists(os.path.join(out, "band_margins.csv"))
    assert os.path.exists(os.path.join(out, "config_resolved.txt"))

    cfg_fail = write(tmp_path, "audit_fail.cfg", """
experiment = schedule-audit
schedule.n = 1000
gamma1 = 0.16
gamma2 = 30.67
expect = fail
""")
    assert main(["run", cfg_fail, "--out", str(tmp_path / "out2")]) == 0

    cfg_bad = write(tmp_path, "audit_bad.cfg", """
experiment = schedule-audit
schedule.n = 1000
gamma1 = 0.16
gamma2 = 30.67
""")
    assert main(["run", cfg_bad, "--out", str(tmp_path / "out3")]) == 1


def test_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 3
    bad = write(tmp_path, "bad.cfg", "experiment = identity\nbogus_key = 1\n")
    assert main(["run", bad]) == 2


# (experiment, key) pairs the runner does not read; each was once accepted
# and silently ignored
IGNORED = [("schedule-audit", key) for key in (
    "target.kind", "target.mean", "target.variance", "target.separation",
    "target.weight", "target.file", "paths", "substeps", "grid")] + [
    ("identity", "paths"), ("identity", "substeps"), ("identity", "grid"),
    ("fbsde", "bias"), ("fbsde", "grid"), ("pde", "paths"), ("pde", "substeps"),
    ("sign-adjudication", "substeps"), ("tv-pipeline", "grid"),
    ("bounds-sweep", "grid"), ("bounds-sweep", "schedule.n"),
    ("bounds-sweep", "schedule.v_start"), ("bounds-sweep", "schedule.v_end"),
    ("bounds-sweep", "schedule.file"), ("bounds-sweep", "substeps")]


@pytest.mark.parametrize("text, key", [
    (f"experiment = {experiment}\n{key} = 1\n", key) for experiment, key in IGNORED
] + [("experiment = bounds-sweep\nschedule.kind = linear\n", "schedule.kind")],
    ids=[f"{e}:{k}" for e, k in IGNORED] + ["bounds-sweep:schedule.kind=linear"])
def test_parse_config_rejects_keys_the_run_ignores(text, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    ("experiment = schedule-audit\ngamma2 = 30.67\n", "gamma1"),
    ("experiment = identity\ntarget.kind = banana\n", "banana"),
    ("experiment = bounds-sweep\nschedule.kind = file\n", "schedule.kind"),
    ("experiment = fbsde\nschedule.kind = file\n", "schedule.file"),
], ids=["missing_gamma1", "unknown_target_kind", "sweep_schedule_file",
        "missing_schedule_file"])
def test_config_errors_exit_2(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# each key is read only under the target or schedule kind it belongs to, and
# the kind itself must be one the run builds
@pytest.mark.parametrize("text, message", [
    ("experiment = pde\ntarget.mean = 1.5\n",
     "target.mean is not read under target.kind = mixture"),
    ("experiment = identity\ntarget.variance = 4\n",
     "target.variance is not read under target.kind = mixture"),
    ("experiment = fbsde\ntarget.kind = gaussian\ntarget.separation = 3\n",
     "target.separation is not read under target.kind = gaussian"),
    ("experiment = pde\ntarget.kind = file\ntarget.file = t.txt\ntarget.variance = 4\n",
     "target.variance is not read under target.kind = file"),
    ("experiment = tv-pipeline\nschedule.kind = constant\nschedule.v_start = 1e-3\n",
     "schedule.v_start is not read under schedule.kind = constant"),
    ("experiment = schedule-audit\nschedule.total = 2\ngamma1 = 0.15\ngamma2 = 30.67\n",
     "schedule.total is not read under schedule.kind = linear"),
    ("experiment = sign-adjudication\nschedule.kind = file\nschedule.file = s.txt\n"
     "schedule.n = 8\n", "schedule.n is not read under schedule.kind = file"),
    ("experiment = identity\nschedule.kind = cosine\n",
     "schedule.kind must be linear or constant or file, got 'cosine'"),
    ("experiment = pde\ntarget.kind = gaussian,file\n",
     "target.kind must be mixture or gaussian or file, got ['gaussian', 'file']"),
    ("experiment = bounds-sweep\nschedule.kind = linear\n",
     "schedule.kind must be constant, got 'linear'"),
    # the target picks yast_check's oracle: no experiment reads a mode
    ("experiment = fbsde\ntarget.kind = gaussian\nschedule.kind = constant\n"
     "schedule.n = 4\npaths = 200\nsubsteps = 16\nmode = gausian\n",
     "unknown config keys: mode"),
], ids=["mean_under_mixture", "variance_under_mixture", "separation_under_gaussian",
        "variance_under_file", "v_start_under_constant", "total_under_linear",
        "n_under_file", "unknown_schedule_kind", "list_target_kind",
        "sweep_linear_schedule", "mode_gausian"])
def test_keys_and_kinds_a_run_does_not_read_exit_2(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


SWEEP_MESSAGES = {
    "n_list": "n_list needs at least two distinct entries for the rank correlation",
    "substeps_list": "substeps_list needs at least two distinct entries to check "
                     "refinement",
}


@pytest.mark.parametrize("text, message", [
    ("experiment = bounds-sweep\nn_list = 10\npaths = 500\n", SWEEP_MESSAGES["n_list"]),
    ("experiment = sign-adjudication\ntarget.kind = gaussian\nschedule.kind = constant\n"
     "schedule.n = 4\npaths = 20\nsubsteps_list = 16\n", SWEEP_MESSAGES["substeps_list"]),
    # a repeated entry adds no point: it would rank a tie (rho = nan) or
    # compare a batch with itself (doubling factor 1), and write duplicate rows
    ("experiment = bounds-sweep\nn_list = 10,10\npaths = 500\n",
     SWEEP_MESSAGES["n_list"]),
    ("experiment = bounds-sweep\nn_list = 10,50,10\npaths = 500\n",
     SWEEP_MESSAGES["n_list"]),
    ("experiment = sign-adjudication\ntarget.kind = gaussian\nschedule.kind = constant\n"
     "schedule.n = 4\npaths = 20\nsubsteps_list = 16,16\n",
     SWEEP_MESSAGES["substeps_list"]),
    ("experiment = sign-adjudication\ntarget.kind = gaussian\nschedule.kind = constant\n"
     "schedule.n = 4\npaths = 20\nsubsteps_list = 16,32,16\n",
     SWEEP_MESSAGES["substeps_list"]),
], ids=["bounds_sweep", "sign_adjudication", "bounds_sweep_repeated",
        "bounds_sweep_repeated_apart", "sign_adjudication_repeated",
        "sign_adjudication_repeated_apart"])
def test_sweeps_of_one_point_exit_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                       text, message):
    for name in ("ddpm_sample", "reverse_sde"):
        monkeypatch.setattr(experiments, name,
                            lambda *args, **kwargs: pytest.fail("simulated"))
    cfg = write(tmp_path, "one.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_package_exports_each_modules_all():
    modules = (ddpmlab.schedule, ddpmlab.target, ddpmlab.simulate, ddpmlab.fbsde,
               ddpmlab.metrics, ddpmlab.bounds)
    exported = [name for name in dir(ddpmlab) if not name.startswith("_")
                and not inspect.ismodule(getattr(ddpmlab, name))]
    assert sorted(exported) == sorted(name for m in modules for name in m.__all__)


TV_CHUNKED = """
experiment = tv-pipeline
target.kind = mixture
schedule.kind = constant
schedule.n = 20
schedule.total = 4.0
paths = 4000
substeps = 2
samples = 2000
biases = 0.0,0.5
seed = 9
"""


def _record_noise(monkeypatch):
    """Count the generators every draw builds and record the first path of
    each sampler chunk: returns (generators, chunk starts)."""
    built, starts = [], set()
    make, draw = simulate.path_generator, simulate._draw_block

    def counted(seed, path_index):
        built.append(path_index)
        return make(seed, path_index)

    def recorded(seed, start, *args, **kwargs):
        starts.add(start)
        return draw(seed, start, *args, **kwargs)

    monkeypatch.setattr(simulate, "path_generator", counted)
    monkeypatch.setattr(simulate, "_draw_block", recorded)
    return built, starts


def test_identity_run_byte_identical(tmp_path, monkeypatch):
    # at the default chunk budget every batch is one chunk and the run's
    # batches share two blocks; at 1e5 floats the exact-score batches split
    # in two chunks
    cfg = write(tmp_path, "tv.cfg", TV_CHUNKED)
    built, starts = _record_noise(monkeypatch)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out1]) == 0
    assert (len(built), starts) == (2, {0})
    monkeypatch.setattr(simulate, "_CHUNK_BUDGET", 100_000)
    assert main(["run", cfg, "--out", out2]) == 0
    assert len(starts) >= 2
    for name in ("bounds.csv", "tv_report.csv", "summary.txt"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_a_run_draws_each_path_range_once(tmp_path, monkeypatch):
    # two biases make 7 sampler batches and 2 score-loss data draws, 9
    # generators drawn afresh; in one run they share 2 blocks
    text = ("experiment = tv-pipeline\nschedule.kind = constant\nschedule.n = 10\n"
            "paths = 500\nsamples = 300\nbiases = 0,0.5\n")
    built, _ = _record_noise(monkeypatch)
    run(parse_config(text), str(tmp_path))
    assert len(built) == 2
    # outside a run nothing is shared: an exact and a frozen-score pass
    built.clear()
    mix = ddpmlab.symmetric_mixture()
    sched = ddpmlab.constant_rate(10, 4.0)
    model = ddpmlab.ScoreModel(mix, sched, mode="perturbed", bias=0.5)
    bounds.girsanov_bound(mix, sched, model, 500, 2, 7)
    assert len(built) == 2
    assert simulate._blocks.get() is None


def test_a_run_holds_at_most_the_chunk_budget(tmp_path, monkeypatch):
    budget = 10_000
    monkeypatch.setattr(simulate, "_CHUNK_BUDGET", budget)
    held, starts = [], set()
    fresh = simulate._fresh_block

    def watched(seed, start, count, steps, d, with_uniform):
        memo = simulate._blocks.get()
        held.append(count * (steps * d + with_uniform) + sum(
            z.size + (0 if u is None else u.size) for u, z in memo.values()))
        starts.add(start)
        return fresh(seed, start, count, steps, d, with_uniform)

    monkeypatch.setattr(simulate, "_fresh_block", watched)
    text = ("experiment = tv-pipeline\nschedule.kind = constant\nschedule.n = 10\n"
            "paths = 1200\nsamples = 300\nbiases = 0,0.5\n")
    run(parse_config(text), str(tmp_path))
    assert len(starts) >= 3
    assert 0 < max(held) <= budget


def test_a_longer_request_drops_the_shorter_block_before_drawing(monkeypatch):
    # sign-adjudication's batches grow, each a longer block of the same paths
    held = []
    fresh = simulate._fresh_block

    def watched(*args):
        held.append(list(simulate._blocks.get()))
        return fresh(*args)

    monkeypatch.setattr(simulate, "_fresh_block", watched)
    with simulate._shared_noise():
        for steps in (3, 6, 2, 9):
            simulate._draw_block(5, 0, 4, steps, 1)
    assert held == [[], [], []]


def test_sign_adjudication_draws_its_longest_block_once(tmp_path, monkeypatch):
    # the longest batch runs first, so every shorter one reads a prefix of
    # its block; the report lists the counts in ascending order
    text = ("experiment = sign-adjudication\ntarget.kind = gaussian\n"
            "target.mean = 1.5\nschedule.kind = constant\nschedule.n = 8\n"
            "schedule.total = 2.0\npaths = 64\nsubsteps_list = 16,64,32\n"
            "grid = 401\n")
    built, _ = _record_noise(monkeypatch)
    run(parse_config(text), str(tmp_path))
    assert len(built) == 1
    with open(tmp_path / "bsde_residuals.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["substeps"]) for r in rows] == [16, 16, 32, 32, 64, 64]
    assert [int(r["sign"]) for r in rows] == [-1, 1] * 3


SWEEPS = {
    "sign-adjudication": ("substeps_list", ["16", "32", "64"],
                          "experiment = sign-adjudication\ntarget.kind = gaussian\n"
                          "target.mean = 1.5\nschedule.kind = constant\nschedule.n = 8\n"
                          "schedule.total = 2.0\npaths = 64\ngrid = 401\n"),
    "bounds-sweep": ("n_list", ["5", "10", "20"],
                     "experiment = bounds-sweep\npaths = 2000\nseed = 13\n"),
    "tv-pipeline": ("biases", ["0", "0.5"],
                    "experiment = tv-pipeline\nschedule.kind = constant\nschedule.n = 10\n"
                    "paths = 2000\nsamples = 1000\nseed = 9\n"),
}


@pytest.mark.parametrize("experiment", sorted(SWEEPS))
def test_a_sweep_runs_in_ascending_order_whatever_order_the_config_gives(tmp_path,
                                                                          experiment):
    # each verdict compares neighbours in ascending order, so any order of
    # the same points gives the same outputs
    key, ascending, text = SWEEPS[experiment]
    orders = [ascending, ascending[::-1], ascending[1:] + ascending[:1]]
    outputs = []
    for i, order in enumerate(orders):
        out = tmp_path / str(i)
        status = run(parse_config(text + f"{key} = {','.join(order)}\n"), str(out))
        # every output but the echo of the config
        outputs.append((status, {p.name: p.read_bytes() for p in out.iterdir()
                                 if p.name != "config_resolved.txt"}))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, "ident2.cfg", """
experiment = identity
schedule.n = 10
schedule.kind = constant
schedule.total = 2.0
samples = 2000
bias = 1.0
rel_tol = 0.2
""")
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", cfg, "--out", out1, "--seed", "1"]) == 0
    assert main(["run", cfg, "--out", out2, "--seed", "2"]) == 0
    a = open(os.path.join(out1, "identity_report.csv")).read()
    b = open(os.path.join(out2, "identity_report.csv")).read()
    assert a != b


def test_sign_adjudication_run(tmp_path):
    cfg = write(tmp_path, "sign.cfg", """
experiment = sign-adjudication
target.kind = gaussian
target.mean = 1.5
schedule.kind = constant
schedule.n = 8
schedule.total = 2.0
paths = 64
substeps_list = 16,32
grid = 401
seed = 3
""")
    out = str(tmp_path / "sign")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "bsde_vanishing_sign: -1" in summary
    assert "pde_vanishing_sign: -1" in summary
    assert "PASS signs_agree" in summary


SIGN_SMALL = ("experiment = sign-adjudication\ntarget.kind = gaussian\ntarget.mean = 1.5\n"
              "schedule.kind = constant\nschedule.n = 8\nschedule.total = 2.0\n"
              "paths = 64\ngrid = 401\nseed = 3\n")


def test_sign_adjudication_reads_t_index_on_its_coarsest_grid(tmp_path):
    # index 8 of the 16-substep grid is t = 0.0625, which is index 16 of the
    # 32-substep grid and 32 of the 64-substep one: every count starts there
    cfg = write(tmp_path, "sign.cfg", SIGN_SMALL + "substeps_list = 64,16,32\nt_index = 8\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    with open(out / "bsde_residuals.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["t_index"], r["t"], r["substeps"]) for r in rows[::2]] == [
        ("8", "0.0625", "16"), ("16", "0.0625", "32"), ("32", "0.0625", "64")]


def test_sign_adjudication_t_index_off_a_finer_grid_exits_2(tmp_path, capsys, monkeypatch):
    # index 1 of the 16-substep grid is 1.5 of the 24-substep one, no grid point
    monkeypatch.setattr(simulate, "path_generator",
                        lambda *args: pytest.fail("simulated"))
    cfg = write(tmp_path, "sign.cfg", SIGN_SMALL + "substeps_list = 24,16\nt_index = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: t_index 1 on the 16-substep grid is 1.5 "
                                       "on the 24-substep grid, not a point of it\n")


def test_plotdata(tmp_path):
    residuals = write(tmp_path, "res.csv",
                      "t_index,t,sign,rms,max,paths,substeps\n"
                      "0,0,-1,0.5,1.0,10,16\n0,0,-1,0.25,0.5,10,32\n"
                      "0,0,1,2.0,3.0,10,16\n")
    out = str(tmp_path / "res.dat")
    assert main(["plotdata", residuals, "--out", out]) == 0
    text = open(out).read()
    assert "16 0.5" in text and "32 0.25" in text

    empty = write(tmp_path, "empty.csv", "")
    out2 = str(tmp_path / "empty.dat")
    assert main(["plotdata", empty, "--out", out2]) == 0
    assert open(out2).read() == ""

    bad = write(tmp_path, "bad.csv", "some,other,header\n1,2,3\n")
    assert main(["plotdata", bad, "--out", str(tmp_path / "bad.dat")]) == 2


def test_pde_experiment_run(tmp_path):
    cfg = write(tmp_path, "pde.cfg", """
experiment = pde
target.kind = gaussian
target.mean = 1.5
schedule.kind = constant
schedule.n = 8
schedule.total = 2.0
t = 0.3
grid = 801
""")
    out = str(tmp_path / "pde")
    assert main(["run", cfg, "--out", out]) == 0
    assert "PASS pde_adjudicated" in open(os.path.join(out, "summary.txt")).read()


def test_fbsde_experiment_run(tmp_path):
    cfg = write(tmp_path, "fbsde.cfg", """
experiment = fbsde
target.kind = gaussian
target.mean = 1.5
schedule.kind = constant
schedule.n = 8
schedule.total = 2.0
paths = 2000
substeps = 64
seed = 5
""")
    out = str(tmp_path / "fbsde")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS bsde_sign_separation" in summary
    assert "PASS yast_rms" in summary
    assert os.path.exists(os.path.join(out, "bsde_residuals.csv"))


def test_tv_pipeline_experiment_run(tmp_path):
    cfg = write(tmp_path, "tv.cfg", """
experiment = tv-pipeline
target.kind = mixture
schedule.kind = constant
schedule.n = 20
schedule.total = 4.0
paths = 4000
substeps = 2
samples = 2000
biases = 0.0,0.5
seed = 9
""")
    out = str(tmp_path / "tv")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS girsanov_holds_bias0.5" in summary
    assert "PASS schrodinger_holds" in summary
    assert os.path.exists(os.path.join(out, "bounds.csv"))


def test_bounds_sweep_experiment_run(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", """
experiment = bounds-sweep
target.kind = mixture
schedule.kind = constant
schedule.total = 4.0
n_list = 5,10,20
paths = 4000
seed = 13
""")
    out = str(tmp_path / "sweep")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS rank_correlation" in summary
    assert os.path.exists(os.path.join(out, "sweep.csv"))


def test_plotdata_on_real_outputs(tmp_path):
    cfg = write(tmp_path, "sign2.cfg", """
experiment = sign-adjudication
target.kind = gaussian
target.mean = 1.5
schedule.kind = constant
schedule.n = 8
schedule.total = 2.0
paths = 64
substeps_list = 8,16
grid = 201
seed = 3
""")
    out = str(tmp_path / "sign2")
    assert main(["run", cfg, "--out", out]) == 0
    dat = str(tmp_path / "curve.dat")
    assert main(["plotdata", os.path.join(out, "bsde_residuals.csv"),
                 "--out", dat]) == 0
    body = open(dat).read()
    assert "# sign -1" in body and "# sign 1" in body


@pytest.mark.parametrize("text, name", [
    # a bias of 1e7 moves every path past 1e6 in the first DDPM step
    ("experiment = tv-pipeline\nschedule.kind = constant\nschedule.n = 20\n"
     "schedule.total = 4\npaths = 50\nsamples = 50\nbiases = 1e7\n",
     r"tv-pipeline ddpm_sample at bias 1e\+07"),
    # sigma_n ~ 1e15 at alpha_bar_n ~ 2e-300 does the same with the exact score
    ("experiment = bounds-sweep\nschedule.total = 690\nn_list = 10,20\npaths = 50\n",
     "bounds-sweep ddpm_sample at n = 10"),
])
def test_experiments_refuse_an_all_diverged_batch(tmp_path, text, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow inside the diverging paths
        with pytest.raises(ValueError, match=rf"^{name}: all 50 paths were excluded "
                                             r"for leaving the 1e\+06 norm limit$"):
            run(parse_config(text), str(tmp_path))


FOOTPRINT_CONFIGS = {
    "schedule-audit": "schedule.n = 1000\ngamma1 = 0.15\ngamma2 = 30.67\n",
    "identity": "schedule.kind = constant\nschedule.n = 10\nsamples = 2000\n"
                "rel_tol = 0.2\n",
    "fbsde": "target.kind = gaussian\nschedule.kind = constant\nschedule.n = 4\n"
             "paths = 200\nsubsteps = 16\n",
    "pde": "target.kind = gaussian\nschedule.kind = constant\nschedule.n = 8\n"
           "t = 0.3\ngrid = 51\n",
    "sign-adjudication": "target.kind = gaussian\nschedule.kind = constant\n"
                         "schedule.n = 4\npaths = 20\nsubsteps_list = 2,4\ngrid = 51\n",
    "tv-pipeline": "schedule.kind = constant\nschedule.n = 10\npaths = 200\n"
                   "samples = 200\nbiases = 0.5\n",
    "bounds-sweep": "n_list = 5,10\npaths = 200\n",
}


def test_runs_never_import_scipy_stats(tmp_path):
    # scipy is a test dependency only: every experiment runs in a fresh
    # interpreter where importing any scipy module raises, and none is loaded
    runs = []
    for experiment, text in FOOTPRINT_CONFIGS.items():
        cfg = write(tmp_path, f"{experiment}.cfg", f"experiment = {experiment}\n{text}")
        runs.append(["run", cfg, "--out", str(tmp_path / experiment)])
    script = ("import sys\nsys.modules['scipy'] = None\nfrom ddpmlab.cli import main\n"
              f"codes = [main(argv) for argv in {runs!r}]\n"
              "print(codes, sorted(m for m, module in sys.modules.items()\n"
              "                    if m.partition('.')[0] == 'scipy' and module))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddpmlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0] []\n"


def _samples(elements):
    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.lists(elements, min_size=n, max_size=n)] * 2))


@settings(deadline=None, max_examples=300)
@given(st.one_of(_samples(st.integers(0, 3).map(float)), _samples(st.floats())))
@example(([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))  # a constant input
@example(([0.5, math.nan, 2.0], [0.0, 1.0, 2.0]))
@example(([math.inf, -math.inf, 0.0, math.inf], [3.0, 1.0, 2.0, 0.0]))
@example(([2.0, 1.0], [1.0, 2.0]))
def test_rank_correlation_matches_spearmanr_bit_for_bit(ab):
    # ties (values from a small integer set) and any double, infinities and
    # NaNs included; NaN where spearmanr gives NaN
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # spearmanr warns on a constant input
        expected = float(spearmanr(*ab).statistic)
    assert repr(experiments._rank_correlation(*ab)) == repr(expected)


def _count_reverse_sde(monkeypatch):
    """Wrap every module's reference to reverse_sde; returns the call list."""
    calls = []
    original = simulate.reverse_sde

    def counted(*args, **kwargs):
        calls.append(args[:1])
        return original(*args, **kwargs)

    for module in (simulate, bounds, experiments):
        monkeypatch.setattr(module, "reverse_sde", counted)
    return calls


def test_bounds_sweep_totals_read_the_closed_form_rhs(tmp_path, monkeypatch):
    # the totals check reads only the right side of the bridge bound, which
    # depends on the target and the schedule: no reverse batch is simulated
    calls = _count_reverse_sde(monkeypatch)
    text = ("experiment = bounds-sweep\nn_list = 5,10,20\npaths = 4000\nseed = 13\n"
            "totals = 4,1,2\n")
    assert run(parse_config(text), str(tmp_path)) == 0
    assert calls == []
    monkeypatch.undo()
    lines = open(tmp_path / "summary.txt").read().splitlines()
    reported = [line for line in lines if line.startswith("REPORT schrodinger_rhs_total")]
    expected = []
    for total in (1.0, 2.0, 4.0):
        schedule = ddpmlab.constant_rate(20, total)
        batch = ddpmlab.reverse_sde(ddpmlab.symmetric_mixture(), schedule, 1, 200,
                                    seed=13, record="terminal")
        rhs = ddpmlab.schrodinger_bound(batch).rhs
        expected.append(f"REPORT schrodinger_rhs_total{total:g}: {rhs:.6g}")
    assert reported == expected
    assert "PASS schrodinger_rhs_monotone: rhs nonincreasing in -log alpha_bar_n" in lines


def test_bounds_sweep_totals_beyond_what_a_reverse_batch_survives(tmp_path):
    # an exact reverse batch on 20 steps at total 690 leaves the 1e6 norm
    # limit on every path; the closed-form right side needs no batch
    text = ("experiment = bounds-sweep\nn_list = 5,10,20\npaths = 500\n"
            "totals = 0.01,60,690\n")
    assert run(parse_config(text), str(tmp_path)) == 0
    lines = open(tmp_path / "summary.txt").read().splitlines()
    values = [float(line.rsplit(" ", 1)[1]) for line in lines
              if line.startswith("REPORT schrodinger_rhs_total")]
    assert len(values) == 3 and all(math.isfinite(v) and v > 0.0 for v in values)
    assert "PASS schrodinger_rhs_monotone: rhs nonincreasing in -log alpha_bar_n" in lines


@pytest.mark.parametrize("text, message", [
    ("experiment = schedule-audit\nschedule.n = 1000\ngamma1 = 0.15\ngamma2 = 30.67\n"
     "expect = Pass\n", "expect must be pass or fail, got 'Pass'"),
    ("experiment = schedule-audit\nschedule.n = 1000\ngamma1 = 0.15\ngamma2 = 30.67\n"
     "expect = true\n", "expect must be pass or fail, got True"),
    # a mixture takes the regression mode, which needs 1e4 paths
    ("experiment = fbsde\nschedule.kind = constant\nschedule.n = 4\npaths = 2000\n",
     "regression mode needs at least 10000 paths"),
    ("experiment = fbsde\ntarget.kind = gaussian\ntarget.variance = 4\npaths = 9999\n",
     "regression mode needs at least 10000 paths"),
], ids=["expect_Pass", "expect_true", "regression_paths", "regression_paths_wide_gaussian"])
def test_unknown_expect_or_mode_exits_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                          text, message):
    calls = _count_reverse_sde(monkeypatch)
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("text, message", [
    ("experiment = pde\n", "t must be interior to a beta interval"),
    ("experiment = sign-adjudication\npaths = 50\n",
     "t must be interior to a beta interval"),
    ("experiment = sign-adjudication\nschedule.n = 8\nschedule.kind = constant\n"
     "paths = 50\nt = 0.25\n", "t must be interior to a beta interval"),
    ("experiment = bounds-sweep\nschedule.total = 0\n",
     "total -log alpha_bar_n must be positive"),
    ("experiment = bounds-sweep\nn_list = 10,20\npaths = 50\ntotals = 2,0\n",
     "total -log alpha_bar_n must be positive"),
    ("experiment = schedule-audit\nschedule.n = 10\ngamma1 = 0.15\ngamma2 = 30.67\n",
     "band check needs n >= 16 so that log log log n > 0"),
    ("experiment = identity\nschedule.kind = constant\nschedule.total = -1\n",
     "total -log alpha_bar_n must be positive"),
    ("experiment = pde\ntarget.kind = gaussian\ntarget.variance = -1\n"
     "schedule.n = 8\n", "precision must be positive definite"),
], ids=["pde_t_on_knot", "sign_t_on_knot", "sign_t_on_constant_knot",
        "sweep_total_0", "sweep_totals_0", "audit_n_10", "identity_total_negative",
        "variance_negative"])
def test_values_the_library_rejects_exit_2_before_simulating(tmp_path, capsys,
                                                             monkeypatch, text, message):
    monkeypatch.setattr(simulate, "path_generator",
                        lambda *args: pytest.fail("simulated"))
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_value_error_raised_by_a_simulation_is_not_a_config_error(tmp_path):
    cfg = write(tmp_path, "diverging.cfg",
                "experiment = tv-pipeline\nschedule.kind = constant\nschedule.n = 20\n"
                "paths = 50\nsamples = 50\nbiases = 1e7\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow inside the diverging paths
        with pytest.raises(ValueError, match="all 50 paths were excluded") as err:
            main(["run", cfg, "--out", str(tmp_path / "out")])
    assert not isinstance(err.value, ConfigError)


def test_fbsde_run_in_regression_mode(tmp_path):
    cfg = write(tmp_path, "fbsde_mix.cfg", """
experiment = fbsde
target.kind = mixture
schedule.kind = constant
schedule.n = 4
schedule.total = 4.0
paths = 10000
substeps = 32
seed = 5
""")
    out = str(tmp_path / "fbsde")
    assert main(["run", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert re.search(r"^PASS yast_rel_rms: rel=\S+$", summary, re.M)
    assert "yast_rms:" not in summary
    rows = open(os.path.join(out, "yast_report.csv")).read().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["yast_rms", "yast_rel_rms",
                                                    "yast_tower_gap"]
    assert all(r.endswith(",10000") for r in rows[1:])


def test_plotdata_metric_and_bound_schemas_on_real_outputs(tmp_path):
    cfg = write(tmp_path, "tv.cfg", """
experiment = tv-pipeline
schedule.kind = constant
schedule.n = 10
paths = 2000
samples = 1000
biases = 0.0,0.5
seed = 9
""")
    out = tmp_path / "tv"
    assert main(["run", cfg, "--out", str(out)]) == 0

    def csv_rows(name):
        return [r.split(",") for r in open(out / name).read().splitlines()[1:]]

    def parse(line):
        key, *numbers = line.split(" ")
        return (key, *map(float, numbers))

    def dat_lines(name):
        dat = str(tmp_path / (name + ".dat"))
        assert main(["plotdata", str(out / name), "--out", dat]) == 0
        return open(dat).read().splitlines()

    metric = csv_rows("tv_report.csv")
    assert [r[0] for r in metric] == ["ddpm_tv_bias0", "score_loss_bias0",
                                      "ddpm_tv_bias0.5", "score_loss_bias0.5"]
    # every row as (i_or_t, value, std_err), the numbers exact at 17 digits
    assert [parse(line) for line in dat_lines("tv_report.csv")] == [
        (r[1], float(r[2]), float(r[3])) for r in metric]

    totals = [r for r in csv_rows("bounds.csv") if r[1] == "total"]
    assert [r[0] for r in totals] == ["girsanov_bias0", "girsanov_bias0.5", "schrodinger"]
    lines = dat_lines("bounds.csv")
    k = len(totals)
    assert lines[0] == "# rhs" and lines[k + 1:k + 3] == ["", "# empirical lhs with std err"]
    assert [parse(line) for line in lines[1:k + 1]] == [
        (str(i), float(r[2])) for i, r in enumerate(totals)]
    assert [parse(line) for line in lines[k + 3:]] == [
        (str(i), float(r[3]), float(r[4])) for i, r in enumerate(totals)]


def test_io_failures_exit_3(tmp_path, capsys):
    blocker = write(tmp_path, "plain_file", "not a directory\n")
    cfg = write(tmp_path, "audit.cfg", "experiment = schedule-audit\nschedule.n = 1000\n"
                                       "gamma1 = 0.15\ngamma2 = 30.67\n")
    assert main(["run", cfg, "--out", os.path.join(blocker, "out")]) == 3
    assert capsys.readouterr().err.startswith("error: I/O failure: ")
    report = write(tmp_path, "res.csv", "t_index,t,sign,rms,max,paths,substeps\n"
                                        "0,0,-1,0.5,1.0,10,16\n")
    assert main(["plotdata", report, "--out", os.path.join(blocker, "res.dat")]) == 3
    assert capsys.readouterr().err.startswith("error: I/O failure: ")


# t = 0.255 lies inside an interval of the default 100-step schedule
PDE = "experiment = pde\nt = 0.255\n"


def test_a_saved_target_runs_like_the_target_it_saves(tmp_path):
    save_target(symmetric_mixture(), tmp_path / "mixture.txt")
    outputs = []
    for name, text in (("built", PDE), ("file", PDE + "target.kind = file\n"
                                        f"target.file = {tmp_path / 'mixture.txt'}\n")):
        out = tmp_path / name
        assert main(["run", write(tmp_path, f"{name}.cfg", text), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("summary.txt", "pde_residuals.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("family", ["target", "schedule"])
def test_a_numeric_file_name_names_a_file(tmp_path, monkeypatch, family):
    # read as a number, the name would be taken for a file descriptor
    monkeypatch.chdir(tmp_path)
    if family == "target":
        save_target(symmetric_mixture(), "12345")
    else:
        save_schedule(from_linear_variance(100, 1e-4, 0.02), "12345")
    cfg = write(tmp_path, "numeric.cfg",
                PDE + f"{family}.kind = file\n{family}.file = 12345\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert f"{family}.file = 12345\n" in (tmp_path / "out" / "config_resolved.txt").read_text()


def test_a_target_file_without_its_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim=1\nK=1\n1,0\n1\n")
    cfg = write(tmp_path, "bad.cfg", PDE + f"target.kind = file\ntarget.file = {bad}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"error: target file {bad} must start with 'd=' and 'K=' lines\n"


def test_a_schedule_file_with_more_alphas_than_its_header_exits_2(tmp_path, capsys):
    # a 3-step schedule would run: t = 0.255 is no knot of it
    bad = tmp_path / "sched.txt"
    bad.write_text("n=3\n0.9\n0.8\n0.7\n0.6\n0.5\n")
    cfg = write(tmp_path, "bad.cfg", PDE + f"schedule.kind = file\nschedule.file = {bad}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"error: schedule file {bad}: header n=3 counts 3 alpha lines, found 5\n"


@pytest.mark.parametrize("text, message", [
    ("experiment = fbsde\npaths = 2.5\n", "paths must be int, got 2.5"),
    ("experiment = sign-adjudication\nsubsteps_list = 2,4.5\n",
     "substeps_list must be int, got 4.5"),
    ("experiment = identity\nbias = true\n", "bias must be float, got True"),
    ("experiment = tv-pipeline\npaths = abc\n", "paths must be int, got 'abc'"),
    ("experiment = fbsde\nseed = x\n", "seed must be int, got 'x'"),
    ("experiment = identity\nsamples = 1,2\n", "samples must be int, got [1, 2]"),
    ("experiment = tv-pipeline\nschedule.n = 10,20\n",
     "schedule.n must be int, got [10, 20]"),
    ("experiment = fbsde\nt_index = 1,2\n", "t_index must be int, got [1, 2]"),
    # a t_index off the batch grid: 100 steps of 2 substeps, or 8 steps of the
    # smallest count in the list; its last point leaves no interval to check
    ("experiment = fbsde\nt_index = -3\n", "t_index must be in [0, 200), got -3"),
    ("experiment = fbsde\nt_index = 99999\n", "t_index must be in [0, 200), got 99999"),
    ("experiment = fbsde\nt_index = 200\n", "t_index must be in [0, 200), got 200"),
    ("experiment = sign-adjudication\nt_index = -1\n",
     "t_index must be in [0, 12800), got -1"),
    ("experiment = sign-adjudication\nschedule.kind = constant\nschedule.n = 8\n"
     "substeps_list = 64,16\nt_index = 129\n", "t_index must be in [0, 128), got 129"),
    ("experiment = sign-adjudication\nschedule.kind = constant\nschedule.n = 8\n"
     "substeps_list = 64,16\nt_index = 128\n", "t_index must be in [0, 128), got 128"),
    # out of range: a count below 1, a seed that is no 64-bit Philox key word
    ("experiment = tv-pipeline\npaths = 0\n", "paths must be >= 1, got 0"),
    ("experiment = tv-pipeline\nsubsteps = 0\n", "substeps must be >= 1, got 0"),
    ("experiment = tv-pipeline\nsamples = 0\n", "samples must be >= 1, got 0"),
    ("experiment = tv-pipeline\nseed = -3\n",
     "seed must be in [0, 18446744073709551616), got -3"),
    ("experiment = fbsde\nseed = 18446744073709551616\n",
     "seed must be in [0, 18446744073709551616), got 18446744073709551616"),
    ("experiment = identity\nsamples = 5\n", "samples must be >= 10, got 5"),
    ("experiment = sign-adjudication\nsubsteps_list = 0,4\n",
     "substeps_list must be >= 1, got 0"),
    ("experiment = sign-adjudication\nseed = -1\n",
     "seed must be in [0, 18446744073709551616), got -1"),
    # experiments that never read the seed check it all the same
    ("experiment = pde\nt = 0.255\ngrid = 51\n--seed -1",
     "seed must be in [0, 18446744073709551616), got -1"),
    ("experiment = pde\nt = 0.255\ngrid = 51\nseed = 18446744073709551616\n",
     "seed must be in [0, 18446744073709551616), got 18446744073709551616"),
    ("experiment = schedule-audit\n--seed -1",
     "seed must be in [0, 18446744073709551616), got -1"),
    ("experiment = schedule-audit\nseed = 18446744073709551616\n",
     "seed must be in [0, 18446744073709551616), got 18446744073709551616"),
    # nan and inf parse as floats, but no setting takes them
    ("experiment = tv-pipeline\ntarget.separation = nan\n",
     "target.separation must be finite, got nan"),
    ("experiment = bounds-sweep\nschedule.total = inf\n",
     "schedule.total must be finite, got inf"),
    ("experiment = identity\nrel_tol = nan\n", "rel_tol must be finite, got nan"),
    ("experiment = tv-pipeline\nbiases = 0,nan\n", "biases must be finite, got nan"),
    ("experiment = pde\nt = nan\n", "t must be finite, got nan"),
    # an int literal beyond the largest double cannot become a float setting
    ("experiment = identity\nbias = 1" + "0" * 400 + "\n",
     "bias must be finite, got an int beyond 1.8e308"),
    ("experiment = tv-pipeline\nbiases = 0,-2" + "0" * 400 + "\n",
     "biases must be finite, got an int beyond 1.8e308"),
], ids=["paths_2.5", "substeps_list_4.5", "bias_true", "paths_abc", "seed_x",
        "samples_list", "schedule_n_list", "t_index_list", "fbsde_t_index_-3",
        "fbsde_t_index_99999", "fbsde_t_index_200", "sign_t_index_-1", "sign_t_index_129",
        "sign_t_index_128", "paths_0", "substeps_0",
        "samples_0", "seed_-3", "seed_2**64", "identity_samples_5",
        "substeps_list_0", "sign_seed_-1", "pde_flag_seed_-1", "pde_seed_2**64",
        "audit_flag_seed_-1", "audit_seed_2**64", "separation_nan", "total_inf",
        "rel_tol_nan", "biases_nan", "pde_t_nan", "bias_10**400", "biases_-2e400"])
def test_malformed_numeric_settings_exit_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                            text, message):
    # a last line starting with -- holds command-line flags, not config text
    monkeypatch.setattr(simulate, "path_generator",
                        lambda *args: pytest.fail("simulated"))
    text, _, flags = text.partition("--")
    cfg = write(tmp_path, "bad.cfg", text)
    argv = ["run", cfg, "--out", str(tmp_path / "out")]
    assert main(argv + (f"--{flags}".split() if flags else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_float_settings_are_accepted(tmp_path):
    outputs = []
    for name, grid in (("int", "401"), ("float", "4.01e2")):
        out = tmp_path / name
        cfg = write(tmp_path, f"{name}.cfg", PDE + f"grid = {grid}\n")
        assert main(["run", cfg, "--out", str(out)]) == 0
        outputs.append((out / "pde_residuals.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("experiment", ["pde", "sign-adjudication"])
def test_pde_experiments_reject_a_2d_target_before_simulating(tmp_path, capsys,
                                                              monkeypatch, experiment):
    monkeypatch.setattr(simulate, "path_generator",
                        lambda *args: pytest.fail("simulated"))
    cfg = write(tmp_path, "d2.cfg", f"experiment = {experiment}\nt = 0.255\n"
                "target.kind = gaussian\ntarget.mean = 0.5,1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"error: {experiment}: implemented for d == 1, got d = 2\n"
