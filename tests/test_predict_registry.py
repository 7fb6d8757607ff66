"""Registry, CLI filtering and observability tests for repro.predict."""

import json

import pytest

from repro import obs
from repro.experiments import cli
from repro.experiments.sweeps import _sweep_models
from repro.predict import (
    ModelVariant,
    available_models,
    get_model,
    make_source,
    predict_point,
    register_model,
    resolve_models,
    unregister_model,
)
from repro.qsmlib import QSMMachine, RunConfig


@pytest.fixture()
def env16():
    qm = QSMMachine(RunConfig())
    return qm.cost_model(), qm.machine.cpus[0]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_unknown_model_lists_available():
    with pytest.raises(KeyError, match="qsm-best"):
        get_model("no-such-model")


def test_builtin_models_registered():
    names = available_models()
    for expected in (
        "qsm-best",
        "qsm-whp",
        "qsm-observed",
        "bsp-best",
        "bsp-whp",
        "bsp-observed",
        "logp",
    ):
        assert expected in names


def test_duplicate_registration_rejected():
    dup = ModelVariant(
        name="qsm-best", family="qsm", scenario="best", evaluator=lambda pr, c: 0.0
    )
    with pytest.raises(ValueError, match="already registered"):
        register_model(dup)
    # replace=True is the explicit override; restore the builtin after.
    original = get_model("qsm-best")
    try:
        assert register_model(dup, replace=True) is dup
        assert get_model("qsm-best") is dup
    finally:
        register_model(original, replace=True)


def test_register_and_unregister_custom_model():
    custom = ModelVariant(
        name="test-null", family="test", scenario="best", evaluator=lambda pr, c: 0.0
    )
    register_model(custom)
    try:
        assert "test-null" in available_models()
        assert resolve_models("test-null") == ["test-null"]
    finally:
        unregister_model("test-null")
    assert "test-null" not in available_models()


def test_register_rejects_unknown_scenario():
    bad = ModelVariant(
        name="test-bad", family="test", scenario="typical", evaluator=lambda pr, c: 0.0
    )
    with pytest.raises(ValueError, match="scenario"):
        register_model(bad)


def test_resolve_models_comma_string_order_and_dedup():
    assert resolve_models("bsp-best, qsm-best,bsp-best") == ["bsp-best", "qsm-best"]


def test_resolve_models_sequence_and_default():
    assert resolve_models(["logp"]) == ["logp"]
    assert resolve_models(None, default=("qsm-best",)) == ["qsm-best"]
    assert resolve_models(None) == list(available_models())


def test_resolve_models_empty_rejected():
    with pytest.raises(ValueError, match="no prediction models"):
        resolve_models(" , ")


def test_resolve_models_unknown_rejected():
    with pytest.raises(KeyError, match="available"):
        resolve_models("qsm-best,bogus")


# ----------------------------------------------------------------------
# Engine guards
# ----------------------------------------------------------------------
def test_observed_model_requires_runs(env16):
    costs, cpu = env16
    source = make_source("prefix", p=16, cpu=cpu)
    with pytest.raises(ValueError, match="observed"):
        predict_point(source, ["qsm-observed"], costs, n=4096)


def test_sweeps_reject_observed_models():
    with pytest.raises(ValueError, match="observed"):
        _sweep_models("qsm-best,qsm-observed")


def test_sweep_models_always_include_band():
    names = _sweep_models("logp")
    assert names[0] == "logp"
    assert "qsm-best" in names and "qsm-whp" in names


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_models_subcommand(capsys):
    assert cli.main(["models"]) == 0
    out = capsys.readouterr().out
    assert "qsm-best" in out and "logp" in out


def test_cli_bad_models_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "fig1", "--fast", "--models", "bogus"])
    assert exc.value.code == 2
    assert "unknown prediction model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, unmeasured",
    [
        (["run", "fig8", "--fast", "--models", "bsp-observed"], "fig8"),
        (["run", "fig4", "--fast", "--models", "qsm-observed"], "fig4"),
        (["run", "fig5", "--fast", "--models", "qsm-best,qsm-observed"], "fig5"),
        (["all", "--fast", "--models", "qsm-observed"], "fig4, fig5, fig6, fig8"),
    ],
)
def test_cli_observed_models_need_measured_runs(argv, unmeasured, capsys, monkeypatch):
    """A usage error before any experiment runs, naming the experiments
    that record no runs and the ones that can price observed models."""

    def no_work(*args, **kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{unmeasured} record none" in err
    assert "only with fig1, fig2, fig3" in err


def test_cli_observed_models_run_where_runs_are_measured(tmp_path):
    out_path = tmp_path / "fig1.json"
    argv = ["run", "fig1", "--fast", "--ns", "4096", "--models", "qsm-observed"]
    assert cli.main(argv + ["--json", str(out_path)]) == 0
    records = json.loads(out_path.read_text())["data"]["predictions"]
    assert records and {rec["model"] for rec in records} == {"qsm-observed"}


def test_cli_models_filter_reaches_json(tmp_path, capsys):
    out_path = tmp_path / "fig1.json"
    rc = cli.main(
        ["run", "fig1", "--fast", "--ns", "4096", "--models", "qsm-best", "--json", str(out_path)]
    )
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["data"]["models"] == ["qsm-best"]
    records = payload["data"]["predictions"]
    assert records and all(rec["model"] == "qsm-best" for rec in records)
    assert "qsm-best" in payload["data"]
    assert "bsp-best" not in payload["data"]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_predict_obs_counters(env16):
    costs, cpu = env16
    source = make_source("prefix", p=16, cpu=cpu)
    obs.enable(spans=False)
    try:
        predict_point(source, ["qsm-best", "bsp-best"], costs, n=4096)
        snapshot = obs.metrics().snapshot()
        assert snapshot["predict.evaluations"]["value"] == 2
        assert snapshot["predict.model.qsm-best"]["value"] == 1
        assert snapshot["predict.wall_us"]["count"] == 2
    finally:
        obs.disable()
