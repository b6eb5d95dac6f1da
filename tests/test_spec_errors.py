"""Malformed fault, autoscale and SLO specs fail typed, never with a traceback.

The loaders raise ``ValueError`` (fault schedules, autoscale specs) or
``SloError`` (SLO specs) naming the bad field, and the CLI turns each into a
one-line ``bad … spec`` message with exit status 2.
"""

import json

import pytest

from repro.cli import main
from repro.fs.elastic import AutoscaleSpec
from repro.fs.faults import FaultSchedule
from repro.obs.slo import SloError, SloSpec

#: (spec, the field the error must name)
FAULT_SPECS = [
    ([1, 2], "'faults'"),
    ({"retry": {"bogus": 1}}, "'retry'"),
    ({"retry": []}, "'retry'"),
    ({"faults": [5]}, "'faults'"),
    ({"version": "2"}, "'version'"),
]
AUTOSCALE_SPECS = [
    ([1], "'events'"),
    ({"min_mds": "x"}, "'min_mds'"),
    ({"events": [5]}, "'events'"),
    ({"policy": "schedule", "events": [{}]}, "'epoch'"),
]
SLO_SPECS = [
    ({"objectives": [5]}, "objective"),
    ({"objectives": [{"name": "a", "metric": "p99_ms", "target": "x"}]}, "'target'"),
]


def _ids(cases):
    return [json.dumps(spec) for spec, _ in cases]


@pytest.mark.parametrize("spec,field", FAULT_SPECS, ids=_ids(FAULT_SPECS))
def test_fault_schedule_loader_raises_value_error(spec, field):
    with pytest.raises(ValueError, match=field):
        FaultSchedule.from_dict(spec)


@pytest.mark.parametrize("spec,field", AUTOSCALE_SPECS, ids=_ids(AUTOSCALE_SPECS))
def test_autoscale_loader_raises_value_error(spec, field):
    with pytest.raises(ValueError, match=field):
        AutoscaleSpec.from_dict(spec)


@pytest.mark.parametrize("spec,field", SLO_SPECS, ids=_ids(SLO_SPECS))
def test_slo_loader_raises_slo_error(spec, field):
    with pytest.raises(SloError, match=field):
        SloSpec.from_dict(spec)


@pytest.fixture(scope="module")
def timeline(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("timeline") / "tl.jsonl")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "400", "--mds", "2",
        "--clients", "4", "--timeline", path,
    ]) == 0
    return path


def _cli_cases():
    for spec, _ in FAULT_SPECS:
        yield "simulate", "--faults", spec, "bad fault schedule"
        yield "obs slo", "--faults", spec, "bad fault schedule"
    for spec, _ in AUTOSCALE_SPECS:
        yield "simulate", "--autoscale", spec, "bad autoscale spec"
    for spec, _ in SLO_SPECS:
        yield "simulate", "--slo", spec, "bad SLO spec"
        yield "obs slo", None, spec, "bad SLO spec"


CLI_CASES = list(_cli_cases())


@pytest.mark.parametrize(
    "command,flag,spec,message", CLI_CASES,
    ids=[f"{c}-{f or 'spec'}-{json.dumps(s)}" for c, f, s, _ in CLI_CASES],
)
def test_cli_exits_2_with_one_line(command, flag, spec, message, tmp_path, capsys,
                                   timeline):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    if command == "simulate":
        argv = ["simulate", "Lunule", "rw", "--ops", "200", "--mds", "2", flag, str(path)]
    elif flag is None:
        argv = ["obs", "slo", timeline, str(path)]
    else:
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps(
            {"objectives": [{"name": "p99", "metric": "p99_ms", "target": 1e9}]}
        ))
        argv = ["obs", "slo", timeline, str(slo), flag, str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err, err
