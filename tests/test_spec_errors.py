"""Malformed fault, autoscale and SLO specs fail typed, never with a traceback.

The loaders raise ``ValueError`` (fault schedules, autoscale specs) or
``SloError`` (SLO specs) naming the bad field, and the CLI turns each into a
one-line ``bad … spec`` message with exit status 2, as it does for a spec
that loads but does not fit the cluster.  NaN, the infinities
(but an ``end_ms`` of ``"inf"``), numbers too large for a float,
fractional indices or counts, unknown keys at any level, bools where
numbers belong and a version other than 1 are malformed too.  Hypothesis
properties per loader check that generated JSON gives a valid spec or the
typed error, and that the loader agrees with the earlier parsers
(``tests/spec_reference.py``) but for the inputs only it refuses.  Every
spec in ``examples/`` and in the docs loads.
"""

import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fs.elastic import AutoscaleSpec
from repro.fs.faults import FaultSchedule, RetryPolicy
from repro.obs.slo import SloError, SloSpec
from tests import spec_reference

ROOT = pathlib.Path(__file__).parent.parent

NAN, INF, HUGE = math.nan, math.inf, 10**400


def _crash(**kw):
    return {"kind": "crash", "mds": 0, "start_ms": 1.0, "end_ms": 10.0, **kw}


def _objective(**kw):
    return {"objectives": [{"name": "a", "metric": "p99_ms", "target": 1.0, **kw}]}


#: (spec, the field the error must name)
FAULT_SPECS = [
    ([1, 2], "'faults'"),
    ({"retry": {"bogus": 1}}, "'retry'"),
    ({"retry": []}, "'retry'"),
    ({"faults": [5]}, "'faults'"),
    ({"version": "2"}, "'version'"),
    ({"faults": [{"kind": "slowdown", "mds": 0, "start_ms": 0.0, "end_ms": 10.0,
                  "factor": NAN}]}, "factor"),
    ({"faults": [_crash(mds=1.5)]}, "mds"),
    ({"faults": [_crash(start_ms=NAN)]}, "start_ms"),
    ({"faults": [_crash(end_ms=HUGE)]}, "end_ms"),
    ({"faults": [_crash(warmup_factor=INF)]}, "warmup_factor"),
    ({"faults": [{"kind": "rpc_delay", "mds": 0, "start_ms": 0.0, "end_ms": 10.0,
                  "extra_ms": INF}]}, "extra_ms"),
    ({"retry": {"max_attempts": INF}}, "max_attempts"),
    ({"retry": {"max_attempts": 2.5}}, "max_attempts"),
    ({"retry": {"backoff_max_ms": NAN}}, "backoff_max_ms"),
    ({"version": -3}, "'version'"),
    ({"retyr": {"max_attempts": 2}}, "'retyr'"),
    ({"retry": {"max_attempst": 2}}, "'max_attempst'"),
    ({"faults": [_crash(strat_ms=1.0)]}, "'strat_ms'"),
    ({"faults": [_crash(start_ms=True)]}, "'start_ms'"),
    ({"faults": [{"kind": "slowdown", "mds": 0, "start_ms": 0.0, "end_ms": 10.0,
                  "factor": True}]}, "'factor'"),
    ({"retry": {"jitter": True}}, "'jitter'"),
]
AUTOSCALE_SPECS = [
    ([1], "'events'"),
    ({"min_mds": "x"}, "'min_mds'"),
    ({"events": [5]}, "'events'"),
    ({"policy": "schedule", "events": [{}]}, "'epoch'"),
    ({"policy": "schedule", "events": [{"epoch": INF, "action": "join"}]}, "epoch"),
    ({"policy": "schedule", "events": [{"epoch": 1.7, "action": "join", "count": 1.9}]},
     "epoch"),
    ({"policy": "schedule", "events": [{"epoch": 1, "action": "join", "count": 1.9}]},
     "count"),
    ({"warmup_factor": NAN}, "warmup_factor"),
    ({"warmup_ms": INF}, "warmup_ms"),
    ({"warmup_ms": HUGE}, "warmup_ms"),
    ({"schema_version": 1, "polcy": "predictive"}, "'polcy'"),
    ({"policy": "schedule", "events": [{"epoch": 1, "action": "join", "cuont": 3}]},
     "'cuont'"),
    ({"warmup_ms": True}, "'warmup_ms'"),
]
#: (flag, spec, message): specs that load but do not fit the 2-MDS cluster
#: the CLI rows run
UNFIT_SPECS = [
    ("--faults", {"faults": [_crash(mds=5)]}, "crash targets unknown MDS 5"),
    ("--autoscale", {"min_mds": 3, "max_mds": 4}, "outside autoscale bounds [3, 4]"),
]
SLO_SPECS = [
    ({"objectives": [5]}, "objective"),
    ({"objectives": [{"name": "a", "metric": "p99_ms", "target": "x"}]}, "'target'"),
    (_objective(burn_window=INF), "'burn_window'"),
    (_objective(burn_window=2.5), "burn_window"),
    (_objective(target=NAN), "'target'"),
    (_objective(target=HUGE), "'target'"),
    (_objective(burn_alert=NAN), "'burn_alert'"),
    ({"objectives": [{"name": "a", "metric": "p99_ms", "target_ms": NAN}]}, "'target_ms'"),
    ({**_objective(), "nmae": "x"}, "'nmae'"),
    (_objective(burn_windwo=3), "'burn_windwo'"),
    (_objective(target=True), "'target'"),
    ({**_objective(), "name": 5}, "'name'"),
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
    for spec, field in FAULT_SPECS:
        yield "simulate", "--faults", spec, "bad fault schedule", field
        yield "obs slo", "--faults", spec, "bad fault schedule", field
    for spec, field in AUTOSCALE_SPECS:
        yield "simulate", "--autoscale", spec, "bad autoscale spec", field
    for flag, spec, message in UNFIT_SPECS:
        yield "simulate", flag, spec, message, re.escape(message)
    for spec, field in SLO_SPECS:
        yield "simulate", "--slo", spec, "bad SLO spec", field
        yield "obs slo", None, spec, "bad SLO spec", field


CLI_CASES = list(_cli_cases())


@pytest.mark.parametrize(
    "command,flag,spec,message,field", CLI_CASES,
    ids=[f"{c}-{f or 'spec'}-{json.dumps(s)}" for c, f, s, _, _ in CLI_CASES],
)
def test_cli_exits_2_with_one_line(command, flag, spec, message, field, tmp_path, capsys,
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
    assert message in err and re.search(field, err), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    ["simulate", "Lunule", "rw", "--ops", "200", "--mds", "2", "--slo"],
    ["simulate", "Lunule", "rw", "--ops", "200", "--mds", "2", "--faults"],
    ["obs", "slo", "TIMELINE"],
])
def test_cli_refuses_a_spec_file_that_is_not_text(argv, tmp_path, capsys, timeline):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    assert main([timeline if a == "TIMELINE" else a for a in argv] + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and err.count("\n") == 1, err


def test_end_ms_inf_stays_legal():
    schedule = FaultSchedule.from_dict({"faults": [_crash(end_ms="inf")]})
    assert schedule.events[0].end_ms == INF and not schedule.events[0].restarts


def test_backoff_keeps_its_bits_and_never_overflows():
    policy = RetryPolicy(max_attempts=2000, backoff_max_ms=1e300)
    for attempt in range(1, 1025):
        assert policy.backoff_ms(attempt, 0.5) == (
            min(policy.backoff_base_ms * 2.0 ** (attempt - 1), 1e300) * 1.25
        )
    assert policy.backoff_ms(1025, 0.5) == policy.backoff_ms(2000, 0.5) == 1e300 * 1.25


# ------------------------------------------------------ generated inputs

#: JSON scalars a hand-written spec could hold in any field
_SCALARS = st.one_of(
    st.sampled_from([NAN, INF, -INF, HUGE, 2**1024, None, True, False, "inf", "x", [], {}]),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 40.0).filter(lambda x: x != int(x)),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2))


def _rarely(bad, good):
    """``good`` seven times in eight, else ``bad``."""
    return st.integers(0, 7).flatmap(lambda i: good if i else bad)


def _objects(required, optional):
    """Dicts of mostly good values: the ``required`` keys and some of the
    ``optional`` ones; rarely any keys at all (a required one missing, an
    unknown one present) or not a dict."""
    required = {k: _rarely(_VALUES, v) for k, v in required.items()}
    optional = {k: _rarely(_VALUES, v) for k, v in optional.items()}
    some = st.fixed_dictionaries({}, optional={**required, **optional, "bogus": _VALUES})
    full = st.fixed_dictionaries(required, optional=optional)
    return _rarely(_VALUES, _rarely(some, full))


_MS = st.floats(0.0, 50.0)
_FAULT_EVENTS = st.one_of(*(
    _objects(
        {"kind": st.just(kind), "mds": st.integers(0, 2), "start_ms": _MS,
         "end_ms": st.floats(60.0, 200.0) | st.just("inf"), **required},
        optional,
    )
    for kind, required, optional in (
        ("slowdown", {}, {"factor": st.floats(1.0, 5.0)}),
        ("crash", {}, {"warmup_ms": _MS, "warmup_factor": st.floats(1.0, 5.0)}),
        ("rpc_drop", {"probability": st.floats(0.01, 1.0)}, {}),
        ("rpc_delay", {"extra_ms": st.floats(0.01, 1.0)}, {}),
        ("partition", {}, {}),
    )
))
_FAULT_SPECS = _objects({}, {
    "version": st.just(1),
    "retry": _objects({}, {
        "rpc_timeout_ms": st.floats(0.1, 10.0), "backoff_base_ms": st.floats(0.0, 1.0),
        "backoff_max_ms": st.floats(1.0, 10.0), "max_attempts": st.integers(1, 2000),
        "jitter": st.floats(0.0, 1.0),
    }),
    "faults": st.lists(_FAULT_EVENTS, min_size=1, max_size=3),
})

_SCALE_EVENTS = _objects(
    {"epoch": st.integers(0, 5), "action": st.sampled_from(["join", "drain"])},
    {"count": st.integers(1, 2)},
)
_AUTOSCALE_SPECS = _objects({}, {
    "schema_version": st.just(1),
    "policy": st.sampled_from(["threshold", "predictive", "schedule"]),
    "min_mds": st.integers(1, 2), "max_mds": st.integers(2, 5),
    "warmup_ms": _MS, "warmup_factor": st.floats(1.0, 5.0),
    "cooldown_epochs": st.integers(0, 3), "horizon_epochs": st.integers(1, 4),
    "scale_out_util": st.floats(0.5, 1.0), "scale_in_util": st.floats(0.01, 0.49),
    "events": st.lists(_SCALE_EVENTS, min_size=1, max_size=3),
})

_OBJECTIVES = _objects(
    {"name": st.sampled_from(["a", "b"]),
     "metric": st.sampled_from(["p99_ms", "cache_hit_rate"]),
     "target": st.floats(0.0, 100.0)},
    {"target_ms": st.floats(0.0, 100.0), "error_budget": st.floats(0.01, 1.0),
     "burn_window": st.integers(1, 10), "burn_alert": st.floats(0.1, 5.0)},
)
_SLO_SPECS = _objects(
    {"objectives": st.lists(_OBJECTIVES, min_size=1, max_size=2)},
    {"name": st.sampled_from(["slo", "x"])},
)


def _strict_round_trip(spec, load):
    """A valid spec is strict JSON (no NaN, no infinity) and loads back equal."""
    text = json.dumps(spec.to_dict(), allow_nan=False)
    assert load(json.loads(text)) == spec


@settings(max_examples=300, deadline=None)
@given(_FAULT_SPECS)
def test_generated_fault_schedules_load_or_fail_typed(data):
    try:
        schedule = FaultSchedule.from_dict(data)
    except ValueError:
        return
    _strict_round_trip(schedule, FaultSchedule.from_dict)
    assert all(type(e.mds) is int for e in schedule)
    assert type(schedule.retry.max_attempts) is int
    try:
        schedule.validate(3)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(_AUTOSCALE_SPECS)
def test_generated_autoscale_specs_load_or_fail_typed(data):
    try:
        spec = AutoscaleSpec.from_dict(data)
    except ValueError:
        return
    _strict_round_trip(spec, AutoscaleSpec.from_dict)
    assert all(type(e.epoch) is int and type(e.count) is int for e in spec.events)
    try:
        spec.validate(2)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(_SLO_SPECS)
def test_generated_slo_specs_load_or_fail_typed(data):
    try:
        spec = SloSpec.from_dict(data)
    except SloError:
        return
    _strict_round_trip(spec, SloSpec.from_dict)
    assert all(type(o.burn_window) is int for o in spec.objectives)


def _bad_version(data, key):
    return key in data and not (type(data[key]) is int and data[key] == 1)


def _has_bool(obj):
    return isinstance(obj, dict) and any(type(v) is bool for v in obj.values())


def _only_the_loader_refuses_faults(data):
    """An unknown schedule key, a bool in the retry policy or an event, or a
    version other than 1: inputs the earlier parser took."""
    if not isinstance(data, dict):
        return False
    faults = data.get("faults")
    return bool(
        set(data) - {"version", "retry", "faults"}
        or _bad_version(data, "version")
        or _has_bool(data.get("retry"))
        or (isinstance(faults, list) and any(_has_bool(e) for e in faults))
    )


def _only_the_loader_refuses_autoscale(data):
    """An unknown spec or scale-event key, or a version other than 1."""
    if not isinstance(data, dict):
        return False
    events = data.get("events")
    return bool(
        set(data) - {*AutoscaleSpec().to_dict(), "events"}
        or _bad_version(data, "schema_version")
        or (isinstance(events, list) and any(
            isinstance(e, dict) and set(e) - {"epoch", "action", "count"} for e in events
        ))
    )


def _only_the_loader_refuses_slo(data):
    """An unknown spec key, or a spec or objective name that is not a string."""
    if not isinstance(data, dict):
        return False
    objectives = data.get("objectives")
    return bool(
        set(data) - {"name", "objectives"}
        or ("name" in data and type(data["name"]) is not str)
        or (isinstance(objectives, list) and any(
            isinstance(o, dict) and "name" in o and type(o["name"]) is not str
            for o in objectives
        ))
    )


def _agrees_with_reference(data, load, reference, error, only_the_loader_refuses):
    """Where the earlier parser raises, or the input is one only the loader
    refuses, the loader raises ``error``; elsewhere both give the same
    ``to_dict()``, down to an int against a float."""
    try:
        expected = reference(data)
    except ValueError as exc:
        assert type(exc) is error, exc
        expected = None
    if expected is None or only_the_loader_refuses(data):
        with pytest.raises(ValueError) as info:
            load(data)
        assert type(info.value) is error, info.value
    else:
        assert json.dumps(load(data).to_dict()) == json.dumps(expected.to_dict())


@settings(max_examples=300, deadline=None)
@given(_FAULT_SPECS)
def test_fault_loader_agrees_with_the_earlier_parser(data):
    _agrees_with_reference(data, FaultSchedule.from_dict, spec_reference.fault_schedule_from_dict,
                           ValueError, _only_the_loader_refuses_faults)


@settings(max_examples=300, deadline=None)
@given(_AUTOSCALE_SPECS)
def test_autoscale_loader_agrees_with_the_earlier_parser(data):
    _agrees_with_reference(data, AutoscaleSpec.from_dict, spec_reference.autoscale_from_dict,
                           ValueError, _only_the_loader_refuses_autoscale)


@settings(max_examples=300, deadline=None)
@given(_SLO_SPECS)
def test_slo_loader_agrees_with_the_earlier_parser(data):
    _agrees_with_reference(data, SloSpec.from_dict, spec_reference.slo_from_dict,
                           SloError, _only_the_loader_refuses_slo)


# ------------------------------------------------------------ docs drift

#: every spec file in examples/, with its loader
EXAMPLE_SPECS = {
    "autoscale_diurnal.json": AutoscaleSpec,
    "faults_demo.json": FaultSchedule,
    "slo_demo.json": SloSpec,
}
#: the docs whose ```json blocks are specs, with their loader
DOC_SPECS = {
    "benchmarking.md": FaultSchedule,
    "elasticity.md": AutoscaleSpec,
    "faults.md": FaultSchedule,
    "observability.md": SloSpec,
}


def test_every_example_spec_loads():
    assert sorted(p.name for p in (ROOT / "examples").glob("*.json")) == sorted(EXAMPLE_SPECS)
    for name, spec in EXAMPLE_SPECS.items():
        spec.load(str(ROOT / "examples" / name))


@pytest.mark.parametrize("doc", sorted(DOC_SPECS))
def test_every_doc_spec_loads(doc):
    text = (ROOT / "docs" / doc).read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]
    specs = [b for b in blocks if "op_index" not in b]  # a span record is not a spec
    assert specs
    for block in specs:
        DOC_SPECS[doc].from_dict(block)
