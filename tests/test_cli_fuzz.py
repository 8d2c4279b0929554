"""Fuzzed command lines: every call ends in a documented exit code.

Hypothesis draws argv over the four commands and their flags, plus small
JSON configs holding wrong types, nulls and negative values, and drives
``cli.main`` in-process against one tiny dataset.  Every call must return
(or exit with) 0, 1, 2 or 3; a failing call reports itself on an
``error:`` line, and no exception other than ``SystemExit`` may escape.
Scales stay small (at most 200 order lines and 3 weeks).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from picksim.cli import main

# one valid value per config field, so a drawn config can also be valid
VALID = {
    "sps": 90.0, "Lsps": 30.0, "tts": 3.0, "BTpu": 10.0, "BTpa": 10.0, "PMpu": 2.0,
    "PPpu": 15.0, "PPpa": 15.0, "pieces_per_master": 10, "metric_unit": "hours",
}
# ``walking`` and ``replenish.mode`` are spellings of earlier versions: these values load
NESTED_VALID = {
    "walking": {"mode": "distance", "equipment": "stacker"},
    "replenish": {"mode": "sampled", "mu_s": 600.0, "sigma_s": 60.0, "t_min_s": 30.0},
}
BAD = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 0), st.sampled_from([-0.5, math.nan, math.inf]),
    st.sampled_from(["", "x", "constant", "3"]), st.just([]), st.just({}),
)


def _field(valid) -> st.SearchStrategy:
    return st.one_of(st.just(valid), BAD)


def _object(valid: dict, nested: dict) -> st.SearchStrategy:
    """A JSON object over the given fields and an unknown key."""
    optional = {name: _field(v) for name, v in valid.items()}
    optional.update({name: st.one_of(BAD, inner) for name, inner in nested.items()})
    optional["bogus"] = BAD
    return st.fixed_dictionaries({}, optional=optional)


CONFIGS = st.one_of(
    _object(VALID, {name: _object(fields, {}) for name, fields in NESTED_VALID.items()}),
    st.fixed_dictionaries({}, optional={name: st.just(value) for name, value in
                                        {**VALID, **NESTED_VALID}.items()}),
    BAD,
)

# valid values repeated so that most drawn command lines get past argparse
WEEKS = st.sampled_from(["1", "2", "3"] * 3 + ["0", "-1", "x"])
SEEDS = st.sampled_from(["0", "7", "-3"] * 3 + ["x"])


def _flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return values.map(lambda v: [name, v])


RUN_REQUIRED = [_flag("--data", st.sampled_from(["{data}", "{data}", "{data}", "{tmp}/missing"])),
                _flag("--weeks", WEEKS)]
RUN_OPTIONAL = [
    _flag("--config", st.sampled_from(["{config}", "{config}", "{tmp}/missing.json",
                                       "{latin1_config}"])),
    _flag("--policy", st.sampled_from(["fixed", "random", "fixed-zone", "nope"])),
    _flag("--picking", st.sampled_from(["area", "zoning", "nope"])),
    _flag("--seed", SEEDS),
    _flag("--out", st.sampled_from(["{tmp}/out", "{tmp}/out", "{weekly}", ""])),
    st.just(["--audit"]),
]
# command -> (flags always given, flags drawn)
COMMANDS = {
    "simulate": (RUN_REQUIRED, RUN_OPTIONAL + [
        _flag("--allocation", st.sampled_from(["homogeneous", "demand-based", "nope"])),
        _flag("--name", st.sampled_from(["s", ""])),
        st.just(["--trace"]),
    ]),
    "compare": (RUN_REQUIRED, RUN_OPTIONAL),
    "gen-data": ([_flag("--out", st.sampled_from(["{tmp}/gen", "{tmp}/gen", "{weekly}",
                                                  "{weekly}/x", ""]))], [
        _flag("--seed", SEEDS),
        _flag("--items", st.sampled_from(["-1", "0", "1", "4", "x"])),
        _flag("--slots", st.sampled_from(["-1", "0", "3", "12", "30"])),
        _flag("--lines", st.sampled_from(["-1", "0", "10", "200"])),
        _flag("--weeks", WEEKS),
    ]),
    "stats": ([st.sampled_from([1, 2] * 3 + [3]).flatmap(lambda n: st.lists(
                  st.sampled_from(["{weekly}", "{weekly2}"] * 3 + [
                      "{short}", "{bad}", "{nan}", "{latin1}", "{tmp}/missing.csv"]),
                  min_size=n, max_size=n)).map(lambda files: ["--weekly", *files])],
              [_flag("--out", st.sampled_from(["{tmp}/stats", "{tmp}/stats", "{weekly}", ""]))]),
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    argv = [command]
    for flag in required:
        argv += draw(flag)
    for i in draw(st.lists(st.sampled_from(range(len(optional))), max_size=6, unique=True)):
        argv += draw(optional[i])
    junk = draw(st.sampled_from([None] * 8 + ["--bogus", "stray", "--help", "bogus"]))
    if junk == "bogus":
        argv[0] = junk
    elif junk is not None:
        argv.append(junk)
    return argv


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(root / "data"), "--seed", "3", "--items", "4",
                     "--slots", "16", "--lines", "45", "--weeks", "3"]) == 0
    (root / "weekly.csv").write_text("week,metric\n1,10\n2,12.5\n3,11\n")
    (root / "weekly2.csv").write_text("week,metric\n1,9\n2,14\n3,11.5\n")
    (root / "short.csv").write_text("week,metric\n1,10\n")
    (root / "bad.csv").write_text("week,metric\n1,ten\n")
    (root / "nan.csv").write_text("week,metric\n1,nan\n2,3\n")
    (root / "latin1.csv").write_bytes(b"week,metric\n1,10\n2,3\xff\n")
    (root / "latin1.json").write_bytes(b'{"sph": 1\xff00}')
    return root


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), config=CONFIGS)
def test_every_call_ends_in_a_documented_exit_code(tiny, argv, config):
    with tempfile.TemporaryDirectory(dir=tiny) as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        names = {"data": tiny / "data", "config": config_path, "tmp": tmp,
                 "weekly": tiny / "weekly.csv", "weekly2": tiny / "weekly2.csv", "short": tiny / "short.csv",
                 "bad": tiny / "bad.csv", "nan": tiny / "nan.csv", "latin1": tiny / "latin1.csv",
                 "latin1_config": tiny / "latin1.json"}
        args = [a.format(**names) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (args, config, err.getvalue())
    if code != 0:
        assert err.getvalue().splitlines()[-1].startswith("error: "), (args, config,
                                                                     err.getvalue())
