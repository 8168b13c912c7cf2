"""Fuzzing of ``theory --params`` and ``train --spec`` files.

Whatever a parameter file holds (known and unknown keys, values of the
wrong type, numbers near the float range or not finite), a run exits 0,
1, 2 or 3, writes at most one line to stderr, that line is JSON, no
exception escapes ``cli.main``, and every JSON file it writes is strict
JSON. Sizes and step counts stay small so that every run is short.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from conftest import strict_json
from trajkit.cli import main

small_int = st.integers(-2, 6)
# json.dumps writes a non-finite float as a NaN, Infinity or -Infinity token
float_value = st.one_of(
    st.floats(-2.0, 12.0, allow_nan=False), st.floats(1e150, 1e308), st.floats(-1e308, -1e150),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), small_int, float_value,
    st.lists(st.one_of(small_int, st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), small_int, max_size=2),
)
floats = st.lists(float_value, min_size=0, max_size=3)


def _maybe(required=None, **fields):
    """Objects with the ``required`` fields and any subset of ``fields``;
    about half of them then get one known or unknown key set to junk."""
    required = required or {}
    known = st.fixed_dictionaries(required, optional=fields)
    keys = st.sampled_from([*required, *fields, "bogus", ""])
    spoil = st.one_of(st.none(), st.tuples(keys, junk))

    def spoiled(obj, change):
        if change is not None:
            obj[change[0]] = change[1]
        return obj

    return st.builds(spoiled, known, spoil)


quadratic = dict(
    eigenvalues=floats, alpha=float_value, mu=float_value, eta=floats,
    theta_init=floats, rotation_seed=small_int, steps=st.integers(-1, 20),
)
theory_params = {
    "lemma": _maybe(**quadratic),
    "eos": _maybe(**quadratic, eta_grid=floats),
    "width": _maybe(
        {"widths": st.lists(st.integers(-1, 12), max_size=3)}, eta_scale=float_value,
        steps=st.integers(-1, 3), seed=small_int, init_std_scale=float_value,
    ),
}
data = _maybe(
    samples_per_class=st.integers(-1, 6), dim=st.integers(-1, 4),
    separation=float_value, noise_std=float_value, seed=small_int,
)
train = _maybe(
    {"epochs": st.integers(-1, 3)},
    layer_sizes=st.lists(st.integers(-1, 4), max_size=4), data=data, eta=float_value,
    mu=float_value, wd=float_value, batch_size=st.integers(-1, 8),
    ckpt_every=st.integers(-1, 3), seed=small_int, loss=st.sampled_from(["squared", "x"]),
)
grid_entry = _maybe(name=st.sampled_from(["a", "b", "", "..", "x/y"]), mu=float_value,
                    wd=float_value)
train_spec = _maybe({"train": train}, grid=st.lists(grid_entry, max_size=2))

documents = st.one_of(
    st.sampled_from(["lemma", "eos", "width"]).flatmap(
        lambda verb: st.tuples(st.just(["theory", verb, "--params"]), theory_params[verb])
    ),
    st.tuples(st.just(["train", "--spec"]), train_spec),
    st.tuples(st.sampled_from([["theory", "eos", "--params"], ["train", "--spec"]]), junk),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
# a NaN or Infinity token that a run read as a number
@example((["theory", "eos", "--params"], {"eta_grid": [math.nan]}))
@example((["theory", "width", "--params"], {"widths": [8, 16], "eta_scale": math.nan}))
@example((["train", "--spec"], {"train": {"epochs": 1, "eta": math.inf}}))
# update products that overflow float64 in theory lemma
@example((["theory", "lemma", "--params"], {"eigenvalues": [1.0], "theta_init": [1e160]}))
@example((["theory", "lemma", "--params"],
          {"eigenvalues": [1e300], "eta": [1e-300], "theta_init": [1.0]}))
def test_parameter_files_fail_cleanly(case):
    argv, document = case
    text = json.dumps(document)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "params.json", Path(tmp) / "out"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main([*argv, str(path), "--out", str(out)])
        written = [f.read_text() for f in out.rglob("*.json")]
        out_exists = out.exists()
    for doc in written:
        strict_json(doc)  # raises, naming the token, on NaN or Infinity
    try:
        strict_json(text)
    except ValueError:  # a NaN or Infinity token fails before anything runs
        assert rc == 1 and not out_exists
    err = stderr.getvalue().splitlines()
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 1, 2, 3)
    # a warning would be one more stderr line from a CLI process
    assert [str(w.message) for w in caught] == []
    assert len(err) <= 1
    if err:
        assert set(json.loads(err[0])) == {"error", "detail"}
    assert (rc == 0) == (not err)
