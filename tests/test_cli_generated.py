"""The CLI contract on generated argvs.

Argvs are drawn from a small grammar of the documented options, with bad
values among the good ones, and spec and body files written on the fly:
narrow twist supports, non-integral and huge twist counts, unknown spec
keys, bodies scaled far from unit size.  Each runs through `cli.run` in
this process, with work kept small.  Every run must exit 0, 1 or 2; a
failure is one stderr line without a traceback, and a success prints rows
whose numbers are finite, with nonnegative volumes and growth rates.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entropia import cli


def _pick(good, bad):
    """One of the good values, or now and then one of the bad ones."""
    return st.sampled_from(list(good) * 4 + list(bad))


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _flat(parts):
    return [x for part in parts for x in part]


# a float as a user might type it, bad ones included
NUMBERS = st.one_of(
    st.floats(1e-3, 10.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
    st.sampled_from(["0", "-0.0", "-1", "1e-300", "1e300", "abc", ""]),
)
# a count: small, at and past the caps, or past any float
COUNTS = _pick(["2", "3", "6", "8"], ["-1", "0", "1", "10000", "10001",
                                      str(10 ** 8), str(10 ** 400), "x"])
RANGES = _pick(["2..4", "3", "2..6"], ["0..3", "4..2", "1..10001", "x..2", "2.."])


@st.composite
def _spec(draw):
    spec = {}
    if draw(st.booleans()):
        spec["k_twists"] = draw(_pick([-2, 1, 2, 3],
                                      [0, 1.7, 2.0, 1e300, 10 ** 400, "1"]))
    r0 = draw(st.floats(0.5, 2.0))
    r1 = r0 + draw(_pick([0.1, 1.0, 3.0], [1e300, math.inf]))
    if draw(st.booleans()):
        spec["r_range"] = [r0, r1]
        a = draw(st.floats(r0, r1))
        # widths down to far below the threshold lattice's row spacing
        b = min(r1, a + draw(st.sampled_from([1e-9, 1e-3, 0.01, 0.5, 0.0])))
        spec["tau_support"] = [a, b]
    if draw(st.integers(0, 5)) == 0:
        spec[draw(st.sampled_from(["s", "k_twist", "grid"]))] = 1
    return spec


@st.composite
def _body(draw):
    dim = draw(_pick([2, 3], [1]))
    n = draw(st.sampled_from([4, 24, 64] if dim == 3 else [3, 12, 64]))
    shape = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.one_of(st.integers(-3, 3), st.integers(-200, 200)))
    radial = [scale * r for r in shape]
    if draw(st.integers(0, 5)) == 0:
        radial[0] = draw(st.sampled_from([0.0, -1.0]))
    return {"dim": dim, "radial": radial}


COLLAPSE = st.tuples(
    _option("--tol", _pick(["fit=0.01", "fit=0.5"], ["fit=0", "fit=nan", "bogus=1"])),
    st.just(["collapse"]),
    _option("--steps", _pick(["2", "3"], ["1", "10001"])),
    _option("--twists", _pick(["1", "-2", "3"], ["0", "1000000", str(10 ** 400)])),
    _pick(["2"], ["0"]).map(lambda v: ["--returns", v]),
    _pick(["8", "9"], ["4"]).map(lambda v: ["--horizon", v]),
    _pick(["16"], ["0", "2049"]).map(lambda v: ["--grid", v]),
    st.one_of(st.just([]), st.tuples(NUMBERS, NUMBERS).map(
        lambda t: ["--s-min", t[0], "--s-max", t[1]])),
    st.one_of(st.just([]), _spec().map(lambda s: ["--spec", s])),
).map(_flat)


@st.composite
def _estimate(draw):
    what = draw(_pick(["htop", "hvol", "gamma"], ["bogus"]))
    systems = ["hyperbolic"] if what == "hvol" else [
        "cat", "rotation", "doubling", "reeb-solid-torus"]
    argv = ["estimate", "--what", what, "--cloud", draw(_pick(["50"], ["0"]))]
    argv += draw(_option("--system", _pick(systems, ["bogus", "cat", "hyperbolic"])))
    argv += draw(_option("--horizon", _pick(["3", "8", "12"], [
        "0", "4", "800", "1000000", "1000001", str(10 ** 200), str(10 ** 400)])))
    return argv + draw(_option("--delta", _pick(["0.3", "0.3,0.2"],
                                                ["0,0.1", "1e300", "x"])))


COMMANDS = st.one_of(
    _option("--n", RANGES).map(lambda o: ["constants"] + o),
    _option("--genus", RANGES).map(lambda o: ["bounds"] + o),
    _option("--k-max", COUNTS).map(lambda o: ["verovic"] + o),
    st.just(["sl3"]),
    st.tuples(NUMBERS, NUMBERS, st.integers(-1, 4).map(str), NUMBERS).map(
        lambda t: ["spectrum", "--v-bar", t[0], "--h", t[1], "--n", t[2], "--c", t[3]]),
    st.one_of(st.just([]), _body().map(lambda b: ["--body", b])).map(
        lambda o: ["bodies"] + o),
    COLLAPSE,
    _estimate(),
)
GLOBALS = st.tuples(
    _option("--seed", _pick(["0", "7"], ["-1", "x"])),
    _option("--format", _pick(["csv", "json"], ["xml"])),
).map(_flat)

TEXT_COLUMNS = ("name", "inputs", "formula_id", "config")


def _rows(text, fmt):
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _check_success(out, fmt):
    """Every number of every row is finite; volumes and growth rates (the
    whole of a collapse row) are nonnegative."""
    rows = _rows(out, fmt)
    assert rows
    for row in rows:
        name = row.get("name", "")
        growth = "volume" in name or name.startswith(("gamma", "htop", "hvol"))
        for key, value in row.items():
            if key in TEXT_COLUMNS:
                continue
            number = float(value)
            assert math.isfinite(number), (key, row)
            if key != "tolerance" and (growth or "name" not in row):
                assert number >= 0.0, (key, row)


def _materialize(argv, tmp):
    """argv with each spec or body dict written to a file in tmp."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = Path(tmp) / f"input{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        out.append(arg)
    return out


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(GLOBALS, COMMANDS)
def test_generated_argv_keeps_the_exit_contract(flags, command):
    # the global flags go first; a collapse command brings its own --tol
    with tempfile.TemporaryDirectory() as tmp:
        argv = _materialize(flags + command, tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and out.getvalue() == "", (argv, err.getvalue())
        assert "Traceback" not in lines[0]
    else:
        _check_success(out.getvalue(), "json" if "json" in flags else "csv")
