"""The command line contract under fuzzed option values and CSV bytes.

Every run must exit 0, 1 or 2, a run that prints JSON must print one
parseable envelope, and no other exception may escape.  Only a usage error,
an argv that argparse or the grid check rejects, may raise
``SystemExit(2)``: a bad input behind a valid argv gets the envelope.
Examples are derandomized and no example database is written, so the test
is as repeatable as the rest of the suite.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from partialreg import PartialRegError
from partialreg.cli import EXIT_USAGE, _grids, build_parser, main

SPECIAL = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308",
                           "5e-324", "0", "", "abc", "1e", "0x10"])
NUMBER = st.one_of(st.integers(-3, 3).map(str), st.floats(-4, 4).map(repr),
                   SPECIAL, st.floats().map(repr))
# Half the grids are sane, so that sweeps and surfaces often compute.
GRID = st.one_of(st.tuples(st.integers(-3, 0), st.integers(0, 3),
                           st.sampled_from([0.25, 0.5, 1]))
                 .map(lambda grid: tuple(map(str, grid))),
                 st.tuples(NUMBER, NUMBER, NUMBER))
TOLERANCE = st.one_of(st.sampled_from(["1e-8", "1e-18"]), NUMBER)
FINITE = st.one_of(st.integers(-9, 9).map(str), st.floats(-1e3, 1e3).map(repr))
# "1\r" as a row's last cell ends that row with \r\n.
CELL = st.one_of(FINITE, SPECIAL, st.sampled_from(
    [" ", '"1"', "x,", "\n", "1_0", "5\x1c", "\u0661", "1\r"]))


def _table(cell, min_rows=2, width=4):
    return st.lists(st.lists(cell, min_size=width, max_size=width),
                    min_size=min_rows, max_size=6)


# Two of the four table shapes are all numbers, so most runs get past parsing.
TABLE = st.one_of(_table(FINITE, 3), _table(FINITE), _table(CELL),
                  st.lists(st.lists(CELL, max_size=5), max_size=4))
CSV_BYTES = st.one_of(
    TABLE.map(lambda rows: ("X1,X2,X3,Y\n" + "".join(
        ",".join(row) + "\n" for row in rows)).encode()),
    st.binary(max_size=48),
)
OVERSIZED_FIELD = (b"X1,X2,X3,Y\n1,2,3,4\n" + b"1" * 131073
                   + b",2,3,4\n2,3,5,7\n")
ZERO_PADDED_FIELD = (b"X1,X2,X3,Y\n1,2,3,4\n" + b"0" * 131072
                     + b"1,2,3,4\n2,3,5,7\n")
OVERFLOWING = (b"X1,X2,X3,Y\n1e308,1e308,1,2\n1e308,-1e308,2,3\n"
               b"3,1,3,4\n4,6,2,1\n")


def _argv(command, fmt, grid, tolerance):
    lo, hi, step = grid
    columns = {
        "fit": ["--response", "Y", "--predictors", "X1,X2"],
        "residualize": ["--target", "X1", "--controls", "X2,X3"],
        "sweep": ["--response", "Y", "--x1", "X1", "--x2", "X2",
                  f"--gamma-min={lo}", f"--gamma-max={hi}",
                  f"--gamma-step={step}"],
        "surface": ["--response", "Y", "--x1", "X1", "--x2", "X2",
                    "--x3", "X3", f"--gamma2-range={lo}:{hi}:{step}",
                    f"--gamma3-range={lo}:{hi}:{step}"],
        "verify": ["--response", "Y", "--x1", "X1", "--controls", "X2",
                   f"--tolerance={tolerance}"],
        "report": ["--response", "Y", "--x1", "X1", "--controls", "X2,X3",
                   f"--tolerance={tolerance}"],
    }[command]
    return [command, *columns, *([] if command == "report"
                                 else ["--format", fmt])]


def _is_usage_error(argv):
    try:
        _grids(build_parser().parse_args(argv))
    except PartialRegError:  # a grid too large, which gets the envelope
        return False
    except (SystemExit, ValueError):
        return True
    return False


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["fit", "residualize", "sweep", "surface",
                                "verify", "report"]),
       fmt=st.sampled_from(["json", "csv"]),
       grid=GRID, tolerance=TOLERANCE, data=CSV_BYTES)
@example(command="fit", fmt="json", grid=("0", "1", "0.5"), tolerance="1e-8",
         data=OVERSIZED_FIELD)
@example(command="verify", fmt="csv", grid=("0", "1", "0.5"),
         tolerance="1e-8", data=OVERSIZED_FIELD)
@example(command="fit", fmt="json", grid=("0", "1", "0.5"), tolerance="1e-8",
         data=ZERO_PADDED_FIELD)
@example(command="verify", fmt="json", grid=("0", "1", "0.5"),
         tolerance="1e-8", data=OVERFLOWING)
@example(command="residualize", fmt="json", grid=("0", "1", "0.5"),
         tolerance="1e-8", data=OVERFLOWING)
@example(command="fit", fmt="csv", grid=("0", "1", "0.5"), tolerance="1e-8",
         data=OVERFLOWING)
@example(command="fit", fmt="json", grid=("0", "1", "0.5"), tolerance="1e-8",
         data=b"\n")
def test_exit_codes_and_envelopes_hold(tmp_path, capsys, command, fmt, grid,
                                       tolerance, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    argv = [*_argv(command, fmt, grid, tolerance), "--input", str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, argv
        assert _is_usage_error(argv), argv
        capsys.readouterr()
        return
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == EXIT_USAGE or (fmt == "json" and command != "report"):
        doc = json.loads(out, parse_constant=_reject_constant)
        assert set(doc) == {"command", "inputs", "results", "diagnostics"}
        assert doc["command"] == command
        assert (doc["results"] is None) == (code == EXIT_USAGE)

