"""Command-line interface: schemas, exit codes, examples, determinism."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from math import factorial, gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ocmirror import cli
from ocmirror.cli import main
from ocmirror.closed import expand_ladders, z_coeff_ladders
from ocmirror.correspondence import run_check

from families import sweep_window
from second_routes import (
    disk_terms,
    rhs_terms,
    unfloored_surface_terms,
    whole_ifunction_table,
    whole_table,
)

RATIONAL = re.compile(r"^-?\d+/\d+$")


def _lines(capsys) -> list:
    return capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# disk / rhs tables
# ---------------------------------------------------------------------------


def test_disk_csv_header_and_leading_row(capsys):
    assert main(["disk", "--max-q", "4", "--max-mu", "2", "--format", "csv"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "mu,q_power,t0_power,v_power,value"
    assert "1,1,0,0,1/1" in lines  # winding 1, first area order, coefficient 1
    assert "-1,1,0,0,-1/1" in lines


def test_disk_empty_window_is_header_only(capsys):
    assert main(["disk", "--max-q", "0"]) == 0
    assert _lines(capsys) == ["mu,q_power,t0_power,v_power,value"]


@pytest.mark.parametrize("command", ["disk", "rhs"])
def test_empty_table_is_header_only_or_an_empty_list(capsys, command):
    # at Q^0 the right side's T^2/(2v) and the correction's cancel
    assert main([command, "--max-q", "0"]) == 0
    assert capsys.readouterr().out == "mu,q_power,t0_power,v_power,value\n"
    assert main([command, "--max-q", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"


@given(sweep_window(), st.sampled_from(["csv", "json"]))
@settings(max_examples=60, deadline=None)
def test_streamed_tables_match_the_whole_table_oracle(window, fmt):
    # slices written as they are built, each row reduced on its own, against
    # the whole side summed per monomial, sorted and printed in one piece
    flags = ["--max-q", str(window.max_q), "--max-t", str(window.max_t)]
    flags += ["--max-mu", str(window.max_abs_x), "--min-v", str(window.min_v)]
    for command, raw in (("disk", disk_terms), ("rhs", rhs_terms)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, *flags, "--format", fmt]) == 0
        # the command line fixes the V ceiling at 1
        assert out.getvalue() == whole_table(raw(replace(window, max_v=1)), fmt), command


#: a random ``closed.Ladder``: values of several hundred bits with a common
#: factor of num and den (1, 720 or 80!), a and lo from 0, b from 1, and
#: one to seven rungs
_LADDER = st.tuples(
    *[st.integers(-3, 3)] * 4,
    *[st.integers(0, 2)] * 2,
    st.integers(-(1 << 400), 1 << 400),
    st.integers(1, 1 << 400),
    st.integers(0, 4),
    st.integers(0, 6),
    st.integers(-40, 40),
    st.integers(1, 12),
    st.sampled_from([1, 720, factorial(80)]),
).map(lambda t: (*t[:6], t[6] * t[12], t[7] * t[12], t[8], t[8] + t[9], t[10], t[11]))


@given(st.lists(_LADDER, min_size=1, max_size=6), st.sampled_from(["csv", "json"]))
@example([(0, 0, 1, 0, 0, 0, 6, 4, 2, 2, 0, 3), (1, 1, -1, -2, 1, 0, -45, 8, 0, 4, 0, 5)], "csv")
@example([(0, 0, 1, 0, 0, 0, 3 * 7**90, 2**95, 1, 6, -12, 10)], "json")
@settings(max_examples=200, deadline=None)
def test_rungs_reduced_from_the_rung_before_are_the_terms_reduced_alone(ladders, fmt):
    # each rung is the one before times a/(b*l), kept in lowest terms by
    # gcds against that step only: the rows of the expanded terms, each
    # reduced by its own gcd, in the same order
    want = cli._texts(cli.F_COLUMNS, cli._f_rows(expand_ladders(ladders)), fmt)
    assert cli._ladder_texts(ladders, cli.F_COLUMNS, cli._F_ROW, fmt) == want
    for text in cli._ladder_texts(ladders, cli.F_COLUMNS, cli._F_ROW, "csv"):
        n, d = map(int, text.rstrip("\n").rsplit(",", 1)[1].split("/"))
        assert gcd(n, d) == 1 and d > 0, text


def test_disk_json_rows_are_schema_shaped(capsys):
    assert main(["disk", "--max-q", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows, "nonempty table expected"
    for row in rows:
        assert set(row) == {"mu", "q_power", "t0_power", "v_power", "value"}
        assert RATIONAL.match(row["value"])


def test_rhs_table_matches_disk_table(capsys):
    # the correspondence, seen through the front door
    assert main(["rhs", "--max-q", "3", "--max-mu", "3"]) == 0
    rhs_out = capsys.readouterr().out
    assert main(["disk", "--max-q", "3", "--max-mu", "3"]) == 0
    disk_out = capsys.readouterr().out
    assert rhs_out == disk_out


# ---------------------------------------------------------------------------
# exit codes on bad input
# ---------------------------------------------------------------------------


def test_malformed_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["disk", "--not-a-flag"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["localize"])  # --degree is required
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--max-q=--"],
        ["localize", "--degree=--"],
        ["asymptotics", "--q0=--"],
        ["asymptotics", "--l", "100", "--l=--"],
        ["disk", "--output=--"],
        ["disk", "--format=--"],
    ],
    ids=" ".join,
)
def test_flag_holding_no_value_exits_2(capsys, tmp_path, monkeypatch, argv):
    # argparse reads --flag=-- as no value (3.11: the value []); the request
    # is refused as a flag given without its value, and nothing is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and "expected one argument" in err_text
    assert list(tmp_path.iterdir()) == []


def test_invalid_window_exits_2(capsys):
    for argv in (
        ["disk", "--max-q", "-1"],
        ["disk", "--min-v", "2"],
        ["ifunction", "--max-q", "-1"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_invalid_numeric_params_exit_2(capsys):
    assert main(["asymptotics", "--z", "0"]) == 2
    assert main(["asymptotics", "--q1", "-1"]) == 2
    capsys.readouterr()
    # a float that is not finite is refused, never printed as a nan row
    for flag, value in (("--q0", "nan"), ("--q0", "inf"), ("--z", "nan"), ("--q1", "inf")):
        assert main(["asymptotics", flag, value]) == 2
        assert capsys.readouterr() == ("", "error: q0, q1, q2 and z must be finite\n")


def test_prefactor_that_is_not_a_normal_double_exits_2(capsys):
    # q0^(1/z) multiplies both sums and cancels in the ratio; a subnormal,
    # zero or overflowing prefactor is refused, never printed as ratio 1.0
    for q0, z in (("1e-320", "1"), ("1e-300", "0.5"), ("1e300", "0.01")):
        assert main(["asymptotics", "--q0", q0, "--z", z]) == 2, (q0, z)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: q0^(1/z) = {float(q0)!r}^(1/"), err
        assert err.endswith(" is not a normal double\n"), err
    # a small q0 whose prefactor stays normal cancels in the ratio exactly
    assert main(["asymptotics", "--q0", "1e-300"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "200,200.5,1,1.003763044528902,0.003763044528902082"
    )


@pytest.mark.parametrize("q0", ["3e-308", "1e-300", "7.5"])
def test_ratio_rows_do_not_depend_on_q0(capsys, q0):
    # q0^(1/z) cancels in the ratio, so the sums are taken without it: a
    # tiny prefactor can neither underflow the order-N scale nor round it
    for N in range(4):
        for component in ("1", "2"):
            argv = ["asymptotics", "--N", str(N), "--l", "100", "--l", "100000"]
            argv += ["--component", component]
            assert main(argv) == 0
            want = capsys.readouterr().out
            assert main(argv + ["--q0", q0]) == 0, (N, component)
            assert capsys.readouterr() == (want, ""), (N, component)


@pytest.mark.parametrize("l", [2**52, 10**20])
def test_index_whose_half_a_double_loses_exits_2(capsys, l):
    assert main(["asymptotics", "--N", "40", "--l", str(l)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: l must be below 2**52: v_l = (l + 1/2) z loses its half in a double\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--z", "1e-300"], "z = 1e-300 is out of range: z^2 is not a normal double"),
        (["--z", "1e300"], "z = 1e+300 is out of range: z^2 is not a normal double"),
        (["--z", "1e-160"], "z = 1e-160 is out of range: z^2 is not a normal double"),
        (["--N", "150"], "N = 150 is out of range: a scale weight (mu z)^N or a power v_l^-N"),
        (["--N", "1000"], "N = 1000 is out of range: a scale weight (mu z)^N or a power v_l^-N"),
        # v_l = 0.5e-150 at l = 0, so v_l^-3 overflows though every sum converges
        (
            ["--z", "1e-150", "--q1", "1e-160", "--q2", "1e-160", "--N", "3", "--l", "0"],
            "N = 3 is out of range: a scale weight (mu z)^N or a power v_l^-N",
        ),
    ],
)
def test_asymptotics_out_of_double_range_exits_2_naming_its_parameter(capsys, argv, message):
    # z^2 underflowing or overflowing, and the order-N powers overflowing,
    # are refused by name, never as a raw floating-point exception's text
    assert main(["asymptotics", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("z", ["1e-10", "1e-100", "1.5e-154"])
def test_asymptotics_overflowing_terms_exit_2_naming_z(capsys, z):
    # z^2 is a normal double, but the running term q2^mu/(mu! z^mu) of the
    # sums overflows to inf, which never meets the tail tolerance
    assert main(["asymptotics", "--z", z]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: z = {z} is out of range: the terms of the sums overflow a double\n",
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, l, ratio",
    [
        # phi_N is inf - inf at order 30: the ratio would print as nan (NaN in JSON)
        (["--q1", "300", "--q2", "300", "--N", "30", "--l", "0"], "0", "nan"),
        # the remainder over phi_N v_l^-N overflows: the ratio would print as -inf
        (["--z", "0.001", "--N", "25", "--l", "4503599627370495", "--component", "1"],
         "4503599627370495", "-inf"),
    ],
)
def test_asymptotics_non_finite_ratio_exits_2_naming_l(capsys, argv, l, ratio, fmt):
    # no row is printed whose ratio is not a finite double, in either format
    assert main(["asymptotics", *argv, "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the ratio at l = {l} is {ratio}: a sum or the quotient overflows a double\n",
    )


def test_tables_past_the_int_digit_limit(capsys, tmp_path):
    # values of up to 4,540 digits, past the 4,300 a Python int writes by
    # default; the limit is lifted only while the CLI writes, and a file
    # gets the whole table
    window = ["--max-q", "1800", "--max-t", "0", "--max-mu", "1", "--min-v", "-1800"]
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)  # absent before 3.10.7
    limit = digits()
    tables = {}
    for command in ("disk", "rhs"):
        assert main([command, *window]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        tables[command] = out
        assert digits() == limit
    lines = tables["disk"].splitlines()
    assert len(lines) == 1801
    assert max(len(line.rsplit(",", 1)[1]) for line in lines) == 4540
    assert tables["rhs"] == tables["disk"]
    path = tmp_path / "disk.csv"
    assert main(["disk", *window, "--output", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == tables["disk"]


def test_window_beyond_the_mass_budget_exits_2(capsys):
    # 2*max_q + max_t = 4097 is refused before anything is built, by all
    # three commands alike; 4096 runs, and the two sides' tables agree
    window = ["--max-q", "2048", "--max-mu", "1", "--min-v", "-8"]
    refusal = "error: window too large: 2*max_q + max_t = 4097 exceeds 4096\n"
    tables = {}
    for command in ("check", "disk", "rhs"):
        assert main([command, *window, "--max-t", "1"]) == 2
        assert capsys.readouterr() == ("", refusal)
        assert main([command, *window, "--max-t", "0"]) == 0
        tables[command] = capsys.readouterr().out
    assert tables["rhs"] == tables["disk"]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_with_schema_valid_report(capsys):
    assert main(["check", "--max-q", "4", "--max-mu", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"window", "pass", "diff"}
    assert set(report["window"]) == {"maxQ", "maxT", "maxAbsMu", "minV", "maxV"}
    assert report["window"]["maxQ"] == 4
    assert report["pass"] is True
    assert report["diff"] == []


def test_check_corrupted_correction_fails(capsys):
    code = main(["check", "--max-q", "4", "--max-mu", "2", "--corrupt-exc"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["diff"], "corruption must surface in the diff"
    for row in report["diff"]:
        assert set(row) == {"X", "Q", "T", "V", "value"}
        assert row["V"] == -1  # the corruption flips only the v^-1 slice
        assert RATIONAL.match(row["value"])


@given(sweep_window(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_check_json_is_the_reports_dict_as_json(window, corrupt):
    # the report written from its templates, against json.dumps of the
    # report's layout built here: its window, pass and num/den diff rows
    window = replace(window, max_v=1)  # the command line fixes the V ceiling at 1
    flags = ["--max-q", str(window.max_q), "--max-t", str(window.max_t)]
    flags += ["--max-mu", str(window.max_abs_x), "--min-v", str(window.min_v)]
    report = run_check(window, corrupt_correction=corrupt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", *flags, *(["--corrupt-exc"] if corrupt else []), "--format", "json"])
    want = {
        "window": {
            "maxQ": window.max_q,
            "maxT": window.max_t,
            "maxAbsMu": window.max_abs_x,
            "minV": window.min_v,
            "maxV": window.max_v,
        },
        "pass": report.passed,
        "diff": [
            {"X": m.X, "Q": m.Q, "T": m.T, "V": m.V, "value": f"{c.numerator}/{c.denominator}"}
            for m, c in report.diff.items()
        ],
    }
    assert code == (0 if report.passed else 1)
    assert out.getvalue() == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_check_csv_diff_table(capsys):
    code = main(
        ["check", "--max-q", "4", "--max-mu", "2", "--corrupt-exc", "--format", "csv"]
    )
    assert code == 1
    lines = _lines(capsys)
    assert lines[0] == "mu,q_power,t0_power,v_power,value"
    assert len(lines) > 1


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_degree_two_classes(capsys):
    assert main(["localize", "--degree", "2", "--markings", "0"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "labels,edges,markings,aut,contribution"
    assert len(lines) == 4  # three isomorphism classes
    auts = sorted(line.split(",")[3] for line in lines[1:])
    assert auts == ["1", "2", "2"]


def test_localize_json_rows(capsys):
    assert main(["localize", "--degree", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {
            "labels": [1, 2],
            "edges": [[0, 1, 1]],
            "markings": [],
            "aut": 1,
            "contribution": "1/1",
        }
    ]


def test_localize_hard_caps_exit_2(capsys):
    assert main(["localize", "--degree", "4"]) == 2
    assert main(["localize", "--degree", "0"]) == 2
    assert main(["localize", "--degree", "1", "--markings", "5"]) == 2
    capsys.readouterr()


# the benchmark's record of every table the caps allow: the first 16 hex
# digits of sha256(stdout), keyed "degree,markings,format"
with open(Path(__file__).parent.parent / "perfbench" / "digests.json", encoding="utf-8") as fh:
    LOCALIZE_DIGESTS = json.load(fh)["localize"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("markings", range(5))
@pytest.mark.parametrize("degree", range(1, 4))
def test_every_localize_table_matches_its_recorded_digest(capsys, degree, markings, fmt):
    argv = ["localize", "--degree", str(degree), "--markings", str(markings), "--format", fmt]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == LOCALIZE_DIGESTS[f"{degree},{markings},{fmt}"]


# ---------------------------------------------------------------------------
# ifunction
# ---------------------------------------------------------------------------


def test_ifunction_slice_two_contains_the_known_rows(capsys):
    assert main(["ifunction", "--zcoeff", "2", "--max-q", "3"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "t0_power,q1_power,q2_power,v_power,value"
    assert "2,0,0,0,1/2" in lines  # half the squared logarithm
    assert "0,1,1,0,1/1" in lines  # the balanced area product


@pytest.mark.parametrize("min_v", [-5, -1, 0, 1])
@pytest.mark.parametrize("zcoeff", range(-1, 5))
def test_ifunction_reads_only_the_degrees_the_v_floor_admits(capsys, zcoeff, min_v):
    # a class of degree d1 + d2 lands at V <= zcoeff - (d1 + d2), so the
    # table at an area cap far beyond zcoeff - min_v is the table at it
    def table(max_q):
        argv = ["ifunction", "--zcoeff", str(zcoeff), "--max-t", "3", "--min-v", str(min_v)]
        assert main([*argv, "--max-q", str(max_q)]) == 0
        return capsys.readouterr().out

    far = table(200)
    top = zcoeff - min_v
    if top < 0:
        assert far == "t0_power,q1_power,q2_power,v_power,value\n"
    else:
        assert far == table(top)


@given(
    st.integers(-1, 11), st.integers(0, 13), st.integers(0, 5), st.integers(-12, 1),
    st.sampled_from(["csv", "json"]),
)
@settings(max_examples=80, deadline=None)
def test_ifunction_builds_only_the_classes_that_reach_its_slice(zcoeff, max_q, max_t, min_v, fmt):
    # a class of degree e reaches the slice only for zcoeff - max_t <= e <=
    # zcoeff - min_v; the table equals the one built from every class of
    # degree up to zcoeff - min_v
    argv = ["ifunction", "--zcoeff", str(zcoeff), "--max-q", str(max_q), "--max-t", str(max_t)]
    argv += ["--min-v", str(min_v), "--format", fmt]
    extracted = []

    def recording(terms, m, window):
        extracted.extend(terms)
        return z_coeff_ladders(terms, m, window)

    with mock.patch.object(cli, "z_coeff_ladders", recording):
        floored = _outcome(argv)
    assert floored[0] == 0
    assert all(zcoeff - max_t <= -t.monomial.Z <= zcoeff - min_v for t in extracted)
    with mock.patch.object(cli, "surface_series_terms", unfloored_surface_terms):
        assert _outcome(argv) == floored


@given(
    st.integers(-1, 11), st.integers(0, 13), st.integers(0, 5), st.integers(-12, 1),
    st.sampled_from(["csv", "json"]),
)
@settings(max_examples=80, deadline=None)
def test_ifunction_matches_the_whole_table_oracle(zcoeff, max_q, max_t, min_v, fmt):
    # rows written rung by rung from the ladders of the classes in reverse
    # order, against every class's terms summed per monomial, sorted and
    # printed in one piece
    argv = ["ifunction", "--zcoeff", str(zcoeff), "--max-q", str(max_q), "--max-t", str(max_t)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--min-v", str(min_v), "--format", fmt]) == 0
    assert out.getvalue() == whole_ifunction_table(zcoeff, max_q, max_t, min_v, fmt)


def test_ifunction_json(capsys):
    assert main(["ifunction", "--zcoeff", "2", "--max-q", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        assert set(row) == {"t0_power", "q1_power", "q2_power", "v_power", "value"}


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotics_example_within_tolerance(capsys):
    assert main(["asymptotics", "--N", "1", "--l", "200"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "l,v_l,N,ratio,abs_error"
    l, v_l, n, ratio, abs_err = lines[1].split(",")
    assert (l, v_l, n) == ("200", "200.5", "1")
    assert abs(float(ratio) - 1.0) < 0.05
    assert float(abs_err) == abs(float(ratio) - 1.0)


def test_asymptotics_multiple_rows_in_order(capsys):
    assert main(["asymptotics", "--l", "100", "--l", "50", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["l"] for row in rows] == [100, 50]
    for row in rows:
        assert set(row) == {"l", "v_l", "N", "ratio", "abs_error"}


def test_asymptotics_csv_is_what_csv_writer_prints(capsys):
    # the CSV writer quotes nothing; no digest pins this table's bytes
    assert main(["asymptotics", "--l", "50", "--l", "400", "--N", "2", "--component", "1"]) == 0
    out = capsys.readouterr().out
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert buf.getvalue() == out


def _asymptotics_requests():
    """Every order N 0..5 at every l of the benchmark's grid, in both formats,
    for the second component and then for the first."""
    for component in ([], ["--component", "1"]):
        for N in range(6):
            for l in (100, 316, 1000, 3162, 10000, 31622, 100000):
                for fmt in ("csv", "json"):
                    yield ["asymptotics", "--N", str(N), "--l", str(l), "--format", fmt, *component]


# sha256 over every request's argv, exit code and stdout, recorded before
# the two excess components became one sum
ASYMPTOTICS_SHA256 = "0277fc24f66ff6057611defe9041acf14019ae384ac261b27aefef1d610c413f"


def test_asymptotics_rows_match_recorded_digest(capsys):
    """The asymptotics tables' bytes, rows that are known to be wrong included.

    The rows are libm floats, so the digest pins glibc's libm output: CI runs
    on Ubuntu only.  ROADMAP item 1 (the remainder form of the ratio) changes
    the large-l rows on purpose; it asks for this digest and re-records it.
    """
    digest = hashlib.sha256()
    for argv in _asymptotics_requests():
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == ASYMPTOTICS_SHA256

# ---------------------------------------------------------------------------


def test_output_file_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["check", "--max-q", "4", "--max-mu", "2", "--output"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["disk", "--max-q", "2048", "--max-t", "1", "--max-mu", "1"],  # mass budget 4097
        ["rhs", "--min-v", "2"],  # empty V range
        ["localize", "--degree", "4"],
        ["rhs", "--max-q", "2048", "--max-t", "1", "--max-mu", "1"],  # mass budget 4097
    ],
)
def test_refusal_writes_no_output_file(capsys, tmp_path, argv):
    # every refusal comes before the first byte: no file is created
    target = tmp_path / "table.txt"
    assert main([*argv, "--output", str(target)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_exits_2_without_traceback(capsys, tmp_path, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    assert main(["disk", "--max-q", "2", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


# sha256 of stdout at one mid window, recorded before the kernel fast path
# landed (the two check CSV tables: before check's CSV used the disk table
# writer), and of two graph-class tables, recorded before block skipping in
# the graph enumeration: any reordering or reformatting of a table, or any
# change of a class representative, fails here
GOLDEN_WINDOW = ["--max-q", "16", "--max-t", "6", "--max-mu", "6", "--min-v", "-14"]
IFUNCTION_WINDOW = ["--max-q", "16", "--max-t", "6", "--min-v", "-14"]
DISK_SHA256 = "c57fc637b6d03bdf482ea966097ed48ca278cb08705ad89f02ed6f7ff3519294"


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["disk"] + GOLDEN_WINDOW, 0, DISK_SHA256),
        (["rhs"] + GOLDEN_WINDOW, 0, DISK_SHA256),
        (
            ["check", "--format", "json"] + GOLDEN_WINDOW,
            0,
            "b01dfb089fd527fc3706c8f2cb579a0deb64d9edd137847f9c6a55bbe2e3ddb9",
        ),
        (
            ["check", "--corrupt-exc", "--format", "json"] + GOLDEN_WINDOW,
            1,
            "f76493c4f31f148973aece86e6a38d6f14f4e561cc6a29c6f10a2c7b2d7258cc",
        ),
        (
            ["check", "--format", "csv"] + GOLDEN_WINDOW,
            0,
            "e8ef49c85a8b6a4f83ba7b76cdc8d7f3ff172d1448b0874a3195d8777a0b87f3",
        ),
        (
            ["check", "--corrupt-exc", "--format", "csv"] + GOLDEN_WINDOW,
            1,
            "6d19bbac0705365458e5d19614fb63a0d7963218f54b177c4c9ff10efe711666",
        ),
        (
            ["ifunction"] + IFUNCTION_WINDOW,
            0,
            "e3613d34a85c7c268472db42a1b69fcbf9b673e8cb024a9e7b1476e05cd25b51",
        ),
        (
            ["localize", "--degree", "3", "--markings", "2"],
            0,
            "363bc011e64a7e0deff693b78494056a2b71374ba97b37d624df5eff2a26fc92",
        ),
        (
            ["localize", "--degree", "3", "--markings", "4", "--format", "json"],
            0,
            "2bcda67cdc0559bffef37cab970eb8c8cc1ea5b51ea3f1d96e8478a990d36781",
        ),
    ],
    ids=[
        "disk",
        "rhs",
        "check",
        "check-corrupt",
        "check-csv",
        "check-corrupt-csv",
        "ifunction",
        "localize-csv",
        "localize-json",
    ],
)
def test_stdout_matches_recorded_digest(capsys, argv, code, digest):
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def _outcome(argv, output=None):
    """(exit code, stdout, stderr, text of the file at ``output``) of one
    in-process call; the file is removed first, so None means none was written."""
    if output is not None and os.path.exists(output):
        os.remove(output)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if output is not None and os.path.exists(output):
        with open(output, encoding="utf-8") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


def _top_level(argv):
    """Every request parsed by the top-level parser alone."""
    return cli._build_parser()[0].parse_args(argv)


def test_reused_parser_carries_nothing_between_calls(tmp_path):
    # each pair probes state a shared parser could leak into the next call:
    # an appended list, a store_true flag, an output path, a usage error
    window = ["--max-q", "3", "--max-mu", "2"]
    table = tmp_path / "table.csv"
    sequence = [
        ["asymptotics", "--l", "100", "--l", "316"],
        ["asymptotics"],
        ["check", "--corrupt-exc"] + window,
        ["check"] + window,
        ["localize", "--degree", "2", "--output", str(table)],
        ["localize", "--degree", "2"],
        ["disk", "--not-a-flag"],
        ["disk"] + window,
    ]
    cli._build_parser.cache_clear()
    shared = [_outcome(argv, table) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, table))
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 0, 1, 0, 0, 0, 2, 0]
    assert [line.split(",")[0] for line in shared[1][1].splitlines()] == ["l", "200"]
    assert shared[4][1] == "" and shared[4][3] == shared[5][1] != ""


# one parse per request, with the top-level parser's outcome on every input
DISPATCH_CASES = [
    ["disk", "--max-q", "2", "--format", "json"],
    ["rhs", "--max-q", "2"],
    ["check", "--max-q", "2", "--format", "csv"],
    ["localize", "--degree", "2", "--markings", "1"],
    ["ifunction", "--max-q", "3"],
    ["asymptotics", "--l", "100", "--l", "316"],
    [],
    ["--help"],
    ["check", "--help"],
    ["frobnicate"],
    ["check", "--bogus"],
    ["disk", "--max-q", "x"],
    ["localize"],
    ["localize", "--markings", "1"],
    ["check", "--corrupt-exc", "--max-q", "2", "--max-mu", "1"],
    ["check", "--min-v", "-6", "--max-q", "3"],
    ["check", "--max-q=3"],
    ["check", "--max", "3"],
    ["check", "--format", "xml"],
    ["asymptotics", "--component", "3"],
    ["asymptotics", "--z", "-inf"],
    ["asymptotics", "--z", "-0.5"],
    ["disk", "--max-q", "-1"],
    ["disk", "--max-q", " 4 "],
    ["disk", "--max-q"],
]


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_dispatch_matches_the_top_level_parser(monkeypatch, argv):
    one_pass = _outcome(argv)
    monkeypatch.setattr(cli, "_parse", _top_level)
    assert _outcome(argv) == one_pass


def test_a_valid_request_skips_the_top_level_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._build_parser()[0], "parse_args", refuse)
    assert main(["localize", "--degree", "1"]) == 0
    assert capsys.readouterr().out.startswith("labels,edges,markings,aut,contribution\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["disk", "--max-q", "3", "--min-v", "-6", "--format", "json"],
        ["rhs", "--max-q", "2", "--max-mu", "2", "--max-q", "3"],
        ["check", "--corrupt-exc", "--max-q", "4", "--max-mu", "2", "--format", "csv"],
        ["localize", "--markings", "1", "--degree", "2"],
        ["localize", "--degree", "4"],
        ["ifunction", "--zcoeff", "-1", "--max-q", "3", "--min-v", "-3"],
        ["asymptotics", "--l", "100", "--l", "316", "--component", "1", "--q0", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_exact_request_reaches_no_argparse_parse(monkeypatch, argv):
    # exact flags, each with its value, a negative integer, a repeat, a
    # store_true and an append among them: read off the flag table alone
    with mock.patch.object(cli, "_parse", _top_level):
        want = _outcome(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed an exact request")

    parser, commands = cli._build_parser()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(commands[argv[0]].parser, "parse_known_args", refuse)
    assert _outcome(argv) == want


WINDOW_FLAGS = ["--max-q", "--max-t", "--max-mu", "--min-v"]
FORMAT_FLAGS = ["--format", "--output"]
FLAGS = {
    "disk": WINDOW_FLAGS + FORMAT_FLAGS,
    "rhs": WINDOW_FLAGS + FORMAT_FLAGS,
    "check": WINDOW_FLAGS + FORMAT_FLAGS + ["--corrupt-exc"],
    "localize": ["--degree", "--markings"] + FORMAT_FLAGS,
    "ifunction": ["--zcoeff", "--max-q", "--max-t", "--min-v"] + FORMAT_FLAGS,
    "asymptotics": ["--q0", "--q1", "--q2", "--z", "--N", "--l", "--component"] + FORMAT_FLAGS,
}
# values each flag accepts (none for a store_true flag); values an exact
# request leaves to argparse: starting with '-' but no plain negative
# integer, or a choice no flag offers; then values of every kind
OUTPUT = "table.out"  # relative: the test runs in its own directory
GOOD = {"--format": ["csv", "json"], "--component": ["1", "2"], "--output": [OUTPUT]}
GOOD["--corrupt-exc"] = []
NUMBERS = ["0", "1", "2", "3", "-1", "-2"]
ODD = ["-.5", "-1e3", "-inf", "--", "xml", "3"]
VALUES = NUMBERS + ODD + ["-0", "-0.5", "-x", "0.5", "nan", "x", "", " 4 ", "1_0", "csv", "json"]
LONE = ["-h", "--help", "--", "--bogus", "--max-q", "-x", "3", "check"]


@st.composite
def _requests(draw):
    """A subcommand and tokens.  Half are exact: each flag with a value it
    accepts, now and then an odd one instead.  The rest mix
    those with abbreviated and ``=`` flags, flags without a value or with a
    value of any kind, and lone tokens.  Every other value of ``--output``
    and its abbreviations names one file."""
    name = draw(st.sampled_from(sorted(FLAGS)))
    exact = draw(st.booleans())
    kinds = ["good"] if exact else ["good", "any", "abbrev", "equals", "bare", "lone"]
    argv = [name]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "lone":
            argv.append(draw(st.sampled_from(LONE)))
            continue
        flag = draw(st.sampled_from(FLAGS[name]))
        values = VALUES if kind != "good" and flag != "--output" else GOOD.get(flag, NUMBERS)
        if values and draw(st.integers(0, 2)) == 0:
            values = ODD
        value = draw(st.sampled_from(values)) if values else None
        if kind == "abbrev":
            flag = flag[: draw(st.integers(3, len(flag)))]
        if kind == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag] if kind == "bare" or value is None else [flag, value]
    return argv


@given(_requests())
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_every_request_has_the_top_level_parsers_outcome(monkeypatch, tmp_path, argv):
    # exit code, stdout, stderr and output file, whichever path parses it
    monkeypatch.chdir(tmp_path)  # where a stray value of --output lands

    one_pass = _outcome(argv, OUTPUT)
    with mock.patch.object(cli, "_parse", _top_level):
        assert _outcome(argv, OUTPUT) == one_pass, argv


def test_module_entry_reads_sys_argv():
    # python -m ocmirror.cli: main() parses sys.argv, as no in-process call does
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in (["localize", "--degree", "2", "--markings", "1"], ["check", "--max-q", "x"]):
        done = subprocess.run(
            [sys.executable, "-m", "ocmirror.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == _outcome(argv)[:3], argv


# ---------------------------------------------------------------------------
# seeded request sweep
# ---------------------------------------------------------------------------


def _sweep_requests(seed: int, count: int):
    """A fixed stream of small requests over every exact subcommand.

    Windows are drawn small and include empty ones (--max-q 0, --max-mu 0,
    --max-t 0); ``asymptotics`` stays out, since it prints libm floats.
    """
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(("disk", "rhs", "check", "check-corrupt", "ifunction", "localize"))
        fmt = ["--format", rng.choice(("csv", "json"))]
        if kind == "localize":
            degree, markings = rng.randint(1, 2), rng.randint(0, 2)
            yield ["localize", "--degree", str(degree), "--markings", str(markings)] + fmt
            continue
        window = [
            "--max-q", str(rng.choice((0, 1, 3, 6, 8, 10))),
            "--max-t", str(rng.randint(0, 4)),
            "--min-v", str(rng.randint(-10, 1)),
        ]
        if kind == "ifunction":
            yield ["ifunction", "--zcoeff", str(rng.randint(-1, 4))] + window + fmt
            continue
        window += ["--max-mu", str(rng.choice((0, 1, 2, 3, 4, 5)))]
        if kind == "check-corrupt":
            yield ["check", "--corrupt-exc"] + window + fmt
        else:
            yield [kind] + window + fmt


# sha256 over every request's argv, exit code and stdout, recorded before
# the right side's Kaehler map became a fixed monomial map
SWEEP_SHA256 = "9739911f21d901b6b5f107c50854efb3682c78675b4ef81c2871fc2283fd11fa"


def test_seeded_request_sweep_matches_recorded_digest(capsys):
    digest = hashlib.sha256()
    for argv in _sweep_requests(seed=12, count=200):
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == SWEEP_SHA256
