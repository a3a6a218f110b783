import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import design_uncertainty
from design_uncertainty import save_design
from design_uncertainty.cli import _csv_body, _fmt, _parse_alphas, main
from design_uncertainty.designs import QuantumDesign


def write_bell_state(path):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    mat = np.outer(phi, phi)
    payload = {"dims": [2, 2],
               "matrix": [[[float(x), 0.0] for x in row] for row in mat]}
    path.write_text(json.dumps(payload))


def write_product_state(path):
    mat = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    payload = {"dims": [2, 2],
               "matrix": [[[float(x), 0.0] for x in row] for row in mat]}
    path.write_text(json.dumps(payload))


class TestVerify:
    def test_builtin_pass(self, capsys):
        assert main(["verify", "--design", "octahedron", "--t", "3"]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_octahedron_fails_t4(self, capsys):
        assert main(["verify", "--design", "octahedron", "--t", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0.00833333333333" in out  # 1/120 frame residual

    def test_missing_file_exit_2(self, capsys):
        assert main(["verify", "--design", "no_such.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_design_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2, "strength": 1,
                                   "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                               [[1.0, 0.0], [1.0, 0.0]]]}))
        assert main(["verify", "--design", str(bad), "--t", "2"]) == 2
        assert "vector" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [[True, False], ["1", 0]])
    def test_non_number_entry_exit_2(self, octahedron, tmp_path, capsys,
                                     pair):
        # vector 0 is (1, 0), so each pair would pass as the octahedron
        path = tmp_path / "design.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw["vectors"][0][0] = pair
        path.write_text(json.dumps(raw))
        assert main(["verify", "--design", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: design file {path}: entry {pair[0]!r} is not a " \
            f"number" in captured.err

    def test_saved_design_round_trip(self, tmp_path, octahedron):
        path = tmp_path / "oct.json"
        save_design(octahedron, path)
        assert main(["verify", "--design", str(path), "--t", "3"]) == 0


class TestSweep:
    def test_false_strength_exit_2(self, octahedron, tmp_path, capsys):
        # the octahedron is a 3-design; claiming 5 must not tabulate bounds
        path = tmp_path / "fake5.json"
        save_design(QuantumDesign(dimension=2, strength=5,
                                  vectors=octahedron.vectors), path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", str(path), "--points", "5",
                     "--output", str(out)]) == 2
        assert ("error: the design is not a 5-design: frame-potential "
                "residual 0.00833333333333 at s=4") in capsys.readouterr().err
        assert not out.exists()
        # tabulating at an order the design has is backed
        assert main(["sweep", "--design", str(path), "-s", "3", "--points",
                     "5", "--output", str(out)]) == 0

    def test_csv_endpoints_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", "octahedron", "--points", "50",
                     "--alphas", "6", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("beta_bar,bound_prior,bound_prop1,"
                            "bound_prop1_nr,bound_prop2_alpha6")
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(1 / 36, abs=1e-12)
        assert first[2] == pytest.approx(math.log(6), abs=1e-10)
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(1 / 18, abs=1e-12)

    def test_row_ordering_invariant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--design", "icosidodecahedron", "--points", "100",
              "--output", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            _, prior, prop1, nr = (float(x) for x in line.split(","))
            assert prop1 >= nr - 1e-12 >= prior - 2e-12

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--design", "icosahedron", "--points", "80",
                "--alphas", "5,10"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        assert main(["sweep", "--design", "octahedron", "--points", "5",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5 and "bound_prop1" in rows[0]

    def test_csv_cells_match_fmt(self, tmp_path, capsys):
        args = ["sweep", "--design", "icosahedron", "--points", "60",
                "--alphas", "5,10"]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--output", str(out)]) == 0
        assert main(args + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(rows[0])
        assert lines[1:] == [",".join(_fmt(x) for x in row.values())
                             for row in rows]

    def test_mub_grouping(self, tmp_path):
        out = tmp_path / "mub.csv"
        assert main(["sweep", "--design", "octahedron", "--grouping", "mub",
                     "--points", "20", "--output", str(out)]) == 0
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[0]) == pytest.approx(0.25, abs=1e-12)


EXTREME_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                  -3.5e300, 1.7976931348623157e308, math.inf, -math.inf,
                  math.nan]


CELLS = (st.floats(allow_nan=True, allow_infinity=True)
         | st.sampled_from(EXTREME_FLOATS))


@given(st.integers(1, 8).flatmap(lambda cols: st.lists(
    st.lists(CELLS, min_size=cols, max_size=cols), min_size=1, max_size=6)))
@example([EXTREME_FLOATS])
@example([EXTREME_FLOATS, EXTREME_FLOATS[::-1], [-0.0] * 10])
def test_row_template_matches_fmt(rows):
    # the sweep writes its CSV body with one %-template for the whole
    # table; each line must end in a newline and each cell read as _fmt
    # gives it
    text = _csv_body(np.array(rows, dtype=float))
    assert text.endswith("\n")
    assert [line.split(",") for line in text.splitlines()] == [
        [_fmt(x) for x in row] for row in rows]


def test_csv_body_of_empty_table():
    assert _csv_body(np.empty((0, 5))) == ""


def test_benchmark_sweep_csv_matches_fmt(tmp_path, capsys):
    # the shape of a timed sweep rep: 2,050 points of the
    # icosidodecahedron with one alpha column
    args = ["sweep", "--design", "icosidodecahedron", "--points", "2050",
            "--alphas", "10"]
    out = tmp_path / "sweep.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert main(args + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2050 and len(rows[0]) == 5
    expected = "".join(",".join(_fmt(x) for x in row.values()) + "\n"
                       for row in rows)
    assert out.read_text() == ",".join(rows[0]) + "\n" + expected


class TestAudit:
    def test_zero_violations(self, capsys):
        assert main(["audit", "--design", "octahedron", "--samples", "50",
                     "--seed", "7", "--alphas", "3,6,inf"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "saturation events: 1" in out  # forced maximally mixed state

    def test_grouped_audit(self, capsys):
        assert main(["audit", "--design", "octahedron", "--grouping", "mub",
                     "--samples", "30", "--seed", "1"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_large_alpha_no_warning(self):
        # sum p^500 underflows on the maximally mixed state; the kernel
        # takes the maximum out first, so nothing warns, even as an error
        proc = _fresh_run(["audit", "--design", "octahedron", "--samples",
                           "5", "--alphas", "500,inf"], "-X", "dev", "-W",
                          "error")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "violations: 0" in proc.stdout

    def test_huge_alpha_no_warning(self):
        # alpha ln beta_n and alpha ln max(p) would overflow a double
        proc = _fresh_run(["audit", "--design", "octahedron", "--samples",
                           "5", "--alphas", "1e308,1.7e308,inf"], "-X",
                          "dev", "-W", "error")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "violations: 0" in proc.stdout
        assert "nan" not in proc.stdout

    def test_alpha_below_s_exit_2(self, capsys):
        assert main(["audit", "--design", "octahedron", "--samples", "5",
                     "--alphas", "2"]) == 2
        captured = capsys.readouterr()
        assert "error: bound needs alpha >= t" in captured.err
        assert captured.out == ""


class TestSteering:
    def test_entangled_state_reports_violation(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        write_bell_state(state)
        assert main(["steering", "--state", str(state), "--design",
                     "octahedron", "--grouping", "mub"]) == 0
        out = capsys.readouterr().out
        assert "satisfied=False" in out
        assert "steering witnessed" in out

    def test_huge_alpha_mixed_state(self, tmp_path, capsys):
        state = tmp_path / "mixed.json"
        state.write_text(json.dumps({
            "dims": [2, 2], "matrix": [[[0.25 * (i == j), 0.0]
                                        for j in range(4)]
                                       for i in range(4)]}))
        assert main(["steering", "--state", str(state), "--design",
                     "octahedron", "--grouping", "mub", "--alpha",
                     "1.7e308"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and len(lines) == 2
        ln2 = _fmt(math.log(2))
        assert lines[0].startswith(f"renyi (alpha=1.7e308): lhs={ln2} ")
        assert all(line.endswith("satisfied=True") for line in lines)

    def test_large_alpha_mixed_state(self, tmp_path, capsys):
        state = tmp_path / "mixed.json"
        state.write_text(json.dumps({
            "dims": [2, 2], "matrix": [[[0.25 * (i == j), 0.0]
                                        for j in range(4)]
                                       for i in range(4)]}))
        assert main(["steering", "--state", str(state), "--design",
                     "octahedron", "--grouping", "mub", "--alpha",
                     "2000"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and len(lines) == 2
        ln2 = _fmt(math.log(2))
        assert lines[0].startswith(f"renyi (alpha=2000): lhs={ln2} ")
        assert all(line.endswith("satisfied=True") for line in lines)

    def test_product_state_satisfied(self, tmp_path, capsys):
        state = tmp_path / "prod.json"
        write_product_state(state)
        assert main(["steering", "--state", str(state), "--design",
                     "octahedron", "--grouping", "mub", "--alpha", "3"]) == 0
        out = capsys.readouterr().out
        assert "satisfied=False" not in out

    @pytest.mark.parametrize("scale, match", [(math.nan, "non-finite"),
                                              (2.0, "trace")])
    def test_non_density_state_exit_2(self, tmp_path, capsys, scale, match):
        mat = scale * np.eye(4) / 4
        state = tmp_path / "bad.json"
        state.write_text(json.dumps({
            "dims": [2, 2],
            "matrix": [[[float(x), 0.0] for x in row] for row in mat]}))
        assert main(["steering", "--state", str(state),
                     "--design", "octahedron"]) == 2
        assert match in capsys.readouterr().err

    def test_malformed_state_exit_2(self, tmp_path, capsys):
        state = tmp_path / "bad.json"
        state.write_text(json.dumps({"dims": [2, 2],
                                     "matrix": [[[1.0, 0.0]] * 2] * 2}))
        assert main(["steering", "--state", str(state),
                     "--design", "octahedron"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"dims": [2, 2], "matrix": [[[1.0, 0.0], 0.0, [0.0, 0.0], [0.0, 0.0]]]
         + [[[0.0, 0.0]] * 4] * 3},                  # a number for a pair
        {"dims": 2, "matrix": [[[0.25, 0.0]] * 4] * 4},
        # I/4 with entry (0, 0) as a string and a bool, and with a null
        {"dims": [2, 2], "matrix": [[["0.25", False]] + [[0.0, 0.0]] * 3]
         + [[[0.0, 0.0]] * i + [[0.25, 0.0]] + [[0.0, 0.0]] * (3 - i)
            for i in (1, 2, 3)]},
        {"dims": [2, 2], "matrix": [[[0.25, None]] + [[0.0, 0.0]] * 3]
         + [[[0.0, 0.0]] * i + [[0.25, 0.0]] + [[0.0, 0.0]] * (3 - i)
            for i in (1, 2, 3)]}])
    def test_malformed_state_file_exit_2(self, tmp_path, capsys, payload):
        state = tmp_path / "bad.json"
        state.write_text(json.dumps(payload))
        assert main(["steering", "--state", str(state),
                     "--design", "octahedron"]) == 2
        assert "error: malformed state file" in capsys.readouterr().err


@pytest.mark.parametrize("text, alphas", [
    ("inf", [math.inf]), ("Inf", [math.inf]), ("+inf", [math.inf]),
    ("infinity", [math.inf]), ("3,,6", [3.0, 6.0]),
    (" 3, inf ", [3.0, math.inf]), ("", [])])
def test_parse_alphas(text, alphas):
    assert _parse_alphas(text) == alphas


class TestIntegerFields:
    """JSON numbers that must be integers: a float, a bool or a null is an
    input error, never truncated by int()."""

    @pytest.mark.parametrize("grouping", [
        [[0, 1], [2, 3], [4, 5.7]], 5, [1, 2, 3, 4, 5, 6],
        [[0, 1], [2, 3], [4, None]]], ids=["5.7", "int", "flat", "null"])
    def test_grouping_file_exit_2(self, tmp_path, capsys, grouping):
        path = tmp_path / "grouping.json"
        path.write_text(json.dumps(grouping))
        assert main(["audit", "--design", "octahedron", "--grouping",
                     str(path), "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: grouping" in captured.err

    @pytest.mark.parametrize("field, value", [("strength", 3.9),
                                              ("strength", True),
                                              ("dimension", 2.0)])
    def test_design_file_exit_2(self, octahedron, tmp_path, capsys, field,
                                value):
        path = tmp_path / "design.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        assert main(["verify", "--design", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: design file {path}: {field} must be an integer" \
            in captured.err

    @pytest.mark.parametrize("dims", [[2.9, 2], [2, 2.0], [True, 4], [0, 4]])
    def test_state_dims_exit_2(self, tmp_path, capsys, dims):
        state = tmp_path / "state.json"
        write_bell_state(state)
        raw = json.loads(state.read_text())
        raw["dims"] = dims
        state.write_text(json.dumps(raw))
        assert main(["steering", "--state", str(state),
                     "--design", "octahedron"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dims must be two integers >= 1" in captured.err


# Calls run back to back in one process, sharing the cached parser and
# designs, against the same calls each run in a fresh interpreter.
REPEATED_CALLS = [
    ["audit", "--design", "octahedron", "--samples", "40", "--seed", "7"],
    ["audit", "--design", "octahedron", "--grouping", "mub", "--samples",
     "40", "--seed", "7", "--alphas", "3,6,inf"],
    ["sweep", "--design", "icosidodecahedron", "--points", "15",
     "--alphas", "10"],
    ["audit", "--design", "octahedron", "--samples", "40", "--seed", "7"],
]


def _fresh_run(argv, *flags):
    """The CLI run in a fresh interpreter started with flags."""
    src = Path(design_uncertainty.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "design_uncertainty.cli", *argv],
        capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=path))


def _fresh_process(argv):
    proc = _fresh_run(argv)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def fresh_outputs():
    return {tuple(argv): _fresh_process(argv) for argv in REPEATED_CALLS}


class TestRepeatedCalls:
    def test_back_to_back_match_fresh_processes(self, fresh_outputs, capsys):
        for argv in REPEATED_CALLS:
            code = main(argv)
            assert (code, capsys.readouterr().out) \
                == fresh_outputs[tuple(argv)]

    @pytest.mark.parametrize("bad", [
        ["audit", "--design", "octahedron", "--samples", "x"],
        ["sweep", "--design", "octahedron", "--points", "5", "--bogus"],
        ["audit"],
        ["nonesuch"]])
    def test_parse_failure_then_valid_call(self, fresh_outputs, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        for argv in REPEATED_CALLS[1:3]:
            code = main(argv)
            assert (code, capsys.readouterr().out) \
                == fresh_outputs[tuple(argv)]


def test_public_names_resolve():
    names = design_uncertainty.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(design_uncertainty, name), name
