import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenrecon import cli, core, squares

SWAP = "2\n0 1\n1 0\n"
P3 = "3\n0 1 0\n1 0 1\n0 1 0\n"
ZERO2 = "2\n0 0\n0 0\n"


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eig_json(matrix_file, capsys):
    code, out = run(capsys, "eig", matrix_file("a.txt", SWAP))
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalues"]["values"] == pytest.approx([1.0, -1.0],
                                                             abs=1e-14)


def test_deck_json(matrix_file, capsys):
    code, out = run(capsys, "deck", matrix_file("a.txt", P3))
    assert code == 0
    payload = json.loads(out)
    assert payload["cards"][1]["values"] == [0.0, 0.0]


def test_squares_p3_closed_form(matrix_file, capsys):
    code, out = run(capsys, "squares", matrix_file("a.txt", P3))
    assert code == 0
    payload = json.loads(out)
    assert payload["table"][0][0] == pytest.approx(0.25, abs=1e-12)
    assert set(payload) == {"n", "simple", "table", "warnings"}


def test_rank1_ones_shorthand(matrix_file, capsys):
    code, out = run(capsys, "rank1", matrix_file("a.txt", ZERO2),
                    "--x", "ones", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    values = [e["value"] for e in payload["eigenvalues"]]
    assert values == pytest.approx([2.0, 0.0], abs=1e-12)


def test_rank1_vector_file(matrix_file, capsys):
    x = matrix_file("x.txt", "2\n1 0\n")
    code, out = run(capsys, "rank1", matrix_file("a.txt", "2\n2 0\n0 0\n"),
                    "--x", x, "--t", "-1")
    assert code == 0
    values = [e["value"] for e in json.loads(out)["eigenvalues"]]
    assert values == pytest.approx([1.0, 0.0], abs=1e-12)


def test_det_check_passes(matrix_file, capsys):
    code, out = run(capsys, "det-check", matrix_file("a.txt", P3),
                    "--x", "ones", "--t", "-0.4")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_det_check_at_extreme_scale(matrix_file, capsys):
    # det(A - lam*I) overflows near 1e160; the identity must still hold,
    # reported as standard JSON (NaN or Infinity would be rejected here).
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    a = matrix_file("a.txt", "2\n3e160 1e160\n1e160 -2e160\n")
    code, out = run(capsys, "det-check", a, "--x", "ones", "--t", "-0.5")
    payload = json.loads(out, parse_constant=reject)
    assert code == 0
    assert payload["pass"] is True


def test_gm_verify_self(matrix_file, capsys):
    a = matrix_file("a.txt", P3)
    code, out = run(capsys, "gm-verify", a, a)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_gm_verify_mismatch_fails(matrix_file, capsys):
    a = matrix_file("a.txt", P3)
    b = matrix_file("b.txt", "3\n0 1 0\n1 0.001 1\n0 1 0\n")
    code, out = run(capsys, "gm-verify", a, b)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_tmain(matrix_file, capsys):
    # The lowest cluster of P3 is main: the 16 default shifts alone.
    a = matrix_file("a.txt", P3)
    code, out = run(capsys, "tmain", a, a)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 16


def test_tmain_fails_a_switched_triangle(matrix_file, capsys):
    # K3 and D K3 D, D = diag(-1, 1, 1), share spectra and decks, but the
    # lowest eigenvalue -1 of K3 is double and not main: t* = -1 - 2^-52,
    # so every default shift lies in (t*, 0) and is inconclusive. Only the
    # derived shift 2 t* tells the pair apart.
    a = matrix_file("a.txt", "3\n0 1 1\n1 0 1\n1 1 0\n")
    b = matrix_file("b.txt", "3\n0 -1 -1\n-1 0 1\n-1 1 0\n")
    code, out = run(capsys, "tmain", a, b)
    payload = strict_json(out)
    assert code == 1
    assert payload["pass"] is False and payload["conclusive"] == 1
    [failed] = [r for r in payload["samples"] if r["conclusive"]]
    assert failed["t"] == 2 * (-1 - 2.0 ** -52)
    assert failed["angle"] == pytest.approx(0.111, abs=1e-3)


def test_probe_tau(matrix_file, capsys):
    a = matrix_file("a.txt", "2\n1 0\n0 2\n")
    b = matrix_file("b.txt", "2\n2 0\n0 1\n")
    code, out = run(capsys, "probe-tau", a, b, "--index", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["permutation"] == [1, 0]


def strict_json(out):
    """One report parsed as standard JSON: NaN and Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(out, parse_constant=reject)


def test_gm_verify_different_cluster_structures_is_strict_json(matrix_file, capsys):
    # I2 has one cluster, diag(1, 2) two: no projection distance exists.
    a = matrix_file("a.txt", "2\n1 0\n0 1\n")
    b = matrix_file("b.txt", "2\n1 0\n0 2\n")
    code, out = run(capsys, "gm-verify", a, b)
    assert code == 1
    assert strict_json(out)["projections"] == [
        {"value": None, "distance": None, "pass": False,
         "note": "cluster structures differ"}]


def test_probe_tau_miss_is_strict_json(matrix_file, capsys):
    a = matrix_file("a.txt", "2\n1 0\n0 2\n")
    b = matrix_file("b.txt", "2\n2 1\n1 0\n")
    code, out = run(capsys, "probe-tau", a, b, "--index", "0")
    payload = strict_json(out)
    assert code == 1
    assert payload["found"] is False and payload["distance"] is None
    assert payload["min_distance"] > 1e-8


def test_tmain_without_secular_vector_is_strict_json(matrix_file, capsys):
    # The lowest eigenvector of P4 is orthogonal to 1: for t in (t*, 0) its
    # eigenvalue is retained and lowest, and there is no secular vector.
    a = matrix_file("a.txt", "4\n0 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 0\n")
    code, out = run(capsys, "tmain", a, a)
    samples = strict_json(out)["samples"]
    assert code == 0
    t_star = min(r["t"] for r in samples) / 2
    assert [r["secular_angle"] is None for r in samples] == [
        r["t"] > t_star for r in samples]
    # t* = -0.7236: 12 of the 16 default shifts, and t*/2 from each matrix.
    assert sum(r["secular_angle"] is None for r in samples) == 14


def test_unparseable_exits_2(matrix_file, capsys):
    code, _ = run(capsys, "eig", matrix_file("a.txt", "2\n0 1\n1"))
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _ = run(capsys, "eig", "/nonexistent/never.txt")
    assert code == 2


def test_dimension_mismatch_exits_2(matrix_file, capsys):
    a = matrix_file("a.txt", P3)
    x = matrix_file("x.txt", "2\n1 1\n")
    code, _ = run(capsys, "rank1", a, "--x", x, "--t", "1")
    assert code == 2


def test_deterministic_output(matrix_file, capsys):
    a = matrix_file("a.txt", P3)
    _, out1 = run(capsys, "gm-verify", a, a)
    _, out2 = run(capsys, "gm-verify", a, a)
    assert out1 == out2


def test_emitted_matrix_roundtrips():
    rng = np.random.default_rng(33)
    m = rng.uniform(-1, 1, (4, 4))
    A = core.SymmetricMatrix.from_array((m + m.T) / 2)
    B = core.parse_matrix(core.format_matrix(A))
    assert np.array_equal(A.entries, B.entries)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_matrix_exits_2(matrix_file, capsys, entry):
    a = matrix_file("a.txt", f"2\n0 {entry}\n{entry} 0\n")
    code = cli.main(["eig", a])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["deck", "squares", "gm-verify"])
def test_one_by_one_matrix_has_no_deck(matrix_file, capsys, command):
    a = matrix_file("a.txt", "1\n5\n")
    code = cli.main([command, a] + ([a] if command == "gm-verify" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: deck requires n >= 2\n"


def test_non_finite_vector_exits_2(matrix_file, capsys):
    x = matrix_file("x.txt", "3\n1 inf 0\n")
    code = cli.main(["rank1", matrix_file("a.txt", P3), "--x", x, "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["rank1", "{a}", "--x", "ones", "--t", "nan"],
                 "t must be finite", id="rank1-t-nan"),
    pytest.param(["rank1", "{a}", "--x", "ones", "--t", "inf"],
                 "t must be finite", id="rank1-t-inf"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "nan"],
                 "t must be finite", id="det-check-t-nan"),
    pytest.param(["probe-tau", "{a}", "{a}", "--index", "9"],
                 "out of range", id="probe-tau-index-9"),
    pytest.param(["probe-tau", "{a}", "{a}", "--index", "-1"],
                 "out of range", id="probe-tau-index-minus-1"),
])
def test_hostile_flag_exits_2(matrix_file, capsys, argv, message):
    a = matrix_file("a.txt", P3)
    code = cli.main([arg.format(a=a) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


def test_tmain_shift_past_float_max_is_named(matrix_file, capsys):
    # The matrix is finite; A + t*J at the first default shift is not. The
    # error used to blame the input.
    big = matrix_file("big.txt", "2\n-1.7e308 0\n0 -1.7e308\n")
    code = cli.main(["tmain", big, big])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: A + t*J is not finite at t = -1.692359552741477e+308\n"


@pytest.mark.parametrize("text, pole", [
    pytest.param("2\n5e-324 0\n0 5e-324\n", "5e-324", id="5e-324-I2"),
    pytest.param("3\n0 1e-323 1e-323\n1e-323 0 1e-323\n1e-323 1e-323 0\n",
                 "2e-323", id="1e-323-K3"),
])
def test_tmain_underflowed_shifts_are_dropped(matrix_file, capsys, text, pole):
    # In the unit 2^-1074 the smaller default shifts round to -0.0, which
    # used to exit 2 blaming the input ("t must be negative and finite").
    # The shifts left reach the secular solver's subnormal limit instead.
    a = matrix_file("a.txt", text)
    code = cli.main(["tmain", a, a])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: could not open a bracket at pole y = {pole}\n"


def test_squares_warnings_on_stderr(matrix_file, capsys, monkeypatch):
    def inconsistent(A):
        d = core.deck(A)
        spec = core.cluster_spectrum([0.5, 0.0, -0.5])
        return squares.square_table_from_deck(
            dataclasses.replace(d, parent=dataclasses.replace(d.parent, spectrum=spec)))

    monkeypatch.setattr(squares, "square_table", inconsistent)
    code = cli.main(["squares", matrix_file("a.txt", P3)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("warning: negative_square in column 0: -1.5")
    assert lines[3].startswith("warning: column_sum in column 1: 8")
    assert len(json.loads(captured.out)["warnings"]) == 7


@pytest.mark.parametrize("argv", [
    pytest.param(["rank1", "{a}", "--x", "ones", "--t", "-0.5", "--deflate-tol", "0.3"],
                 id="rank1-deflate-tol"),
    pytest.param(["gm-verify", "{a}", "{a}", "--cluster-tol", "5"],
                 id="gm-verify-cluster-tol"),
    pytest.param(["eig", "{a}", "--cluster-tol", "5"], id="eig-cluster-tol"),
    pytest.param(["deck", "{a}", "--cluster-tol", "5"], id="deck-cluster-tol"),
    pytest.param(["squares", "{a}", "--cluster-tol", "5"], id="squares-cluster-tol"),
    pytest.param(["rank1", "{a}", "--x", "ones", "--t", "-0.5", "--cluster-tol", "5"],
                 id="rank1-cluster-tol"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "-0.5",
                  "--cluster-tol", "5"], id="det-check-cluster-tol"),
    pytest.param(["eig", "{a}", "--format", "text"], id="eig-format-text"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "-0.4", "--probes", "0"],
                 id="det-check-probes-0"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "-0.4", "--probes", "-3"],
                 id="det-check-probes-minus-3"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "-0.4", "--seed", "1"],
                 id="det-check-seed"),
    pytest.param(["det-check", "{a}", "--x", "ones", "--t", "-0.4", "--tol", "1e-9"],
                 id="det-check-tol"),
    pytest.param(["gm-verify", "{a}", "{a}", "--tol", "nan"], id="gm-verify-tol-nan"),
    pytest.param(["tmain", "{a}", "{a}", "--tol", "-1"], id="tmain-tol-minus-1"),
    pytest.param(["probe-tau", "{a}", "{a}", "--tol", "nan"], id="probe-tau-tol-nan"),
])
def test_removed_flag_exits_2(matrix_file, capsys, argv):
    a = matrix_file("a.txt", P3)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(a=a) for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_solver_failure_exits_3(matrix_file, capsys):
    # At 1e6 scale a 1e-6 update leaves no float between some pole and its
    # root, so no secular bracket can be opened there.
    rng = np.random.default_rng(10)
    m = rng.uniform(-1, 1, (8, 8))
    a = matrix_file("a.txt", core.format_matrix(
        core.SymmetricMatrix.from_array(1e6 * (m + m.T) / 2)))
    x = matrix_file("x.txt", core.format_vector(rng.uniform(-1, 1, 8)))
    code = cli.main(["rank1", a, "--x", x, "--t", "1e-6"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "could not open a bracket" in captured.err


# One valid command line per subcommand, every one of its flags at its default.
VALID_ARGV = {
    "eig": ["eig", "{a}"],
    "deck": ["deck", "{a}"],
    "squares": ["squares", "{a}"],
    "rank1": ["rank1", "{a}", "--x", "ones", "--t", "-0.5"],
    "det-check": ["det-check", "{a}", "--x", "ones", "--t", "-0.4"],
    "gm-verify": ["gm-verify", "{a}", "{a}"],
    "tmain": ["tmain", "{a}", "{a}"],
    "probe-tau": ["probe-tau", "{a}", "{a}"],
}
SUBCOMMANDS = next(action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))


# A parsed value that its handler never reads is a flag the CLI accepts and
# silently ignores.
@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_every_flag_is_read(matrix_file, capsys, subcommand):
    reads = set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    a = matrix_file("a.txt", P3)
    argv = [arg.format(a=a) for arg in VALID_ARGV[subcommand]]
    args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
    reads.clear()
    assert args.func(args) == 0
    capsys.readouterr()
    assert set(vars(args)) - {"func"} - reads == set()


def flags(node):
    """Every "pass" and "found" value in a JSON report, in document order."""
    if isinstance(node, dict):
        own = [node[k] for k in ("pass", "found") if k in node]
        return own + [f for v in node.values() for f in flags(v)]
    if isinstance(node, list):
        return [f for v in node for f in flags(v)]
    return []


def test_checks_do_not_depend_on_units(matrix_file, capsys):
    # Scaling by 4^k is exact, so every verdict of the four checks must be
    # the same as at scale 1, on a pair within rounding noise of each other
    # and on a pair 1e-3 apart.
    rng = np.random.default_rng(9)
    m = rng.uniform(-1, 1, (5, 5))
    noise = rng.uniform(-1, 1, (5, 5))
    a = (m + m.T) / 2
    close = a + 1e-12 * (noise + noise.T)
    bumped = a.copy()
    bumped[0, 0] += 1e-3
    x = matrix_file("x.txt", core.format_vector(rng.uniform(-1, 1, 5)))
    outcomes = {}
    for k in (0, -5, 5, -20, 20, -100, 100):
        def write(name, entries):
            return matrix_file(f"{name}{k}.txt", core.format_matrix(
                core.SymmetricMatrix.from_array(np.ldexp(entries, 2 * k))))

        fa = write("a", a)
        runs = [["det-check", fa, "--x", x, f"--t={float(np.ldexp(-0.7, 2 * k))!r}"]]
        for other in (write("close", close), write("bumped", bumped)):
            runs += [["gm-verify", fa, other], ["tmain", fa, other],
                     ["probe-tau", fa, other, "--index", "1"]]
        outcomes[k] = []
        for argv in runs:
            code, out = run(capsys, *argv)
            outcomes[k].append((argv[0], code, flags(json.loads(out))))
    assert [code for _, code, _ in outcomes[0]] == [0, 0, 0, 0, 1, 1, 1]
    for k in outcomes:
        assert outcomes[k] == outcomes[0], k


def test_eig_near_float_max(matrix_file, capsys):
    # (M + M^T) / 2 would overflow here; both eigenvalues come back exactly.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out = run(capsys, "eig", matrix_file("a.txt", "2\n1e308 0\n0 5e307\n"))
    payload = json.loads(out, parse_constant=reject)
    assert code == 0
    assert payload["eigenvalues"] == {"values": [1e308, 5e307], "clusters": [[0], [1]]}


def test_rank1_near_float_max(matrix_file, capsys):
    # The bisection midpoint used to overflow here and print Infinity.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out = run(capsys, "rank1", matrix_file("a.txt", "1\n1e308\n"),
                    "--x", "ones", "--t", "1e300")
    payload = json.loads(out, parse_constant=reject)
    assert code == 0
    assert payload["eigenvalues"][0]["value"] == pytest.approx(1.00000001e308, rel=1e-13)
    assert payload["vectors"] == [[1.0]]


def test_rank1_non_finite_root_exits_3(matrix_file, capsys):
    # The eigenvalue 1e308 * (1 + sqrt 2) lies past the float range: one
    # error line instead of Infinity and NaN with exit 0.
    a = matrix_file("a.txt", "2\n1e308 0\n0 -1e308\n")
    code = cli.main(["rank1", a, "--x", "ones", "--t=1e308"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "not finite" in captured.err


@pytest.mark.parametrize("diagonal, t", [
    ((1e308, 1e308), 2.5e307),
    ((1e308, -1e308), 1e300),
    ((1e308, -1e308), -1e300),
])
def test_rank1_root_below_lowest_pole_near_float_max(matrix_file, capsys, diagonal, t):
    # The search below the lowest pole used to step past -inf and exit 3,
    # although every eigenvalue is finite.
    A = core.SymmetricMatrix.from_array(np.diag(diagonal))
    code, out = run(capsys, "rank1", matrix_file("a.txt", core.format_matrix(A)),
                    "--x", "ones", f"--t={t}")
    assert code == 0
    expected = 1e308 * np.linalg.eigvalsh(np.diag(diagonal) / 1e308 + t / 1e308)[::-1]
    values = [e["value"] for e in json.loads(out)["eigenvalues"]]
    assert values == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("subcommand", ["tmain", "gm-verify"])
def test_subnormal_pair_verifies_against_itself(matrix_file, capsys, subcommand):
    # The secular root of 1e-310 * I3 + t * J lies a subnormal distance
    # from its pole; its eigenvector used to come out not finite (exit 3).
    a = matrix_file("a.txt", "3\n1e-310 0 0\n0 1e-310 0\n0 0 1e-310\n")
    code, out = run(capsys, subcommand, a, a)
    assert code == 0
    assert json.loads(out)["pass"] is True


SPREAD_PAST_FLOAT_MAX = core.format_matrix(core.SymmetricMatrix.from_array(
    np.diag([1.7e308, 1.7e308, 1e308, -1.7e308, -1.7e308])))
EXTREME_SCALES = [
    pytest.param("2\n1e308 0\n0 1e308\n", id="1e308-I2"),
    pytest.param("3\n1.7e308 0 0\n0 1.7e308 0\n0 0 1.7e308\n", id="1.7e308-I3"),
    pytest.param("3\n1e-310 0 0\n0 1e-310 0\n0 0 1e-310\n", id="1e-310-I3"),
    pytest.param(SPREAD_PAST_FLOAT_MAX, id="spread-past-float-max"),
]


def test_squares_spread_past_float_max(matrix_file, capsys):
    # lambda_1 - lambda_5 = 3.4e308 overflowed every factor: an all-null
    # table with a column_sum warning (exit 1), and RuntimeWarnings.
    code, out = run(capsys, "squares", matrix_file("a.txt", SPREAD_PAST_FLOAT_MAX))
    assert code == 0
    payload = strict_json(out)
    assert payload["simple"] == [2] and payload["warnings"] == []
    assert [row[2] for row in payload["table"]] == [0.0, 0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("text", EXTREME_SCALES)
def test_gm_verify_extreme_scales_against_itself(matrix_file, capsys, text):
    # gm-verify forms no A + t*J, so the default shifts 2^e * (-1, -1/16]
    # no longer push an eigenvalue past the float range (exit 3).
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    a = matrix_file("a.txt", text)
    code, out = run(capsys, "gm-verify", a, a)
    assert code == 0
    assert json.loads(out, parse_constant=reject)["pass"] is True


@pytest.mark.parametrize("text", EXTREME_SCALES[:2])
def test_tmain_default_shifts_past_float_max_exit_3(matrix_file, capsys, text):
    # The sampled check solves A + t*J, whose lowest eigenvalue at the
    # default shifts lies past the float range here.
    a = matrix_file("a.txt", text)
    code = cli.main(["tmain", a, a])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: an eigenvalue lies beyond the float range\n"


@pytest.mark.parametrize("subcommand", ["eig", "deck", "squares"])
def test_eigenvalue_past_float_max_exits_3(matrix_file, capsys, subcommand):
    # The eigenvalue 2e308 used to print as Infinity with exit 0.
    a = matrix_file("a.txt", "2\n1e308 1e308\n1e308 1e308\n")
    code = cli.main([subcommand, a])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: an eigenvalue lies beyond the float range\n"


@pytest.mark.parametrize("t", ["1e300", "-1e300"])
def test_rank1_repeated_eigenvalue_near_float_max(matrix_file, capsys, t):
    # The pole of the double eigenvalue 1e308 used to overflow to inf.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out = run(capsys, "rank1", matrix_file("a.txt", "2\n1e308 0\n0 1e308\n"),
                    "--x", "ones", f"--t={t}")
    payload = json.loads(out, parse_constant=reject)
    assert code == 0
    expected = np.linalg.eigvalsh(1e308 * np.eye(2) + float(t) * np.ones((2, 2)))
    values = [e["value"] for e in payload["eigenvalues"]]
    assert values == pytest.approx(expected[::-1], rel=1e-13)


@pytest.mark.parametrize("argv, loaded", [
    (["eig"], set()),
    (["deck"], set()),
    (["squares"], {"squares"}),
    (["rank1", "--x", "ones", "--t", "-0.5"], {"secular"}),
])
def test_subcommand_imports_only_what_it_runs(matrix_file, argv, loaded):
    # One process, as a user runs it: -X importtime lists every module it
    # imports on stderr.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "eigenrecon.cli", argv[0],
         matrix_file("a.txt", P3), *argv[1:]],
        capture_output=True, text=True, env=env, check=True)
    json.loads(proc.stdout)
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    assert "eigenrecon.core" in modules
    submodules = {"secular", "squares", "verify"}
    assert {m for m in submodules if f"eigenrecon.{m}" in modules} == loaded
