"""Seeded contract sweep of the CLI's secular paths, in process.

Every input goes through ``rank1`` with ``--x ones`` and with a seeded
vector at each shift of ``SHIFTS``, and through ``tmain`` against itself.
Each run must exit 0-3. Exits 0 and 1 print standard JSON (no NaN or
Infinity); exits 2 and 3 print nothing on stdout and one ``error:`` line on
stderr. Eigenvalues of an exit-0 ``rank1`` match numpy's, and its vectors
meet the residual bound of acceptance criterion 3, except the known defect
pinned in ``RESIDUAL_OVER_BOUND``. No RuntimeWarning may be raised, except
the known defect pinned in ``INVALID_REDUCE``.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest

from eigenrecon import cli, core
from test_cli import strict_json

SHIFTS = ("1", "3", "-3", "1e-6", "-1e-6", "-1e-300", "1e300", "-1e300", "2.5e307")


def sweep_inputs():
    """Uniform, zero, graded diag(1 ... 1e-300), clustered diag(1 + 1e-9 k)
    and 1e-310-scaled uniform matrices at n = 1, 2, 3, 5 and 8, then uniform
    n = 5 matrices at six scales."""
    rng = np.random.default_rng(5)

    def uniform(n):
        m = rng.uniform(-1, 1, (n, n))
        return (m + m.T) / 2

    inputs = {}
    for n in (1, 2, 3, 5, 8):
        inputs[f"uniform-{n}"] = uniform(n)
        inputs[f"zero-{n}"] = np.zeros((n, n))
        inputs[f"graded-{n}"] = np.diag(np.logspace(0, -300, n))
        inputs[f"clustered-{n}"] = np.diag(1.0 + 1e-9 * np.arange(n))
        inputs[f"1e-310-{n}"] = 1e-310 * uniform(n)
    m = uniform(5)
    for scale, factor in (("1e150", 1e150), ("1e-150", 1e-150), ("1e300", 1e300),
                          ("1e-300", 1e-300), ("4^100", 4.0 ** 100), ("1e6", 1e6)):
        inputs[f"{scale}-5"] = factor * m
    return inputs


INPUTS = sweep_inputs()

# Item 3 of ROADMAP.md: next to a pole a term t*w/(pole - lam) of P_t
# overflows and inf - inf is NaN, so numpy warns "invalid value encountered
# in reduce" and the run exits 3 (on the command line the warning adds lines
# to stderr). Exactly these (input, x, t) runs do so.
INVALID_REDUCE = {
    *((f"clustered-{n}", x, t) for n in (2, 3, 5, 8) for x in ("ones", "x")
      for t in ("1e300", "-1e300", "2.5e307")),
    ("uniform-5", "ones", "2.5e307"), ("uniform-5", "x", "2.5e307"),
    ("uniform-8", "ones", "2.5e307"), ("graded-8", "ones", "2.5e307"),
}

# Item 3 of ROADMAP.md: exactly these exit-0 rank1 runs emit vectors past the
# residual bound, clustered poles by 139-6,230x, 1e-310 scales by 2.4e4-3.3e7x
# and uniform-8 at 2.5e307 by 6.2e5x. Every other run is within 0.0055x.
RESIDUAL_OVER_BOUND = {
    *((f"clustered-{n}", x, t) for n in (2, 3, 5, 8) for x in ("ones", "x")
      for t in ("1", "3", "-3")),
    *((f"1e-310-{n}", x, "-1e-300") for n in (2, 3, 5, 8) for x in ("ones", "x")),
    ("uniform-8", "x", "2.5e307"),
}


def run(argv):
    """Exit code, stdout, stderr and RuntimeWarning messages of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = cli.main(argv)
    messages = {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}
    return code, out.getvalue(), err.getvalue(), messages


def residual_ratio(a, x, t: float, payload) -> float:
    """Worst ||M v - mu v|| over the emitted vectors, in units of criterion
    3's bound 1e-8 * (n * max|A| + |t| * x.x). A, t and each mu are first
    scaled by one power of two, which leaves the ratio as it is, so that
    neither the residual nor the bound overflows."""
    values = [e["value"] for e in payload["eigenvalues"]]
    e = int(np.frexp(max(np.max(np.abs(a)), abs(t), *map(abs, values)))[1])
    a, t = np.ldexp(a, -e), float(np.ldexp(t, -e))
    m = a + t * np.outer(x, x)
    bound = 1e-8 * (len(a) * np.max(np.abs(a)) + abs(t) * float(x @ x))
    return max((float(np.linalg.norm(m @ v - np.ldexp(mu, -e) * np.asarray(v))) / bound
                for mu, v in zip(values, payload["vectors"]) if v is not None), default=0.0)


def check_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        return strict_json(out)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    return None


@pytest.mark.parametrize("name", INPUTS)
def test_secular_paths_keep_the_cli_contract(tmp_path, name):
    a = INPUTS[name]
    n = len(a)
    path = tmp_path / "a.txt"
    path.write_text(core.format_matrix(core.SymmetricMatrix.from_array(a)))
    seeded = np.random.default_rng(5).uniform(-1, 1, n)
    x_path = tmp_path / "x.txt"
    x_path.write_text(core.format_vector(seeded))
    warned, over = set(), set()
    for x_name, x_arg, x in (("ones", "ones", np.ones(n)), ("x", str(x_path), seeded)):
        for t in SHIFTS:
            code, out, err, messages = run(["rank1", str(path), "--x", x_arg, f"--t={t}"])
            payload = check_contract(code, out, err)
            if messages:
                assert messages == {"invalid value encountered in reduce"}
                assert code == 3
                warned.add((name, x_name, t))
            if code == 0:
                got = [e["value"] for e in payload["eigenvalues"]]
                want = np.linalg.eigvalsh(a + float(t) * np.outer(x, x))[::-1]
                spread = float(want[0]) - float(want[-1])
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-9 * max(1.0, spread)
                if residual_ratio(a, x, float(t), payload) > 1.0:
                    over.add((name, x_name, t))
    assert warned == {r for r in INVALID_REDUCE if r[0] == name}
    assert over == {r for r in RESIDUAL_OVER_BOUND if r[0] == name}
    code, out, err, messages = run(["tmain", str(path), str(path)])
    check_contract(code, out, err)
    assert not messages
