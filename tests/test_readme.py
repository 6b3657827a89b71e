"""The README's library quick start runs as written, the package exports
nothing beyond it, the matrix type and the errors, the command line and
the checks keep their listed options and parameters, and the secular solves
take the shift t as an argument."""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import eigenrecon
from eigenrecon import cli, secular, squares, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert abs(namespace["table"].cell(0, 0) - 0.25) <= 1e-12


def test_public_api_is_pinned():
    assert sorted(eigenrecon.__all__) == [
        "BracketError", "ConvergenceError", "MatrixFormatError",
        "SymmetricMatrix", "deck", "eigh", "parse_matrix", "rank1_update",
        "square_table", "verify_gm",
    ]


def test_cli_surface_is_pinned():
    # A tolerance or sampling knob that comes back must change this list.
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    surface = {
        name: [option for action in parser._actions
               for option in action.option_strings or [action.dest]
               if action.dest != "help"]
        for name, parser in subparsers.choices.items()
    }
    assert surface == {
        "eig": ["matrix"],
        "deck": ["matrix"],
        "squares": ["matrix"],
        "rank1": ["matrix", "--x", "--t"],
        "det-check": ["matrix", "--x", "--t"],
        "gm-verify": ["matrix_a", "matrix_b", "--multiset-deck"],
        "tmain": ["matrix_a", "matrix_b"],
        "probe-tau": ["matrix_a", "matrix_b", "--index"],
    }


def test_check_signatures_are_pinned():
    # The library face of the same rule: a tolerance or sampling parameter
    # that comes back must change this list.
    checks = (verify.verify_gm, verify.verify_theorem_main,
              verify.probe_permutation_conjecture, secular.verify_det_identity,
              squares.compare_squares, secular.rank1_update)
    assert {f.__name__: list(inspect.signature(f).parameters) for f in checks} == {
        "verify_gm": ["A", "B", "multiset_deck"],
        "verify_theorem_main": ["A", "B"],
        "probe_permutation_conjecture": ["A", "B", "i"],
        "verify_det_identity": ["A", "x", "t"],
        "compare_squares": ["table_a", "table_b"],
        "rank1_update": ["basis", "x", "t"],
    }


def test_secular_shift_is_an_argument():
    # A secular system is the same at every shift; t must not come back as
    # its state.
    solves = (secular.build_secular, secular.secular_eval, secular.secular_roots,
              secular.lowest_update_pairs)
    assert {f.__name__: list(inspect.signature(f).parameters) for f in solves} == {
        "build_secular": ["basis", "x"],
        "secular_eval": ["sys", "t", "lam"],
        "secular_roots": ["sys", "t"],
        "lowest_update_pairs": ["sys", "ts"],
    }
    assert [f.name for f in dataclasses.fields(secular.SecularSystem)] == [
        "lambdas", "q", "projections", "a", "active", "active_poles", "active_weights"]
