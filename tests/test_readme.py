"""The README's library quick start runs as written, and the package
exports nothing beyond it, the matrix type and the errors."""

import re
from pathlib import Path

import eigenrecon

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
