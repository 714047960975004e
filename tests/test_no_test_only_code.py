"""`src/` holds no code that only tests call.

Every function, class, method and property defined in `netepi` must be
named somewhere else in the package, the demos or the benchmark, beyond
its own definitions. Public names (`netepi.__all__`) and dunders are
exempt. The check reads words, comments included, so it can miss a name
that only a comment mentions but never flags one that code uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import netepi

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "netepi").glob("*.py"))
READERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "benchmark").glob("*.py"))]


def _defined_names() -> Counter:
    defined = Counter()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
    return defined


def test_every_defined_name_is_read_outside_the_tests():
    text = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    words = Counter(re.findall(r"\w+", text))
    unread = sorted(
        name for name, count in _defined_names().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in netepi.__all__
        and words[name] <= count
    )
    assert unread == []
