"""Where the exact storage of a Matrix is read.

An exact matrix is integer numerators ``_num`` over one denominator ``_den``.
Only ``linalg`` reads and builds that storage, plus the two functions of
``reduction`` that lay out and recognise the gadget rows; every other module
goes through the ``linalg`` kernels. The test walks the source, so a new
reader shows up as a failure that names it.
"""

import ast
from pathlib import Path

import mpoly

STORAGE = {"_num", "_den", "_from_numerators"}
ALLOWED = {("reduction.py", "build_instance"), ("reduction.py", "instance_graph")}


def storage_readers() -> set:
    """(file, top-level definition) of every use of the exact storage
    outside linalg.py."""
    found = set()
    for path in sorted(Path(mpoly.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name in STORAGE:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_linalg_and_the_gadget_layout_read_exact_storage():
    assert storage_readers() <= ALLOWED
