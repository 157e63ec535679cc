"""The README's library sketch: its imports resolve and its printed values hold."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_sketch_imports_and_printed_values(bb_certificate, bb_trajectory):
    lines = library_sketch().splitlines()
    imports = [line for line in lines if line.startswith(("import ", "from "))]
    exec("\n".join(imports), {})
    body = "\n".join(line for line in lines if line not in imports)
    for line in imports:
        if line.startswith("from bipbc import "):
            for name in line.split(" import ", 1)[1].split(","):
                assert re.search(rf"\b{name.strip()}\b", body), f"{name.strip()} is unused"
    # the sketch makes the calls of the bb_certificate and bb_trajectory fixtures
    c_p1, peak = re.search(r"# ([\d.]+), ([\d.]+)$", body, re.M).groups()
    _, cert = bb_certificate
    assert float(c_p1) == round(cert.c_p1, 2)
    assert float(peak) == round(float(np.max(bb_trajectory.p_norm)), 2)
