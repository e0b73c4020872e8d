"""Each demo script runs to completion in-process and prints exactly the
bytes pinned for it."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; a demo without an entry fails
DIGESTS = {
    "01_finite_fields":
        "da05cda123597866503a8db09c7ddc2073b48a5ad970d822efec84df1d8ffda0",
    "02_norm_trace_curve":
        "b53160bd045c0c6fd59604d3d063c1a30aa13b439801f118034ab19742fccefa",
    "03_multipoint_codes":
        "e8630dcb14ffbca24fd02120e2368e97c28844e0ac9ab216472bac4e2f7ba518",
    "04_automorphisms":
        "58c2affd037a774e48233ede6062d09b2dd3e9086b59a573f560651d7a1860bd",
    "05_separated_curves":
        "d1aa6ea3b776067da1bd35211371a57c68e003cdd2fa690fa14525c4f3aa3b53",
}


@pytest.mark.parametrize("path, digest",
                         [(p, DIGESTS.get(p.stem)) for p in DEMOS],
                         ids=[p.stem for p in DEMOS])
def test_demo_runs(path, digest, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
