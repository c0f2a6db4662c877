"""The frozen CLI corpus in tests/data/golden.json, and the script that
writes it.

Each case is one CLI call: its argv, where "{input}" stands for a file
holding the case's input text, and the stdout and exit code it gave when
the corpus was written.  The cases are

- one certificate per benchmark certify family (``perfbench/families.py``),
  on a seeded variant of the family's input, which covers every kind;
- two certificates in the old format that still carried the
  ``tietze_budget`` parameter, now checked by ``pdef verify``;
- ``lowindex`` (text, ``--json``, ``--normal``), ``abelianize``,
  ``simplify``, ``dump-table`` and ``rewrite`` on the presentations of
  ``tests/conftest.py``, and a few text-mode certificates;
- ``dump-table`` on (2,3,7;7) and the Coxeter presentation of S5, each
  written with inverse letters;
- ``certify p-large --json`` on the triangle groups (3,3,4) and (2,4,5)
  with p = 2 to index 16, and on P with p = 3 to index 27, where most
  candidate subgroups abelianize to free rank < 2.

``tests/test_golden.py`` replays every case.  A change that alters these
bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/golden.py

and justifies each diff; rerunning it to make a failure go away hides the
change the test exists to catch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from pdef.cli import main

DATA = Path(__file__).parent / "data" / "golden.json"


def run(argv, text):
    """(exit code, stdout) of ``pdef argv``, with "{input}" bound to a file
    holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        if text is not None:
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([path if a == "{input}" else a for a in argv])
    return code, out.getvalue()


def is_certificate(case) -> bool:
    """True when the case's stdout is a certificate's JSON."""
    return case["argv"][0] == "certify" and "--json" in case["argv"]


# finite groups written with inverse letters: b -> b^-1 in (2,3,7;7), of
# order 1092, and s2 -> s2^-1 in the Coxeter presentation of S5, whose
# involution s2 then has the relator s2^-2
_INVERSE_LETTER_TABLES = {
    "237_7/inverse-b": "gens: a, b\nrel: a^2\nrel: b^-3\nrel: (a*b^-1)^7\nrel: [a,b^-1]^7\n",
    "s5_coxeter/inverse-s2": (
        "gens: s1, s2, s3, s4\nrel: s1^2\nrel: s2^-2\nrel: s3^2\nrel: s4^2\n"
        "rel: (s1*s2^-1)^3\nrel: (s2^-1*s3)^3\nrel: (s3*s4)^3\n"
        "rel: (s1*s3)^2\nrel: (s1*s4)^2\nrel: (s2^-1*s4)^2\n"
    ),
}


# triangle groups <a, b | a^l, b^m, (ab)^n>, searched for a 2-power witness
_TRIANGLES = {
    "triangle_334": "gens: a, b\nrel: a^3\nrel: b^3\nrel: (a*b)^4\n",
    "triangle_245": "gens: a, b\nrel: a^2\nrel: b^4\nrel: (a*b)^5\n",
}


def _calls():
    """(name, argv, input) for every case, in manifest order."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
    from conftest import CORPUS_TEXTS, DINF_TEXT, P_TEXT, Q8_TEXT, RANK4_TEXT, S3_TEXT
    from families import FAMILIES

    for family, make in FAMILIES.items():
        job = make(family, random.Random(f"golden/{family}"))
        if job.certify:
            yield f"certify/{family}", ["{input}" if a == "-" else a for a in job.argv], job.stdin

    texts = {"P": P_TEXT, "DINF": DINF_TEXT, "S3": S3_TEXT, "RANK4": RANK4_TEXT, "Q8": Q8_TEXT}
    for i, text in enumerate(CORPUS_TEXTS):
        if text not in texts.values():
            texts[f"corpus{i}"] = text
    infinite = {"P", "DINF", "RANK4"}  # dump-table on these runs to the coset bound
    for name, text in texts.items():
        yield f"lowindex/{name}", ["lowindex", "--max-index", "3", "{input}"], text
        yield f"lowindex-json/{name}", ["lowindex", "--max-index", "3", "--json", "{input}"], text
        yield f"lowindex-normal/{name}", ["lowindex", "--normal", "--max-index", "4", "{input}"], text
        yield f"abelianize/{name}", ["abelianize", "{input}"], text
        yield f"simplify/{name}", ["simplify", "{input}"], text
        if name not in infinite:
            yield f"dump-table/{name}", ["dump-table", "{input}"], text
            yield f"rewrite/{name}", ["rewrite", "{input}"], text
    for gens in ("x1*x2", "(x1*x2)^4"):
        yield f"dump-table/DINF/{gens}", ["dump-table", "--subgroup-gens", gens, "{input}"], DINF_TEXT
        yield f"rewrite/DINF/{gens}", ["rewrite", "--subgroup-gens", gens, "{input}"], DINF_TEXT
    for name, text in _INVERSE_LETTER_TABLES.items():
        yield f"dump-table/{name}", ["dump-table", "{input}"], text
    yield "dump-table/P/exhausted", ["dump-table", "--max-cosets", "50", "{input}"], P_TEXT
    yield "rewrite/P/exhausted-json", ["rewrite", "--max-cosets", "50", "--json", "{input}"], P_TEXT
    for name, text in _TRIANGLES.items():
        argv = ["certify", "p-large", "-p", "2", "--max-index", "16", "--json", "{input}"]
        yield f"certify-p-large/{name}_p2_k16", argv, text
    argv = ["certify", "p-large", "-p", "3", "--max-index", "27", "--json", "{input}"]
    yield "certify-p-large/P_p3_k27", argv, P_TEXT
    yield "certify-text/p-large/P", ["certify", "p-large", "-p", "3", "{input}"], P_TEXT
    yield "certify-text/allcock/DINF", ["certify", "allcock", "--subgroup-gens", "x1*x2", "{input}"], DINF_TEXT
    yield "certify-text/p-large-def/S3", ["certify", "p-large-def", "-p", "2", "{input}"], S3_TEXT


def build() -> list[dict]:
    cases = []
    for name, argv, text in _calls():
        code, out = run(argv, text)
        cases.append({"name": name, "argv": argv, "input": text, "stdout": out, "exit": code})
    # the old format: identical to today's JSON but for this parameter
    for case in [c for c in cases if c["name"] in ("certify/free_quotient.rank4", "certify/p_large.triangle_power")]:
        d = json.loads(case["stdout"])
        d["parameters"]["tietze_budget"] = 4000
        old = json.dumps(d, indent=2, sort_keys=True) + "\n"
        code, out = run(["verify", "{input}"], old)
        name = f"verify-tietze-budget/{case['name']}"
        cases.append({"name": name, "argv": ["verify", "{input}"], "input": old, "stdout": out, "exit": code})
    return cases


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": build()}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
