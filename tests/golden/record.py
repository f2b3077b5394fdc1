"""Rewrite cli.json, the byte-for-byte pin of every CLI output, from itself.

Each case's argv runs through `virab.cli.main` in a temporary directory
holding the corpus documents, with COLUMNS=80 and both elapsed fields
zeroed, and its exit code, stdout and stderr are written back. After
adding a case (its argv, and any document it reads) or changing CLI
output on purpose, run from the repository root and review the diff:

    PYTHONPATH=src python tests/golden/record.py
"""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from virab.cli import main

CORPUS = Path(__file__).with_name("cli.json")
_ELAPSED = [(re.compile(r'"elapsed_s": [0-9.e+-]+'), '"elapsed_s": 0'),
            (re.compile(r"^elapsed: [0-9.]+s$", re.M), "elapsed: 0.000s")]


@contextlib.contextmanager
def workdir(documents):
    """A temporary working directory holding `documents`, with COLUMNS=80:
    argparse wraps its usage lines at the terminal width."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        for name, text in documents.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run(argv):
    """The corpus case of `argv`, run now."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    for pattern, zero in _ELAPSED:
        text = pattern.sub(zero, text)
    return {"argv": argv, "exit": code, "stdout": text,
            "stderr": err.getvalue()}


if __name__ == "__main__":
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    with workdir(corpus["documents"]):
        corpus["cases"] = [run(case["argv"]) for case in corpus["cases"]]
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
