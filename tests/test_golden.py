"""The CLI's output, byte for byte: commands replayed in process against digests.

``golden_cli.json`` maps each command below to the sha256 of its stdout, the
sha256 of its stderr and its exit code.  A refactor that claims to keep the
numbers must leave every entry unchanged.

The digests pin the floating-point bits of the platform they were recorded
on (x86-64 Linux, Python 3.11.7, numpy 2.4.6), as
``test_qkz.py::test_integrand_values_are_pinned_bit_for_bit`` does; another
libm or numpy may move a last bit.  Regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` only in a change that states
that it changes bits, and name the commands that moved: the script prints
each key whose digests changed, was added or was removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ellqg.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CONFIGS = {
    "default": None,
    "k08": {"k": 0.8},
    "n3": {"N": 3, "n": 5, "lambda": [2, 2, 1], "P": [1.2, [0.9, -0.2]],
           "z": [[0.5, 0.1], [0.2, -0.6], [-0.7, 0.1], [-0.6, -0.6], [0.3, 0.8]]},
    "q099": {"q": 0.99, "max_terms": 4096},
}

_PER_CONFIG = ["theta", "rmat", "rmat --starred", "wf eval", "wf triangularity",
               "wf transition", "wf stab", "gt basis", "gt act --op e", "gt act --op f",
               "gt act --op phi", "qkz eval", "qkz eval --elliptic",
               "qkz quad --gridsize 8"]

COMMANDS = ([("default", f"verify all --seed {s}") for s in range(3)]
            + [("default", "verify all --break-shift")]
            + [(c, cmd) for c in ("default", "k08", "n3") for cmd in _PER_CONFIG]
            + [("k08", "verify all --seed 0"), ("q099", "verify all --seed 0")])


def _key(config: str, command: str) -> str:
    return f"{config}: {command}"


def _digests(config: str, command: str, workdir: Path) -> dict:
    argv = command.split()
    if CONFIGS[config] is not None:
        path = workdir / f"{config}.json"
        path.write_text(json.dumps(CONFIGS[config]))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"exit": rc,
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("config,command", COMMANDS, ids=[_key(*c) for c in COMMANDS])
def test_cli_output_is_byte_identical(config, command, tmp_path):
    want = json.loads(GOLDEN.read_text())[_key(config, command)]
    assert _digests(config, command, tmp_path) == want


def test_golden_file_lists_exactly_the_commands():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_key(*c) for c in COMMANDS)


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = {_key(*c): _digests(*c, Path(tmp)) for c in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for key in sorted(old.keys() | table.keys()):
        if old.get(key) != table.get(key):
            print(("added" if key not in old else "removed" if key not in table
                   else "changed") + f": {key}")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
