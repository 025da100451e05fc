"""The README's examples, run as written: its JSON blocks, the `ciph check`
and `ciph simulate` lines of its command synopsis, and the audit figures it
quotes for the model-file example. A change that makes the README wrong
fails here."""

import json
import re
import shlex
from pathlib import Path

import pytest

from ciph.cli import main
from ciph.fileio import load_model, load_tensor

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README, re.S)]
TENSOR = next(b for b in BLOCKS if "entries" in b)
MODELS = {"builtin": next(b for b in BLOCKS if "builtin" in b), "model-file": next(b for b in BLOCKS if "H" in b)}
SYNOPSIS = re.search(r"## Command line\n\n```sh\n(.*?)```", README, re.S).group(1).splitlines()
AUDIT = re.search(r"model-file example above passes\s+at `([^`]*)` with energy defect (\S+) and entropy\s+"
                  r"defect (\S+);", README)


def documented(command: str, path: str, out: Path) -> list:
    """The synopsis line of ``command`` without its optional [...] parts,
    as an argv that reads ``path`` and writes ``out``."""
    line = next(line for line in SYNOPSIS if line.startswith(f"ciph {command} "))
    argv = shlex.split(re.sub(r"\s*\[[^\]]*\]", "", line))[1:]
    argv[1] = path
    return argv + (["-o", str(out)] if command == "simulate" else [])


def write(tmp_path, payload) -> str:
    path = tmp_path / "example.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_every_block_is_found():
    assert len(BLOCKS) == 3 and AUDIT is not None


def test_tensor_example_loads_and_checks(tmp_path, capsys):
    path = write(tmp_path, TENSOR)
    assert load_tensor(path).n == TENSOR["n"]
    assert main(documented("check", path, tmp_path / "unused")) in (0, 2)
    assert len(capsys.readouterr().out.splitlines()) == 5


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_example_simulates_as_documented(tmp_path, capsys, kind):
    path = write(tmp_path, MODELS[kind])
    assert load_model(path).n == 2
    assert main(documented("simulate", path, tmp_path / "traj.csv")) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_model_file_audit_figures(tmp_path, capsys):
    flags, energy, entropy = AUDIT.groups()
    argv = ["simulate", write(tmp_path, MODELS["model-file"]), *flags.split(), "-o", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    # the README quotes each defect to two significant digits
    assert float(f"{summary['max_energy_defect']:.1e}") == float(energy)
    assert float(f"{summary['max_entropy_defect']:.1e}") == float(entropy)
