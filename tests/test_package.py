"""The package namespace and the README's library and command-line examples."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import twogroupbf
from twogroupbf import datamodel, engine, get_bf, quadrature, report
from twogroupbf.cli import parse_and_run

ROOT = Path(__file__).resolve().parents[1]
MODULES = (datamodel, engine, quadrature, report)


def test_namespace_is_the_modules_own_lists():
    assert twogroupbf.__all__ == [n for m in MODULES for n in m.__all__] + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twogroupbf, name) is getattr(module, name), name


def test_package_import_leaves_out_the_cli_and_the_oracle():
    env = {**os.environ, "PYTHONPATH": str(Path(twogroupbf.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twogroupbf; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded = proc.stdout.splitlines()
    for name in ("twogroupbf.cli", "twogroupbf.oracle", "argparse", "csv"):
        assert name not in loaded, name


def test_readme_library_example_runs_as_written():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    printed = []
    scope = {"print": lambda *args: printed.append(args)}
    exec(block, scope)
    golden = ROOT / "tests" / "golden" / "reference_text" / "non_inferiority_margin_1_low.txt"
    assert printed == [(golden.read_text(),), (get_bf(scope["result"]),)]


def test_readme_command_line_examples_run_as_written(capsys):
    # the summary-statistic examples; the raw-data ones name files of the reader's
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("twogroupbf ") and "--raw" not in line]
    assert [argv[1] for argv in commands] == ["infer", "super", "equiv", "sweep"]
    for argv in commands:
        assert parse_and_run(argv[1:]) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out, argv
