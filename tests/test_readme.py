"""The README's quick start runs as written, and the public names exist.

The console lines are run through cli.main in a temporary folder, and each
command's output must equal the lines printed under it in the README.
"""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import coopcap
from coopcap.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# The names the README's Python example and the benchmark's tests import.
TOP_LEVEL = {
    "__version__",
    "CfCode",
    "ConstructionParams",
    "ExperimentConfig",
    "brute_force_sum_capacity",
    "cf_inner_region",
    "cf_outer_region",
    "construct_channel",
    "maximize_sum_rate",
    "monte_carlo_error",
    "run_sweep",
    "sum_rate",
    "verify_zero_error",
}


def fenced_block(after: str, language: str) -> str:
    """The first ```language block that follows the text `after`."""
    start = README.index(after)
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def console_commands():
    """(argv, whether stdout is redirected, expected lines) per `$ coopcap`
    line of the quick-start console block."""
    commands = []
    for chunk in fenced_block("## Quick start", "console").strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ coopcap "), command
        argv = shlex.split(command[len("$ coopcap "):])
        redirected = argv[-1].startswith(">")
        if redirected:
            argv.pop()
        commands.append((argv, redirected, "".join(line + "\n" for line in expected)))
    return commands


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_block("The same flow in Python", "python"), "README.md", "exec"), {})
    pairs, value = capsys.readouterr().out.split()
    assert int(pairs) == 1024
    assert abs(float(value) - 5.941274) <= 5e-7  # the quick-start capacity line


def test_readme_console_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = console_commands()
    assert [argv[0] for argv, _, _ in commands] == [
        "construct", "verify", "code-check", "capacity", "bounds",
    ]
    for argv, redirected, expected in commands:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        if redirected:  # stdout goes to a file, so the README shows stderr
            assert err == expected, argv
        else:
            assert out == expected, argv
            assert err == ""


def test_top_level_names():
    assert set(coopcap.__all__) == TOP_LEVEL


@pytest.mark.parametrize(
    "module",
    ["coopcap"] + [f"coopcap.{info.name}" for info in pkgutil.iter_modules(coopcap.__path__)],
)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
