import importlib.util
from pathlib import Path

from cayley_stiefel import cli

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproducible_outputs_commands():
    # 45 commands, each in its own output directory, each accepted by the CLI
    tool = load("reproducible_outputs")
    commands = list(tool.commands())
    assert len(commands) == 45
    assert len({tool.directory(args) for args in commands}) == 45
    parser = cli.build_parser()
    for args in commands:
        assert parser.parse_args([*args, "--reproducible"]).command == args[0]
