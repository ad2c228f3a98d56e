import contextlib
import io
from dataclasses import dataclass

import pytest

from gdiscord.cli import main


@dataclass
class CliResult:
    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def output(self) -> str:
        """stdout then stderr, as a terminal shows a command that writes one and then the other."""
        return self.stdout + self.stderr


def run_cli(args) -> CliResult:
    """``gdiscord <args>`` in this process, with its text and binary streams captured."""
    err = io.StringIO()
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = exc.code
        out.flush()
        return CliResult(code, out.buffer.getvalue(), err.getvalue())


@pytest.fixture(name="run_cli")
def run_cli_fixture():
    return run_cli
