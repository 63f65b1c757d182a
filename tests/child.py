"""One launcher, and one environment rule, for every test that runs Python in a child process.

The child imports this checkout's `src` first, ahead of whatever PYTHONPATH
the tests were started with, and can have its address space capped
(RLIMIT_AS) without capping the test process itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
# What the `unicover` script runs, for `python -c`.
CLI = "import sys; from unicover.cli import main; sys.exit(main())\n"


def environment(env: dict[str, str | None] | None = None) -> dict[str, str]:
    """This process's environment with `env` applied, then `src` first on PYTHONPATH.

    A value of None in `env` removes that variable.
    """
    environ = dict(os.environ)
    for key, value in (env or {}).items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, environ.get("PYTHONPATH", "").split(os.pathsep))])
    return environ


def launch(*args: str, env: dict[str, str | None] | None = None, cap: int | None = None, **popen) -> subprocess.Popen:
    """Start `python *args` in :func:`environment`'s environment with `env` applied.

    With `cap`, the child limits its own address space to `cap` bytes
    before Python starts in it.  Other keywords go to `subprocess.Popen`;
    stdout and stderr are pipes unless given.
    """
    popen.setdefault("stdout", subprocess.PIPE)
    popen.setdefault("stderr", subprocess.PIPE)
    limit = None
    if cap is not None:
        import resource

        def limit() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.Popen([sys.executable, *args], env=environment(env), preexec_fn=limit, **popen)


def run(*args: str, timeout: float = 120, **popen) -> tuple[int, str | bytes, str | bytes]:
    """Run :func:`launch`'s child to its end: its exit code, stdout and stderr."""
    with launch(*args, **popen) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode, out, err
