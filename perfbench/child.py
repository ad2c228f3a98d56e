"""Fresh-interpreter helper launched by the benchmark.

    child.py setup <workload>   import gdiscord and make one warm-up call
    child.py imports            time the imports; print them as JSON on stdout
    child.py cli <args...>      time the imports, then run the gdiscord CLI;
                                the timings go to stderr as the last line

The imports are timed one layer at a time (numpy, then gdiscord, then
gdiscord.cli), so each figure is that layer's own import cost.
"""

import sys
import time


def timed_imports() -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import gdiscord  # noqa: F401

    t2 = time.perf_counter()
    import gdiscord.cli  # noqa: F401

    t3 = time.perf_counter()
    return {"import_numpy_s": t1 - t0, "import_gdiscord_s": t2 - t1, "import_cli_s": t3 - t2}


def setup(workload: str) -> None:
    """Import what the workload's process imports and make one warm-up call."""
    if workload == "cli-cold":
        import contextlib
        import io

        import gdiscord.cli

        with contextlib.redirect_stdout(io.StringIO()):
            gdiscord.cli.main(["classify", "--tau", "0.5", "--eta", "0.6"], standalone_mode=False)
        return

    import numpy as np
    import ops
    from harness import direct
    from inputs import local_symplectics, normal_form_matrix, transformed_cm

    if workload == "discord-nf":
        ops.discord_op(normal_form_matrix(ops.WORKED_NF), direct)
    elif workload == "discord-cm":
        sym = local_symplectics(np.random.default_rng(0), 1)[0]
        ops.discord_op(transformed_cm(ops.WORKED_NF, sym), direct)
    elif workload == "family-cloud":
        ops.membership_op(ops.WORKED_NF, direct)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main(argv) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 2:
        setup(argv[1])
        return 0
    if mode == "imports":
        import json

        print(json.dumps(timed_imports()))
        return 0
    if mode == "cli":
        import json

        timings = timed_imports()
        import gdiscord.cli

        code = 0
        try:
            gdiscord.cli.main(argv[1:], prog_name="gdiscord")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        sys.stdout.flush()
        print(json.dumps(timings), file=sys.stderr)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
