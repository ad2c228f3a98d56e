"""Command-line front end.

Thin wrappers only: every numerical result comes from the library modules.
Exit codes: 0 success, 2 usage or validation error (malformed input, not
bona fide), 3 state outside the decomposition family, 4 numerical failure.
Errors print one machine-parseable line on stderr: ``error: <kind>: <detail>``.
``discord`` warns on stderr, ``warning: route-gap: <detail>``, when its two
routes disagree by more than ``discord.ROUTE_GAP_BOUND``; stdout and the exit
code stay as they are.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import serialize
from .errors import GDiscordError, NumericalFailure, OutOfFamily, ValidationError

# Each command imports the modules it runs in its own body, so a launch
# loads only those: classify never loads family or the CM algebra of
# symplectic (only a command that reads a state does), sample never loads
# discord or remote_prep, and only sample and verify, which work on arrays,
# load numpy.

def _finite_number(literal: str) -> float:
    """JSON float hook: the homodyne limit is spelled "inf", never as a number."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValidationError(f"JSON number {literal} is NaN, infinite or past the float range")
    return value


def _load_json(text_or_path: str):
    """Accept inline JSON or a path to a JSON file, read in the locale's encoding."""
    text = text_or_path
    with contextlib.suppress(OSError, ValueError):  # ValueError: bytes the encoding refuses
        if os.path.isfile(text):
            with open(text) as f:
                text = f.read()
    try:
        return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ValidationError(f"invalid JSON ({exc}); not a readable file either")


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise ValidationError(f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{what} contains a non-numeric entry: {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{what} contains a non-finite entry: {text!r}")
    return values


def _state_from_options(normal_form: str | None, state: str | None):
    """(CM, its accepted diagnosis) of a state given by either option."""
    from .symplectic import NormalFormCM, validate_bona_fide

    if (normal_form is None) == (state is None):
        raise ValidationError("provide exactly one of --normal-form or --state")
    if normal_form is not None:
        V = NormalFormCM(*_parse_floats(normal_form, 4, "--normal-form")).rows()
    else:
        V = serialize.parse_cm_payload(_load_json(state))
    diag = validate_bona_fide(V)
    if not diag.bona_fide:
        raise ValidationError(f"state is not bona fide: {diag.reason}")
    return V, diag


def discord(args):
    """Quantum discord D(A|B), by numerical scan and (if in family) closed form."""
    from .discord import ROUTE_GAP_BOUND, discord_routes

    numeric, closed, gap = discord_routes(*_state_from_options(args.normal_form, args.state))
    sys.stdout.write(serialize.dumps({
        "numeric": serialize.discord_report_to_dict(numeric),
        "closed_form": closed and serialize.discord_report_to_dict(closed),
        "agreement_delta": serialize.round12(gap),
        "in_family": closed is not None,
    }))
    if closed and gap > ROUTE_GAP_BOUND:
        sys.stderr.write(f"warning: route-gap: the numeric and closed-form discords differ by "
                         f"{serialize.fmt(gap)} bits, more than {ROUTE_GAP_BOUND:g}\n")


def decompose(args):
    """EPR-plus-channel decomposition witness (b, r, tau, eta, sign, xi)."""
    from .family import membership

    _, diag = _state_from_options(args.normal_form, args.state)
    fp = membership(diag.reduction.nf)
    sys.stdout.write(serialize.dumps(serialize.family_params_to_dict(fp)))


def classify_cmd(args):
    """Canonical-form label of an extended channel (tau, eta)."""
    from .channels import GaussianChannelParams, classify

    params = GaussianChannelParams(args.tau, args.eta)
    sys.stdout.write(serialize.dumps(serialize.channel_class_to_dict(classify(params), params)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def sample(args):
    """Sample family states at fixed (a, b): CSV cloud plus occupancy grid."""
    from .family import occupancy_grid, sample_family
    from .samplecsv import sample_csv_blocks

    # a bad destination or bin count fails before the first byte goes out
    with contextlib.ExitStack() as stack:
        try:
            csv = sys.stdout.buffer if args.out == "-" else stack.enter_context(open(args.out, "wb"))
            grid = None if args.grid_out is None else stack.enter_context(open(args.grid_out, "w"))
        except OSError as exc:
            raise ValidationError(f"cannot write {exc.filename}: {exc.strerror}")
        # threads beyond the CPUs the process may use cannot overlap: they only
        # cost a pool and the concurrent.futures import
        batch = sample_family(args.a, args.b, args.n, args.seed,
                              threads=min(args.threads, _usable_cpus()))
        if grid is not None:
            grid.write(serialize.occupancy_to_json(occupancy_grid(batch, bins=args.bins)))
        for block in sample_csv_blocks(batch):
            csv.write(block)
        csv.flush()


def condition(args):
    """Conditional state of the unmeasured mode after a Gaussian measurement."""
    from .remote_prep import _conditioned_state

    V, _ = _state_from_options(None, args.state)
    m = serialize.parse_measurement_payload(_load_json(args.measurement))
    k = _parse_floats(args.outcome, 2, "--outcome")
    mean_ab = None if args.mean is None else _parse_floats(args.mean, 4, "--mean")
    result = _conditioned_state(V, mean_ab, m, k, args.mode)
    sys.stdout.write(serialize.dumps(serialize.conditional_state_to_dict(result)))


def verify(args):
    """Run the acceptance suite and print one pass/fail line per criterion."""
    from .verification import run_all

    results = run_all(quick=args.quick)
    passed = sum(res.passed for res in results)
    print(*(res.line() for res in results), f"{passed}/{len(results)} checks passed", sep="\n")
    if passed < len(results):
        sys.exit(1)


_NORMAL_FORM = ("--normal-form", dict(help="a,b,c,cp of a normal-form state"))
_DEFAULT = "(default: %(default)s)"

# command name -> (function of the parsed namespace, its options as argparse keywords)
COMMANDS = {
    "discord": (discord, [_NORMAL_FORM, (
        "--state", dict(help="inline JSON or path: {'normal_form': ...} / {'cm': ...}"))]),
    "decompose": (decompose, [_NORMAL_FORM, ("--state", dict(help="inline JSON or path with the CM"))]),
    "classify": (classify_cmd, [
        ("--tau", dict(type=float, required=True, help="transmissivity (any sign)")),
        ("--eta", dict(type=float, required=True, help="added noise, >= |1 - tau|"))]),
    "sample": (sample, [
        ("--a", dict(type=float, required=True)), ("--b", dict(type=float, required=True)),
        ("--n", dict(type=int, required=True, help="number of points")),
        ("--seed", dict(type=int, default=0, help=_DEFAULT)),
        ("--threads", dict(type=int, default=1,
                           help="sampler threads (>= 1), at most one per usable CPU " + _DEFAULT)),
        ("--out", dict(default="-", help="CSV destination ('-' = stdout) " + _DEFAULT)),
        ("--grid-out", dict(help="also write the occupancy grid JSON here")),
        ("--bins", dict(type=int, default=200, help=_DEFAULT))]),
    "condition": (condition, [
        ("--state", dict(required=True, help="inline JSON or path with the CM")),
        ("--measurement", dict(required=True,
                               help="inline JSON or path: {'u': number|'inf', 'phi': number}")),
        ("--outcome", dict(default="0,0", help="outcome q,p " + _DEFAULT)),
        ("--mean", dict(help="state mean as 4 numbers (default zero)")),
        ("--mode", dict(choices=["A", "B"], default="B", help="which mode is measured " + _DEFAULT))]),
    "verify": (verify, [("--quick", dict(action="store_true", help="~10x smaller sample counts"))]),
}


def main(argv: list[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True):
    """Run one command on ``argv`` (default ``sys.argv[1:]``); ``prog_name`` names it in usage text.

    A success returns None; a failure raises ``SystemExit`` with its exit code.
    ``standalone_mode`` is ignored: it is kept only because the benchmark passes it.
    """
    plain = dict(add_help=False, allow_abbrev=False)  # --help alone, and no abbreviated options
    parser = argparse.ArgumentParser(
        prog_name, description="Gaussian discord toolkit for two-mode Gaussian states.", **plain)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=(run.__doc__ or "").split("\n")[0],
                                  description=run.__doc__, **plain)
        sub.set_defaults(run=run)
        for flag, kw in options:
            sub.add_argument(flag, **kw)
    for each in [parser, *commands.choices.values()]:
        each.add_argument("--help", action="help", help="show this message and exit")
    # every option but a flag binds the next token: argparse would read -1e-3 as an option
    takes_value = {flag for _, opts in COMMANDS.values() for flag, kw in opts if "action" not in kw}
    bound, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        bound.append(token if value is None else f"{token}={value}")
    args = parser.parse_args(bound)
    try:
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stdout goes to devnull, so the final flush finds none either.
        # A reader may take what it wants of the sample CSV (`| head`); other output is one result
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if args.run is not sample:
            sys.exit(1)
    except GDiscordError as exc:
        code, kind = ((3, "out-of-family") if isinstance(exc, OutOfFamily) else
                      (4, "numerical") if isinstance(exc, NumericalFailure) else (2, "validation"))
        sys.stderr.write(f"error: {kind}: {exc}\n")
        sys.exit(code)


if __name__ == "__main__":
    main()
