"""Command-line front end.

Thin wrappers only: every numerical result comes from the library modules.
Exit codes: 0 success, 2 validation error (malformed input, not bona fide),
3 state outside the decomposition family, 4 numerical failure.  Errors print
one machine-parseable line on stderr: ``error: <kind>: <detail>``.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import serialize
from .channels import GaussianChannelParams, classify
from .discord import gaussian_discord_numeric, gaussian_discord_closed_form
from .errors import GDiscordError, NumericalFailure, OutOfFamily, ValidationError
from .family import membership, occupancy_grid, sample_family
from .remote_prep import condition_on_outcome, conditioning_on_mode_A
from .symplectic import NormalFormCM, validate_bona_fide
from .verification import run_all

_EXIT_CODES = [
    (OutOfFamily, 3, "out-of-family"),
    (NumericalFailure, 4, "numerical"),
    (GDiscordError, 2, "validation"),
]


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GDiscordError as exc:
            for cls, code, kind in _EXIT_CODES:
                if isinstance(exc, cls):
                    click.echo(f"error: {kind}: {exc}", err=True)
                    sys.exit(code)

    return wrapper


def _load_json(text_or_path: str):
    """Accept inline JSON or a path to a JSON file."""
    text = text_or_path
    candidate = Path(text_or_path)
    try:
        if candidate.is_file():
            text = candidate.read_text()
    except OSError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON ({exc}); not a readable file either")


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != n:
        raise ValidationError(f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{what} contains a non-numeric entry: {text!r}")


def _state_from_options(normal_form: str | None, state: str | None):
    """(CM, its accepted diagnosis) of a state given by either option."""
    if (normal_form is None) == (state is None):
        raise ValidationError("provide exactly one of --normal-form or --state")
    if normal_form is not None:
        V = NormalFormCM(*_parse_floats(normal_form, 4, "--normal-form")).to_matrix()
    else:
        V = serialize.parse_cm_payload(_load_json(state))
    diag = validate_bona_fide(V)
    if not diag.bona_fide:
        raise ValidationError(f"state is not bona fide: {diag.reason}")
    return V, diag


@click.group()
def main():
    """Gaussian discord toolkit for two-mode Gaussian states."""


@main.command()
@click.option("--normal-form", help="a,b,c,cp of a normal-form state")
@click.option("--state", help="inline JSON or path: {'normal_form': ...} / {'cm': ...}")
@handles_errors
def discord(normal_form, state):
    """Quantum discord D(A|B), by numerical scan and (if in family) closed form."""
    V, diag = _state_from_options(normal_form, state)
    numeric = gaussian_discord_numeric(V, diag)
    out = {"numeric": serialize.discord_report_to_dict(numeric)}
    try:
        closed = gaussian_discord_closed_form(membership(diag.reduction.nf))
    except OutOfFamily:
        closed = None
    if closed is not None:
        out["closed_form"] = serialize.discord_report_to_dict(closed)
        out["agreement_delta"] = serialize.round12(abs(closed.discord - numeric.discord))
        out["in_family"] = True
    else:
        out["closed_form"] = None
        out["agreement_delta"] = None
        out["in_family"] = False
    click.echo(serialize.dumps(out), nl=False)


@main.command()
@click.option("--normal-form", help="a,b,c,cp of a normal-form state")
@click.option("--state", help="inline JSON or path with the CM")
@handles_errors
def decompose(normal_form, state):
    """EPR-plus-channel decomposition witness (b, r, tau, eta, sign, xi)."""
    _, diag = _state_from_options(normal_form, state)
    fp = membership(diag.reduction.nf)
    click.echo(serialize.dumps(serialize.family_params_to_dict(fp)), nl=False)


@main.command("classify")
@click.option("--tau", type=float, required=True, help="transmissivity (any sign)")
@click.option("--eta", type=float, required=True, help="added noise, >= |1 - tau|")
@handles_errors
def classify_cmd(tau, eta):
    """Canonical-form label of an extended channel (tau, eta)."""
    params = GaussianChannelParams(tau, eta)
    click.echo(
        serialize.dumps(serialize.channel_class_to_dict(classify(params), params)),
        nl=False,
    )


@main.command()
@click.option("--a", "a", type=float, required=True)
@click.option("--b", "b", type=float, required=True)
@click.option("--n", "n", type=int, required=True, help="number of points")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True, allow_dash=True),
              default="-", show_default=True, help="CSV destination ('-' = stdout)")
@click.option("--grid-out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="also write the occupancy grid JSON here")
@click.option("--bins", type=int, default=200, show_default=True)
@handles_errors
def sample(a, b, n, seed, threads, out, grid_out, bins):
    """Sample family states at fixed (a, b): CSV cloud plus occupancy grid."""
    batch = sample_family(a, b, n, seed, threads=threads)
    with click.open_file(out, "w") as fh:
        fh.write(serialize.sample_to_csv(batch))
    if grid_out is not None:
        info = occupancy_grid(batch, bins=bins)
        Path(grid_out).write_text(serialize.dumps(serialize.occupancy_to_dict(info)))


@main.command()
@click.option("--state", required=True, help="inline JSON or path with the CM")
@click.option("--measurement", required=True,
              help="inline JSON or path: {'u': number|'inf', 'phi': number}")
@click.option("--outcome", default="0,0", show_default=True, help="outcome q,p")
@click.option("--mean", default=None, help="state mean as 4 numbers (default zero)")
@click.option("--mode", type=click.Choice(["A", "B"]), default="B", show_default=True,
              help="which mode is measured")
@handles_errors
def condition(state, measurement, outcome, mean, mode):
    """Conditional state of the unmeasured mode after a Gaussian measurement."""
    V = serialize.parse_cm_payload(_load_json(state))
    diag = validate_bona_fide(V)
    if not diag.bona_fide:
        raise ValidationError(f"state is not bona fide: {diag.reason}")
    m = serialize.parse_measurement_payload(_load_json(measurement))
    k = _parse_floats(outcome, 2, "--outcome")
    mean_ab = None if mean is None else _parse_floats(mean, 4, "--mean")
    if mode == "B":
        result = condition_on_outcome(V, mean_ab, m, k)
    else:
        result = conditioning_on_mode_A(V, mean_ab, m, k)
    click.echo(serialize.dumps(serialize.conditional_state_to_dict(result)), nl=False)


@main.command()
@click.option("--quick", is_flag=True, help="~10x smaller sample counts")
@handles_errors
def verify(quick):
    """Run the acceptance suite and print one pass/fail line per criterion."""
    results = run_all(quick=quick)
    for res in results:
        click.echo(res.line())
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
