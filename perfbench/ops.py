"""The calls the benchmark makes into gdiscord, one function per operation.

Every call into a layer goes through ``call(name, fn, *args)``: the plain
:func:`harness.direct` when untraced, :meth:`harness.Tracer.call` when
traced.  Span names are ``<module>.<function>`` after ``src/gdiscord/``.
"""

from __future__ import annotations

import math

from gdiscord.discord import gaussian_discord_closed_form, gaussian_discord_numeric
from gdiscord.entropy import entropy_two_mode
from gdiscord.errors import GDiscordError, OutOfFamily
from gdiscord.family import membership, occupancy_grid, sample_family
from gdiscord.remote_prep import GaussianMeasurement, conditional_cm
from gdiscord.serialize import discord_report_to_dict, sample_csv_lines, sample_to_csv
from gdiscord.symplectic import NormalFormCM, normal_form_from_cm, symplectic_spectrum, validate_bona_fide

WORKED_NF = (5.0, 2.0, math.sqrt(6.0), -math.sqrt(6.0))
WORKED_DISCORD = 0.950067265  # h(2) - h(1) - h(4) + h(3)
MEASUREMENTS = {
    "u1": GaussianMeasurement(1.0),
    "u0": GaussianMeasurement.homodyne_q(),
    "uinf": GaussianMeasurement.homodyne_p(),
}


class NotBonaFide(GDiscordError):
    """The validator rejected an input the generator built as bona fide."""


def discord_op(V, call):
    """The ``gdiscord discord`` pipeline on one CM, in process.

    Returns (numeric report, closed-form report or None, normal form or
    None, output dict).  OutOfFamily from membership is the expected answer
    for states outside the family and is not an error.
    """
    diag = call("symplectic.validate_bona_fide", validate_bona_fide, V)
    if not diag.bona_fide:
        raise NotBonaFide(diag.reason)
    nf = call("symplectic.normal_form_from_cm", normal_form_from_cm, V)
    closed = None
    if nf is not None:
        try:
            fp = call("family.membership", membership, nf)
        except OutOfFamily:
            fp = None
        if fp is not None:
            closed = call("discord.gaussian_discord_closed_form", gaussian_discord_closed_form, fp)
    numeric = call("discord.gaussian_discord_numeric", gaussian_discord_numeric, V)
    out = {"numeric": call("serialize.discord_report_to_dict", discord_report_to_dict, numeric)}
    if closed is not None:
        out["closed_form"] = call("serialize.discord_report_to_dict", discord_report_to_dict, closed)
    return numeric, closed, nf, out


def layer_probes(V, call):
    """Direct calls into layers the pipeline reaches only from inside gdiscord."""
    call("symplectic.symplectic_spectrum", symplectic_spectrum, V)
    call("entropy.entropy_two_mode", entropy_two_mode, V)
    for tag, m in MEASUREMENTS.items():
        call(f"remote_prep.conditional_cm.{tag}", conditional_cm, V, m)


def membership_op(row, call):
    """Witness for one normal-form row (a, b, c, cp)."""
    return call("family.membership", membership, NormalFormCM(*(float(x) for x in row)))


def sample_op(a, b, n, seed, threads, call):
    """What ``gdiscord sample`` computes: (batch, csv text, streamed bytes, grid)."""
    batch = call("family.sample_family", sample_family, a, b, n, seed, threads)
    text = call("serialize.sample_to_csv", sample_to_csv, batch)
    streamed = call("serialize.sample_csv_lines", _stream_bytes, batch)
    grid = call("family.occupancy_grid", occupancy_grid, batch)
    return batch, text, streamed, grid


def _stream_bytes(batch) -> int:
    """Consume the line generator as the stdout path does; bytes it would echo."""
    return sum(len(line) + 1 for line in sample_csv_lines(batch))
