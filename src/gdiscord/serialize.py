"""Stable JSON/CSV input and output formats.

Numbers are emitted with 12 significant digits, '.' decimal separator and no
locale dependence, so identical requests produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterator

from . import _numpy as np
from .channels import ChannelClass, GaussianChannelParams
from .discord import DiscordReport
from .errors import ValidationError
from .family import FamilyParams, FamilySample
from .remote_prep import ConditionalState, GaussianMeasurement
from .symplectic import NormalFormCM, embed_normal_form


def fmt(x: float) -> str:
    """12-significant-digit decimal text for a float."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def round12(x: float | None) -> float | str | None:
    """Round a float to 12 significant digits for JSON emission."""
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(fmt(x))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"field '{name}' must be a number, got {value!r}")


_CM_AGREEMENT_RTOL = 1e-9


def parse_cm_payload(payload: dict) -> np.ndarray:
    """Read a 4x4 CM from {"normal_form": {...}} and/or {"cm": [[...]]}.

    When both keys are present they are cross-validated against each other,
    to ``_CM_AGREEMENT_RTOL``, and the 'cm' matrix is returned.
    """
    if not isinstance(payload, dict):
        raise ValidationError("CM payload must be a JSON object")
    V = None
    if "normal_form" in payload:
        raw = payload["normal_form"]
        if not isinstance(raw, dict):
            raise ValidationError("'normal_form' must be an object with a, b, c, cp")
        missing = {"a", "b", "c", "cp"} - raw.keys()
        if missing:
            raise ValidationError(f"'normal_form' is missing fields {sorted(missing)}")
        V = embed_normal_form(NormalFormCM(
            a=_as_float(raw["a"], "a"),
            b=_as_float(raw["b"], "b"),
            c=_as_float(raw["c"], "c"),
            cp=_as_float(raw["cp"], "cp"),
        ))
    if "cm" in payload:
        raw = payload["cm"]
        try:
            M = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("'cm' must be a numeric matrix")
        if M.size != 16:
            raise ValidationError(f"'cm' must hold 16 numbers, got {M.size}")
        M = M.reshape(4, 4)
        if V is not None:
            scale = max(1.0, float(np.max(np.abs(V))))
            if float(np.max(np.abs(M - V))) > _CM_AGREEMENT_RTOL * scale:
                raise ValidationError("'cm' and 'normal_form' disagree")
        V = M
    if V is None:
        raise ValidationError("CM payload needs 'normal_form' or 'cm'")
    return V


def parse_measurement_payload(payload: dict) -> GaussianMeasurement:
    """Read a measurement from {"u": number|"inf", "phi": number}."""
    if not isinstance(payload, dict) or "u" not in payload:
        raise ValidationError("measurement payload must be an object with 'u'")
    u = _as_float(payload["u"], "u")
    phi = _as_float(payload.get("phi", 0.0), "phi")
    if not math.isfinite(phi):
        raise ValidationError(f"field 'phi' must be finite, got {phi}")
    return GaussianMeasurement(u, phi)


# ---------------------------------------------------------------------------
# emission


def matrix_to_lists(M: np.ndarray) -> list[list[float]]:
    return [[round12(float(x)) for x in row] for row in np.asarray(M, float)]


def discord_report_to_dict(report: DiscordReport) -> dict:
    out = {
        "s_a": round12(report.s_a),
        "s_b": round12(report.s_b),
        "s_ab": round12(report.s_ab),
        "i_ab": round12(report.i_ab),
        "s_min_cond": round12(report.s_min_cond),
        "classical_corr": round12(report.classical_corr),
        "discord": round12(report.discord),
        "method": report.method,
    }
    if report.u_opt is not None:
        out["u_opt"] = round12(report.u_opt)
        out["phi_opt"] = round12(report.phi_opt)
    return out


def family_params_to_dict(fp: FamilyParams) -> dict:
    return {
        "b": round12(fp.b),
        "r": round12(fp.r),
        "tau": round12(fp.tau),
        "eta": round12(fp.eta),
        "sign": fp.sign,
        "xi": round12(fp.xi),
    }


def channel_class_to_dict(cc: ChannelClass, params: GaussianChannelParams) -> dict:
    return {
        "label": cc.label.value,
        "tau": round12(params.tau),
        "eta": round12(params.eta),
        "omega": round12(cc.omega),
        "n_bar": round12(cc.n_bar),
        "quantum_limited": params.is_quantum_limited(),
    }


def conditional_state_to_dict(state: ConditionalState) -> dict:
    return {
        "mean": [round12(float(x)) for x in state.mean],
        "cm": matrix_to_lists(state.cm),
    }


SAMPLE_CSV_HEADER = "a,b,c,cp,r,tau,eta,sign"
_CSV_BLOCK_ROWS = 8192
# uint32 words of one CSV field: ',' and sign, 12 integer digits, '.', 16
# fraction digits; 36 bytes also hold the widest fmt text, ',-1.23456789012e-308'
_CSV_FIELD = 9


def _word(text: bytes):
    """Four ASCII bytes as one uint32, in the byte order of the arrays they go to."""
    return np.frombuffer(text, np.uint32)[0]


@functools.cache
def _csv_tables():
    """(digit words, exact 10^0 .. 10^15 as floats and 10^0 .. 10^16 as int64).

    The digit words are four tables of 10,000 uint32, one 4-digit group each:
    all digits, leading zeros as NUL, the same but 0 as '0', and trailing
    zeros as NUL.
    """
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode(),
                           np.uint8).reshape(10_000, 4)
    nonzero = digits != ord("0")
    lead = digits * np.logical_or.accumulate(nonzero, axis=1)
    last = lead.copy()
    last[0, 3] = ord("0")
    trail = digits * np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    words = np.concatenate([digits, lead, last, trail]).view(np.uint32).ravel()
    return (words, np.array([10.0**k for k in range(16)]),
            np.array([10**k for k in range(17)], np.int64))


def _csv_fields(x: np.ndarray) -> np.ndarray:
    """``"," + fmt(v)`` for each value of ``x``: NUL-padded rows of ``_CSV_FIELD`` uint32.

    For a value with decimal exponent X in [-4, 11] (fixed notation), one
    multiply by the exact 10^(11 - X) puts its 12 significant digits before
    the point; the product is within half an ulp (<= 2^-14 below 1e12) of
    the exact one, so ``rint`` gives the correctly rounded digits N wherever
    the fraction lies more than 2^-12 from 1/2.  The integer part of the
    value, N // 10^(11 - X), is written right-aligned before a fixed point
    column, and the rest of N, scaled to 16 digits, left-aligned after it,
    with the leading zeros of the one and the trailing zeros of the other
    (and the point, when no fraction is left) as NUL.  Ties, decade edges
    (the product within 1 of 1e11 or 1e12), exponent notation, zero and
    non-finite values take :func:`fmt` itself.
    """
    words, pow10, ipow10 = _csv_tables()
    ax = np.abs(x)
    ok = np.isfinite(ax) & (ax > 0.0)
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    ok &= (e >= -4) & (e <= 11)
    e = np.clip(e, -4, 11)
    p = ax * pow10[11 - e]
    ok &= (p >= 1e11 + 1.0) & (p <= 1e12 - 1.0) & (np.abs(p - np.floor(p) - 0.5) > 2.0**-12)
    n = np.where(ok, np.rint(p), 1e11).astype(np.int64)
    unit = ipow10[11 - e]
    whole = n // unit
    frac = (n - whole * unit) * ipow10[5 + e]
    out = np.empty((len(x), _CSV_FIELD), np.uint32)
    out[:, 0] = np.where(x < 0.0, _word(b",-\0\0"), _word(b",\0\0\0"))
    w0, whole = np.divmod(whole, 10**8)
    w1, w2 = np.divmod(whole, 10**4)
    out[:, 1] = words[10_000 + w0]
    out[:, 2] = words[np.where(w0 == 0, 10_000, 0) + w1]
    out[:, 3] = words[np.where((w0 | w1) == 0, 20_000, 0) + w2]
    out[:, 4] = np.where(frac != 0, _word(b".\0\0\0"), 0)
    f0, frac = np.divmod(frac, 10**12)
    f1, frac = np.divmod(frac, 10**8)
    f2, f3 = np.divmod(frac, 10**4)
    out[:, 8] = words[30_000 + f3]
    out[:, 7] = words[np.where(f3 == 0, 30_000, 0) + f2]
    out[:, 6] = words[np.where((f2 | f3) == 0, 30_000, 0) + f1]
    out[:, 5] = words[np.where((f1 | f2 | f3) == 0, 30_000, 0) + f0]
    for i in np.flatnonzero(~ok):
        text = f",{fmt(float(x[i]))}".encode().ljust(4 * _CSV_FIELD, b"\0")
        out[i] = np.frombuffer(text, np.uint32)
    return out


def sample_csv_blocks(sample: FamilySample) -> Iterator[bytes]:
    """The sample CSV as ASCII bytes: the header line, then blocks of ``_CSV_BLOCK_ROWS`` rows.

    Fixed column order, every number as :func:`fmt` writes it.  Each row is
    built in fixed slots of uint32 words padded with NUL bytes, which
    ``translate`` drops.  ``sign`` is +-1.
    """
    yield f"{SAMPLE_CSV_HEADER}\n".encode()
    text = f"{fmt(sample.a)},{fmt(sample.b)}".encode()
    head = np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)
    ends = _word(b",-1\n"), _word(b",1\n\0")
    cols = (sample.c, sample.cp, sample.r, sample.tau, sample.eta)
    for lo in range(0, sample.n, _CSV_BLOCK_ROWS):
        part = slice(lo, lo + _CSV_BLOCK_ROWS)
        sign = sample.sign[part]
        rows = np.empty((len(sign), len(head) + 5 * _CSV_FIELD + 1), np.uint32)
        rows[:, :len(head)] = head
        rows[:, len(head):-1] = _csv_fields(
            np.stack([col[part] for col in cols], axis=1).ravel()).reshape(len(sign), -1)
        rows[:, -1] = np.where(sign < 0.0, *ends)
        yield rows.tobytes().translate(None, b"\0")


def sample_csv_lines(sample: FamilySample) -> Iterator[str]:
    """CSV lines (no newline) of :func:`sample_csv_blocks`, header first."""
    for block in sample_csv_blocks(sample):
        yield from block.decode("ascii").split("\n")[:-1]


def sample_to_csv(sample: FamilySample) -> str:
    """The whole CSV text of :func:`sample_csv_blocks`."""
    return b"".join(sample_csv_blocks(sample)).decode("ascii")


def occupancy_to_json(info: dict) -> str:
    """:func:`dumps` text of an :func:`occupancy_grid` record.

    The grid rows are written directly, as ``json.dumps(indent=2)`` lays out
    a list of int lists at this depth; the other fields go through
    :func:`dumps`.
    """
    out = dict(info)
    out["extent"] = [round12(float(x)) for x in info["extent"]]
    out["coverage_fraction"] = round12(info["coverage_fraction"])
    out["grid"] = None
    rows = ",\n    ".join("[\n      " + ",\n      ".join(map(str, row)) + "\n    ]"
                          for row in info["grid"].tolist())
    return dumps(out).replace('"grid": null', f'"grid": [\n    {rows}\n  ]', 1)
