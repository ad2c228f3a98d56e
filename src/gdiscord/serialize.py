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
from .errors import DomainError, ValidationError
from .symplectic import NormalFormCM, _cm_rows

# The records named in annotations here (DiscordReport, FamilySample, ...) are
# not imported: annotations stay unevaluated text, and importing their
# modules would load discord, family and remote_prep into every command.


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


def parse_cm_payload(payload: dict) -> list[list[float]]:
    """Read a CM, as four rows of four floats, from {"normal_form": {...}} and/or {"cm": [[...]]}.

    'cm' passes the CM gate :func:`symplectic._cm_rows`, whose reason a
    rejection quotes.  When both keys are present they are cross-validated
    against each other, to ``_CM_AGREEMENT_RTOL``, and the 'cm' rows are
    returned.
    """
    if not isinstance(payload, dict):
        raise ValidationError("CM payload must be a JSON object")
    rows = None
    if "normal_form" in payload:
        raw = payload["normal_form"]
        if not isinstance(raw, dict):
            raise ValidationError("'normal_form' must be an object with a, b, c, cp")
        missing = {"a", "b", "c", "cp"} - raw.keys()
        if missing:
            raise ValidationError(f"'normal_form' is missing fields {sorted(missing)}")
        rows = NormalFormCM(*(_as_float(raw[k], k) for k in ("a", "b", "c", "cp"))).rows()
    if "cm" in payload:
        try:
            cm = _cm_rows(payload["cm"])
        except DomainError as exc:
            raise ValidationError(f"'cm' is not a covariance matrix: {exc}") from None
        if rows is not None:
            pairs = [(x, y) for row, nf_row in zip(cm, rows) for x, y in zip(row, nf_row)]
            tol = _CM_AGREEMENT_RTOL * max(1.0, *(abs(y) for _, y in pairs))
            if not all(abs(x - y) <= tol for x, y in pairs):  # a NaN disagrees
                raise ValidationError("'cm' and 'normal_form' disagree")
        rows = cm
    if rows is None:
        raise ValidationError("CM payload needs 'normal_form' or 'cm'")
    return rows


def parse_measurement_payload(payload: dict) -> GaussianMeasurement:
    """Read a measurement from {"u": number|"inf", "phi": number}."""
    from .remote_prep import GaussianMeasurement

    if not isinstance(payload, dict) or "u" not in payload:
        raise ValidationError("measurement payload must be an object with 'u'")
    u = _as_float(payload["u"], "u")
    phi = _as_float(payload.get("phi", 0.0), "phi")
    if not math.isfinite(phi):
        raise ValidationError(f"field 'phi' must be finite, got {phi}")
    return GaussianMeasurement(u, phi)


# ---------------------------------------------------------------------------
# emission


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
        "cm": [[round12(x) for x in row] for row in state.cm.tolist()],
    }


SAMPLE_CSV_HEADER = "a,b,c,cp,r,tau,eta,sign"
_CSV_BLOCK_ROWS = 8192
# little-endian uint64 words of one CSV field: an 8-byte prefix (',', the
# sign, and '0.000' below 1) and a 16-byte body (12 digits and the point);
# 24 bytes also hold the widest fmt text, ',-1.23456789012e-308'
_CSV_FIELD = 3
_U64 = "<u8"


def _words(text: bytes, size: int):
    """``text``, NUL-padded to ``size`` uint64 words."""
    return np.frombuffer(text.ljust(8 * size, b"\0"), _U64)


@functools.cache
def _csv_tables():
    """The kernel's lookup tables, as little-endian uint64 words.

    * digits: 20,000 words of one 4-digit group each (in the low four
      bytes), first as all its digits, then with trailing zeros as NUL;
    * prefix: 32 words, ``","``, ``",-"``, ``",0.000"``, ... indexed by
      16 * (value < 0) + e + 4 for the decimal exponent e in [-4, 11];
    * by e + 4, the 128-bit masks (low word, high word) of the body: the
      integer part's bytes as ASCII '0', the bytes before the point (all 16
      for e < 0), and the point itself;
    * the exact powers 10^0 .. 10^15 as floats.
    """
    group = np.arange(10_000, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], np.int32)
    group = (group % 10).astype(np.uint8)
    trail = np.logical_or.accumulate(group[:, ::-1] != 0, axis=1)[:, ::-1]
    ascii_ = group + np.uint8(ord("0"))
    digits = np.concatenate([ascii_, ascii_ * trail]).view("<u4").ravel().astype(_U64)
    prefix = b"".join((sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")).ljust(8, b"\0")
                      for sign in (b",", b",-") for e in range(-4, 12))
    body = []
    for e in range(-4, 12):
        int_bytes = max(e + 1, 0)
        zeros = int.from_bytes(b"0" * int_bytes, "little")
        keep = (1 << 8 * int_bytes) - 1 if e >= 0 else (1 << 128) - 1
        point = ord(".") << 8 * int_bytes if e >= 0 else 0
        body.append([m >> shift & (2**64 - 1) for m in (zeros, keep, point) for shift in (0, 64)])
    return (digits, np.frombuffer(prefix, _U64), *np.array(body, np.uint64).T.astype(_U64),
            np.array([10.0**k for k in range(16)]))


def _csv_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"," + fmt(v)`` for each value of ``x`` to ``out``, as NUL-padded uint64.

    ``out`` has the shape of ``x`` plus a last axis of ``_CSV_FIELD`` words.

    For a value with decimal exponent e in [-4, 11] (fixed notation), one
    multiply by the exact 10^(11 - e) puts its 12 significant digits before
    the point; the product is within half an ulp (<= 2^-14 below 1e12) of
    the exact one, so ``rint`` gives the correctly rounded digits N wherever
    the fraction lies more than 2^-12 from 1/2.  The prefix word holds ','
    and the sign, and for e < 0 the '0.' and zeros before the digits.  The
    body holds N as three 4-digit words, NUL after its last nonzero digit
    but, for e >= 0, '0' through the integer part's e + 1 digits; when a
    fraction digit is left, the bytes from e + 1 on move up one byte and the
    point goes in between.  Ties, decade edges (the product within 1 of
    1e11 or 1e12), exponent notation, zero and non-finite values take
    :func:`fmt` itself.
    """
    digits, prefix, zeros_lo, zeros_hi, keep_lo, keep_hi, point_lo, point_hi, pow10 = _csv_tables()
    ax = np.abs(x)
    ok = np.isfinite(ax) & (ax > 0.0)
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    ok &= (e >= -4) & (e <= 11)
    e = np.clip(e, -4, 11) + 4
    p = ax * pow10.take(15 - e)
    ok &= (p >= 1e11 + 1.0) & (p <= 1e12 - 1.0) & (np.abs(p - np.floor(p) - 0.5) > 2.0**-12)
    n = np.where(ok, np.rint(p), 1e11).astype(np.int64)
    d0, n = np.divmod(n, 10**8)
    d1, d2 = np.divmod(n, 10**4)
    out[..., 0] = prefix.take(np.where(x < 0.0, 16, 0) + e)
    hi = digits.take(10_000 + d2) | zeros_hi.take(e)
    lo = (digits.take(np.where(d2 == 0, 10_000, 0) + d1) << np.uint64(32)
          | digits.take(np.where((d1 | d2) == 0, 10_000, 0) + d0) | zeros_lo.take(e))
    up_lo, up_hi = lo & ~keep_lo.take(e), hi & ~keep_hi.take(e)
    frac = (up_lo | up_hi) != 0
    # the bytes after the integer part (up) move up one byte; the point goes in the gap
    out[..., 1] = lo ^ up_lo | up_lo << np.uint64(8) | np.where(frac, point_lo.take(e), 0)
    out[..., 2] = (hi ^ up_hi | up_hi << np.uint64(8) | up_lo >> np.uint64(56)
                   | np.where(frac, point_hi.take(e), 0))
    for i in zip(*np.nonzero(~ok)):
        out[i] = _words(f",{fmt(float(x[i]))}".encode(), _CSV_FIELD)


def sample_csv_blocks(sample: FamilySample) -> Iterator[bytes]:
    """The sample CSV as ASCII bytes: the header line, then blocks of ``_CSV_BLOCK_ROWS`` rows.

    Fixed column order, every number as :func:`fmt` writes it.  Each row is
    built in fixed slots of uint64 words padded with NUL bytes, which
    ``translate`` drops.  ``sign`` is +-1.
    """
    yield f"{SAMPLE_CSV_HEADER}\n".encode()
    text = f"{fmt(sample.a)},{fmt(sample.b)}".encode()
    head = _words(text, -(-len(text) // 8))
    ends = _words(b",-1\n", 1)[0], _words(b",1\n", 1)[0]
    cols = (sample.c, sample.cp, sample.r, sample.tau, sample.eta)
    for lo in range(0, sample.n, _CSV_BLOCK_ROWS):
        part = slice(lo, lo + _CSV_BLOCK_ROWS)
        sign = sample.sign[part]
        rows = np.empty((len(sign), len(head) + 5 * _CSV_FIELD + 1), _U64)
        rows[:, :len(head)] = head
        # a view of each row's field words, as 5 fields of _CSV_FIELD words
        _csv_fields(np.stack([col[part] for col in cols], axis=1),
                    rows[:, len(head):-1].reshape(len(sign), 5, _CSV_FIELD))
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
