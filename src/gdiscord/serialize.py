"""Stable JSON/CSV input and output formats.

Numbers are emitted with 12 significant digits, '.' decimal separator and no
locale dependence, so identical requests produce byte-identical output.
"""

from __future__ import annotations

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
    u_raw = payload["u"]
    if isinstance(u_raw, str):
        text = u_raw.strip().lower()
        if text in ("inf", "infinity", "+inf"):
            u = math.inf
        else:
            u = _as_float(u_raw, "u")
    else:
        u = _as_float(u_raw, "u")
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


def sample_csv_lines(sample: FamilySample) -> Iterator[str]:
    """CSV rows for a sample batch, fixed column order, 12 significant digits.

    Built column by column in blocks of ``_CSV_BLOCK_ROWS`` rows; ``+ 0.0``
    turns -0.0 into 0.0, as :func:`fmt` does.
    """
    yield SAMPLE_CSV_HEADER
    row = f"{fmt(sample.a)},{fmt(sample.b)}," + "{:.12g}," * 5 + "{}"
    for lo in range(0, sample.n, _CSV_BLOCK_ROWS):
        part = slice(lo, lo + _CSV_BLOCK_ROWS)
        cols = [(col[part] + 0.0).tolist()
                for col in (sample.c, sample.cp, sample.r, sample.tau, sample.eta)]
        yield from map(row.format, *cols, sample.sign[part].astype(int).tolist())


def sample_to_csv(sample: FamilySample) -> str:
    return "\n".join(sample_csv_lines(sample)) + "\n"


def occupancy_to_dict(info: dict) -> dict:
    out = dict(info)
    out["extent"] = [round12(float(x)) for x in info["extent"]]
    out["coverage_fraction"] = round12(info["coverage_fraction"])
    out["grid"] = [[int(x) for x in row] for row in info["grid"]]
    return out
