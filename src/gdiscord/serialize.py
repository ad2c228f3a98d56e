"""Stable JSON/CSV input and output formats.

Numbers are emitted with 12 significant digits, '.' decimal separator and no
locale dependence, so identical requests produce byte-identical output.
"""

from __future__ import annotations

import json
import math

from .errors import DomainError, ValidationError

# The records named in annotations here (DiscordReport, FamilySample, ...) are
# not imported: annotations stay unevaluated text, and importing their
# modules would load discord, family and remote_prep into every command.
# For the same reason the sample CSV writer lives in gdiscord.samplecsv.


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
    return float(f"{x:.12g}") + 0.0  # float(fmt(x)): the sum turns -0.0 into 0.0


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"field '{name}' must be a number, got {value!r}")
    except OverflowError:  # an int past the float range; its digits would fill the line
        raise ValidationError(f"field '{name}' is past the float range") from None


_CM_AGREEMENT_RTOL = 1e-9


def parse_cm_payload(payload: dict) -> list[list[float]]:
    """Read a CM, as four rows of four floats, from {"normal_form": {...}} and/or {"cm": [[...]]}.

    'cm' passes the CM gate :func:`symplectic._cm_rows`, whose reason a
    rejection quotes.  When both keys are present they are cross-validated
    against each other, to ``_CM_AGREEMENT_RTOL``, and the 'cm' rows are
    returned.
    """
    from .symplectic import NormalFormCM, _cm_rows

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
    """The report's fields in order, numbers rounded; a closed-form report has no u_opt, phi_opt."""
    return {name: value if name == "method" else round12(value)
            for name, value in zip(report._fields, report) if value is not None}


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
    """A ``(mean, cm)`` pair, of floats or of arrays, with its numbers rounded."""
    mean, cm = state
    return {"mean": [round12(x) for x in mean], "cm": [[round12(x) for x in row] for row in cm]}


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


_SAMPLE_CSV_NAMES = ("SAMPLE_CSV_HEADER", "sample_csv_blocks", "sample_csv_lines", "sample_to_csv")


def __getattr__(name: str):
    """The sample CSV writer's public names, read from :mod:`gdiscord.samplecsv` on first use.

    ``perfbench/ops.py`` imports them from this module.
    """
    if name not in _SAMPLE_CSV_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import samplecsv

    return getattr(samplecsv, name)
