import json
import math

import numpy as np
import pytest

from gdiscord import (
    NormalFormCM,
    ValidationError,
    embed_normal_form,
    gaussian_discord_numeric,
    membership,
    sample_family,
)
from gdiscord.serialize import (
    SAMPLE_CSV_HEADER,
    discord_report_to_dict,
    family_params_to_dict,
    fmt,
    parse_cm_payload,
    parse_measurement_payload,
    round12,
    sample_csv_lines,
    sample_to_csv,
)


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(2.0 / 3.0) == "0.666666666667"
        assert fmt(1.0) == "1"
        assert fmt(-0.0) == "0"
        assert fmt(1e30) == "1e+30"

    def test_round12(self):
        assert round12(0.9500672649450631) == 0.950067264945
        assert round12(math.inf) == "inf"
        assert round12(None) is None


class TestParseCM:
    def test_normal_form_only(self):
        V = parse_cm_payload({"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}})
        assert np.array_equal(V, embed_normal_form(NormalFormCM(2, 2, 1, -1)))

    def test_cm_only(self):
        V0 = embed_normal_form(NormalFormCM(2, 2, 1, -1))
        V = parse_cm_payload({"cm": V0.tolist()})
        assert np.array_equal(V, V0)

    def test_both_cross_validated(self):
        # within the cross-check tolerance; the 'cm' matrix is the one returned
        cm = embed_normal_form(NormalFormCM(3, 2, 0.5, -0.25))
        cm[0, 2] = cm[2, 0] = 0.5 + 1e-12
        payload = {"normal_form": {"a": 3, "b": 2, "c": 0.5, "cp": -0.25}, "cm": cm.tolist()}
        assert np.array_equal(parse_cm_payload(payload), cm)

    def test_disagreement_rejected(self):
        payload = {
            "normal_form": {"a": 3, "b": 2, "c": 0.5, "cp": -0.25},
            "cm": np.eye(4).tolist(),
        }
        with pytest.raises(ValidationError):
            parse_cm_payload(payload)

    def test_malformed(self):
        with pytest.raises(ValidationError):
            parse_cm_payload({})
        with pytest.raises(ValidationError):
            parse_cm_payload({"normal_form": {"a": 1, "b": 1}})
        with pytest.raises(ValidationError):
            parse_cm_payload({"cm": [[1, 2], [3, 4]]})
        with pytest.raises(ValidationError):
            parse_cm_payload({"cm": [["x"] * 4] * 4})


class TestParseOthers:
    def test_measurement(self):
        m = parse_measurement_payload({"u": 2.0, "phi": 0.25})
        assert m.u == 2.0 and m.phi == 0.25

    def test_measurement_inf(self):
        assert parse_measurement_payload({"u": "inf"}).kind == "homodyne_p"
        assert parse_measurement_payload({"u": 0}).kind == "homodyne_q"

    def test_measurement_malformed(self):
        with pytest.raises(ValidationError):
            parse_measurement_payload({"phi": 0.2})


class TestEmission:
    def test_discord_report_flat_json(self):
        V = embed_normal_form(NormalFormCM(5, 2, math.sqrt(6), -math.sqrt(6)))
        rep = gaussian_discord_numeric(V)
        d = discord_report_to_dict(rep)
        text = json.dumps(d)
        parsed = json.loads(text)
        assert parsed["discord"] == pytest.approx(0.950067264945, abs=1e-11)
        assert parsed["method"] == "numeric_scan"
        assert "u_opt" in parsed

    def test_family_params_dict(self):
        fp = membership(NormalFormCM(5, 2, math.sqrt(6), -math.sqrt(6)))
        d = family_params_to_dict(fp)
        assert d["sign"] == 1
        assert d["tau"] == pytest.approx(2.0, abs=1e-9)
        assert d["xi"] == pytest.approx(1.0, abs=1e-9)

    def test_sample_csv_shape(self):
        sample = sample_family(2.0, 2.0, 100, 5)
        text = sample_to_csv(sample)
        lines = text.strip().split("\n")
        assert lines[0] == SAMPLE_CSV_HEADER
        assert len(lines) == 101
        row = lines[1].split(",")
        assert len(row) == 8
        assert row[0] == "2" and row[1] == "2"
        assert row[7] in ("1", "-1")
        # every numeric field parses back
        for cell in row[:7]:
            float(cell)

    def test_csv_deterministic(self):
        s1 = sample_to_csv(sample_family(2.0, 2.0, 500, 9))
        s2 = sample_to_csv(sample_family(2.0, 2.0, 500, 9))
        assert s1 == s2

    def test_csv_negative_zero(self):
        # two row blocks; -0.0 in every float column and a -1 sign
        sample = sample_family(2.0, 2.0, 10_000, 11)
        cols = (sample.c, sample.cp, sample.r, sample.tau, sample.eta)
        for col in cols:
            col[[0, 8191, 8192, 9999]] = -0.0
        sample.sign[0] = -1.0
        lines = list(sample_csv_lines(sample))
        assert lines[1] == "2,2,0,0,0,0,0,-1"
        ref = [SAMPLE_CSV_HEADER] + [
            ",".join([fmt(sample.a), fmt(sample.b)] + [fmt(col[i]) for col in cols]
                     + [str(int(sample.sign[i]))])
            for i in range(sample.n)
        ]
        assert lines == ref
        assert sample_to_csv(sample) == "\n".join(ref) + "\n"
