import json
import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    NormalFormCM,
    ValidationError,
    embed_normal_form,
    gaussian_discord_numeric,
    membership,
    sample_family,
)
from gdiscord.discord import DiscordReport
from gdiscord.family import FamilySample
from gdiscord.samplecsv import (
    _CSV_BLOCK_ROWS,
    _CSV_FIELD,
    SAMPLE_CSV_HEADER,
    _csv_fields,
    _csv_workspace,
    sample_csv_blocks,
    sample_csv_lines,
    sample_to_csv,
)
from gdiscord.serialize import (
    discord_report_to_dict,
    family_params_to_dict,
    fmt,
    parse_cm_payload,
    parse_measurement_payload,
    round12,
)
from states import WORKED_CM, WORKED_NF


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

    @pytest.mark.parametrize("cm", [list(range(16)), [list(range(8))] * 2], ids=["flat", "2x8"])
    def test_cm_is_four_rows_of_four(self, cm):
        # sixteen numbers in another shape are not reshaped: the CM gate names the shape
        with pytest.raises(ValidationError, match="expected 4x4 matrix"):
            parse_cm_payload({"cm": cm})

    def test_nan_normal_form_disagrees_with_any_cm(self):
        payload = {"normal_form": {"a": 2, "b": 2, "c": 1, "cp": math.nan},
                   "cm": NormalFormCM(2, 2, 1, -1).rows()}
        with pytest.raises(ValidationError, match="disagree"):
            parse_cm_payload(payload)


class TestParseOthers:
    def test_measurement(self):
        m = parse_measurement_payload({"u": 2.0, "phi": 0.25})
        assert m.u == 2.0 and m.phi == 0.25

    def test_measurement_inf(self):
        # float() spellings of +inf, with the surrounding space and case it allows
        for text in ("inf", " INF ", "+Infinity", "infinity", "+inf"):
            assert parse_measurement_payload({"u": text}).u == math.inf, text
        assert parse_measurement_payload({"u": "1e308"}).u == 1e308
        assert parse_measurement_payload({"u": 0}).u == 0.0

    def test_measurement_malformed(self):
        for payload in ({"phi": 0.2}, {"u": "abc"}, {"u": None}):
            with pytest.raises(ValidationError):
                parse_measurement_payload(payload)
        for payload in ({"u": 10**400}, {"u": 1, "phi": -10**400}):
            with pytest.raises(ValidationError, match="past the float range"):
                parse_measurement_payload(payload)
        for text in ("-inf", "nan"):
            with pytest.raises(DomainError, match="u must be >= 0"):
                parse_measurement_payload({"u": text})


class TestEmission:
    def test_discord_report_flat_json(self):
        V = WORKED_CM
        rep = gaussian_discord_numeric(V)
        d = discord_report_to_dict(rep)
        text = json.dumps(d)
        parsed = json.loads(text)
        assert parsed["discord"] == pytest.approx(0.950067264945, abs=1e-11)
        assert parsed["method"] == "numeric_scan"
        assert "u_opt" in parsed

    def test_report_fields_round_as_round12(self):
        # round12 formats in line, without fmt; each finite report field reads
        # as float(fmt(x)), -0.0 as 0.0, and the infinities spell "inf" and "-inf"
        values = (-0.0, math.inf, -math.inf, 2.0 / 3.0, -1e-320, 1e308, 0.0)
        rep = DiscordReport(*values, "numeric_scan", 0.9500672649450631, -0.0)
        d = discord_report_to_dict(rep)
        assert list(d) == list(rep._fields)
        spelled = {math.inf: "inf", -math.inf: "-inf"}
        assert repr(d) == repr({name: value if name == "method" else spelled.get(value) or float(fmt(value))
                                for name, value in zip(rep._fields, rep)})
        assert json.dumps([d["s_a"], d["phi_opt"], d["s_b"], d["s_ab"]]) == '[0.0, 0.0, "inf", "-inf"]'
        nan = discord_report_to_dict(rep._replace(discord=math.nan))["discord"]
        assert math.isnan(nan) and math.isnan(round12(math.nan))

    def test_family_params_dict(self):
        fp = membership(WORKED_NF)
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


def _kernel_values():
    """Values for the CSV kernel: seeded, near ties, decade edges, exponent notation, specials."""
    rng = np.random.default_rng(19)
    seeded = 10.0 ** rng.uniform(-8, 14, 60_000) * rng.choice([-1.0, 1.0], 60_000)
    # 12-digit products within 2^-12 of a tie, at every fixed-notation exponent
    k = rng.integers(-4, 12, 20_000)
    scaled = rng.integers(10**11, 10**12, 20_000) + 0.5 + rng.integers(-16, 17, 20_000) * 2.0**-16
    ties = scaled / 10.0 ** (11 - k) * rng.choice([-1.0, 1.0], 20_000)
    decades = 10.0 ** np.arange(-6, 15)
    edges = np.concatenate([
        [9.9999999999995, 99999999999.95, 999999999999.5, 1e12],
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        decades * (1 - 5e-13), decades * (1 - 4.99e-13), decades * (1 - 5.01e-13),
    ])
    exponent = [1e-4, 9.99999999999e-5, 9.999999999995e-5, 1.2345e-7, 1.5e12, 1e13,
                123456789012345.0, 1e100, 1e-100]
    special = [0.0, 5e-324, 1.1e-308, math.inf, math.nan, 1.7e308]
    fixed = np.concatenate([edges, exponent, special])
    return np.concatenate([seeded, ties, fixed, -fixed])


def _kernel_fields(values):
    """The kernel's text of each value, one CSV field each."""
    x = np.array(values, float)
    out = np.empty((len(x), _CSV_FIELD), "<u8")
    _csv_fields(x, out, _csv_workspace(x.shape))
    return [row.tobytes().translate(None, b"\0").decode() for row in out]


def _with_signs(values):
    return [*values, *(-v for v in values)]


class TestCsvKernel:
    def test_integer_part_ending_in_zeros(self):
        # zeros inside the integer part are digits, never padding
        values = _with_signs([120.0, 1000.5, 699441066210.32, 100000000000.0, 10.0, 100.25,
                              5000000.0, 120000.000001, 30.5, 200000000000.4, 100.0])
        assert _kernel_fields(values) == [f",{fmt(v)}" for v in values]
        assert _kernel_fields([699441066210.32])[0] == ",699441066210"

    def test_fraction_that_rounds_away(self):
        # 12 significant digits leave no fraction digit, so no point either
        values = _with_signs([12.0000000000001, 3.0000000000004, 123456.0000004,
                              99.00000000000003, 0.1000000000000004, 0.0005000000000000001,
                              45000.00000001, 98765432101.2, 7.00000000000049])
        fields = _kernel_fields(values)
        assert fields == [f",{fmt(v)}" for v in values]
        assert fields[:3] == [",12", ",3", ",123456"]

    def test_every_fixed_exponent_and_digit_count(self):
        # e = -4 .. 11 (every exponent fmt writes without one), 1 to 12
        # significant digits: random, with inner zeros, and all nines
        rng = np.random.default_rng(22)
        values = []
        for e in range(-4, 12):
            for k in range(1, 13):
                inner = rng.integers(0, 10, max(k - 2, 0))
                for digits in ([rng.integers(1, 10), *inner, rng.integers(1, 10)][:k],
                               [1, *[0] * (k - 2), 1][:k], [9] * k):
                    text = "".join(map(str, digits))
                    values.append(float(f"{text[0]}.{text[1:]}e{e}"))
        values = _with_signs(values)
        assert _kernel_fields(values) == [f",{fmt(v)}" for v in values]

    def test_rows_match_fmt(self):
        values = _kernel_values()
        n = len(values) // 5
        assert n % 8192 != 0  # a partial last block
        cols = values[:5 * n].reshape(5, n).copy()
        sign = np.where(np.random.default_rng(20).uniform(size=n) < 0.5, 1.0, -1.0)
        sample = FamilySample(2.5, 1e-5, n, 0, *cols, sign)
        ref = [SAMPLE_CSV_HEADER] + [
            ",".join(["2.5", "1e-05"] + [fmt(float(col[i])) for col in cols]
                     + [str(int(sign[i]))])
            for i in range(n)
        ]
        assert list(sample_csv_lines(sample)) == ref
        assert sample_to_csv(sample) == "\n".join(ref) + "\n"
        assert b"".join(sample_csv_blocks(sample)) == ("\n".join(ref) + "\n").encode()

    def test_empty_sample_is_the_header(self):
        sample = FamilySample(2.0, 2.0, 0, 0, *(np.empty(0) for _ in range(6)))
        assert sample_to_csv(sample) == f"{SAMPLE_CSV_HEADER}\n"

    @pytest.mark.parametrize("n", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
    def test_blocks_reuse_one_workspace(self, n):
        # one workspace serves every block; the last block, partial but for
        # n = block, holds zeros and ties, which the fmt fallback writes
        values = _kernel_values()[:5 * n].reshape(n, 5).copy()
        values[-1] = [0.0, -0.0, 1.000000000005, -2.500000000005, 0.0]
        sign = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        sample = FamilySample(3.0, 1.25, n, 0, *values.T.copy(), sign)
        ref = "".join(f"3,1.25,{','.join(map(fmt, row))},{int(sg)}\n" for row, sg in zip(values, sign))
        assert b"".join(sample_csv_blocks(sample)) == f"{SAMPLE_CSV_HEADER}\n{ref}".encode()
