"""The states the tests read, each written once: the worked state, the inputs of
open defects, seeded state classes, local frames and decimal references.

Tests import it as ``from states import ...`` (pytest puts this directory on
``sys.path``).  What stays out: ``gdiscord.verification``'s ``random_*``
generators, which ``gdiscord verify`` runs and tests import from there, and
perfbench's own generators, which keep the benchmark independent of the code
it measures.  Nothing in ``src/`` or ``perfbench/`` imports this module.
"""

import decimal
import fractions
import math

import numpy as np

from gdiscord import (
    NormalFormCM,
    OutOfFamily,
    embed_normal_form,
    family_cm_from_params,
    membership,
    normal_form_from_cm,
    rotation_matrix,
    squeezer_matrix,
)
from gdiscord.symplectic import bona_fide_normal_form_mask
from gdiscord.verification import (
    random_family_params,
    random_local_frames,
    random_normal_forms,
    random_squeezed_thermal,
)

# the worked state V(5, 2, sqrt 6, -sqrt 6): an EPR state of b = 2 through
# the amplifier tau = 2, eta = 1, with nu_minus = 1 and nu_plus = 4
WORKED_NF = NormalFormCM(5.0, 2.0, math.sqrt(6.0), -math.sqrt(6.0))
WORKED_CM = embed_normal_form(WORKED_NF)
WORKED_CM.flags.writeable = False  # one array for every test module

# open defects, each the input of a strict xfail test: an accepted near-pure
# state whose discord reads -3.3e-10, a boundary squeezed-thermal state that
# decompose puts out of the family (ROADMAP item 2), and a state whose
# witness r reads 1/r in a frame that misses the pattern match (item 4)
NEGATIVE_DISCORD_NF = NormalFormCM(2.0, 1.0, 3e-5, -1e-5)
BOUNDARY_SQUEEZED_THERMAL_NF = NormalFormCM(
    4.325826795419861, 1.0336081784686835, 0.4230736790517374, -0.4230736790517374)
FRAME_DEPENDENT_WITNESS_NF = NormalFormCM(
    2.636796545476645, 3.9724079298444064, 2.5576493952517754, -2.678161171105045)
# a family state whose ab - c^2 (about 194.6) is formed from products of about
# 6.5e17, so both routes lose digits (items 2, 12 and 17): the numeric route
# reads 0.6218 and the closed form -0.2542, where discord_reference, the
# invariant formula (Adesso & Datta 2010) in decimal, reads the value below
CANCELLING_NF = NormalFormCM(
    776597626.7080388, 835407354.672399, 805465932.8444784, -237423594.40312833)
CANCELLING_DISCORD = 0.0275687256574229

# parameters of the extreme-scale sweep: each of a, b, c, cp is drawn from these,
# with either sign on c and cp
EXTREME_VALUES = [1e-320, 1e-300, 1e-160, 1e-16, 0.0, 0.5, 1.0, 1.0 + 1e-16, 1.0 - 1e-16,
                  1.0 + 1e-10, 2.0, 3.0, 1e8, 1e77, 1e78, 1e154, 1e160, 1e300, 1e308]


def local_frame(block_a, block_b):
    """The local map ``block_a (+) block_b``: a 2x2 block on each mode, as a 4x4 matrix."""
    S = np.zeros((4, 4))
    S[:2, :2], S[2:, 2:] = block_a, block_b
    return S


def local_symplectic(rng):
    """Random rotation times squeezer on each mode, squeezes log-uniform in [1/3, 3]."""
    return local_frame(*(rotation_matrix(rng.uniform(0, math.pi)) @ squeezer_matrix(
        math.exp(rng.uniform(-math.log(3.0), math.log(3.0)))) for _ in range(2)))


def squeezed_rotations(rng):
    """Random squeezer of U[0.3, 3] times rotation on each mode."""
    return local_frame(*(squeezer_matrix(rng.uniform(0.3, 3.0)) @ rotation_matrix(
        rng.uniform(0, np.pi)) for _ in range(2)))


# pi on mode A takes (c, cp) to (-c, -cp), pi/2 on both modes swaps c and cp,
# and 1e-9 on mode A misses the normal-form pattern match
FIXED_FRAME_ANGLES = ((math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi), (1e-9, 0.0))
FIXED_FRAMES = tuple(local_frame(rotation_matrix(phi_a), rotation_matrix(phi_b))
                     for phi_a, phi_b in FIXED_FRAME_ANGLES)


def verify_cms(rng, n):
    """The CMs of verify's ``random_normal_forms(rng, n)``, one at a time."""
    for nf in zip(*random_normal_forms(rng, n)):
        yield embed_normal_form(NormalFormCM(*map(float, nf)))


def seeded_states(rng, n):
    """Seeded normal forms, every other one under a random local symplectic."""
    for i, V in enumerate(verify_cms(rng, n)):
        if i % 2:
            S = local_symplectic(rng)
            V = S @ V @ S.T
        yield V


def classed_normal_forms(rng, n):
    """n each of squeezed-thermal, family, out-of-family and symmetric squeezed-thermal states."""
    a, b, c = random_squeezed_thermal(rng, n)
    yield from (NormalFormCM(*map(float, row), -float(row[2])) for row in zip(a, b, c))
    yield from (family_cm_from_params(fp) for fp in random_family_params(rng, n))
    outside = 0
    for nf in zip(*random_normal_forms(rng, 4 * n)):
        nf = NormalFormCM(*map(float, nf))
        try:
            membership(nf)
        except OutOfFamily:
            outside += 1
            yield nf
        if outside == n:
            break
    for b in rng.uniform(1.0, 20.0, n):  # symmetric squeezed thermal: a degenerate spectrum
        c = math.sqrt((b * b - 1.0) * rng.uniform(0.0, 1.0))
        yield NormalFormCM(b, b, c, -c)


def scalar_normal_forms(rng, n):
    """A list of n bona fide normal forms of variances up to 5, drawn one scalar at a time."""
    out = []
    while len(out) < n:
        a = rng.uniform(1.0, 5.0)
        b = rng.uniform(1.0, 5.0)
        half = math.sqrt(max(a * b - 1.0 - abs(a - b), 0.0))
        c = rng.uniform(-half, half)
        cp = rng.uniform(-half, half)
        if bona_fide_normal_form_mask(a, b, c, cp):
            out.append(NormalFormCM(a, b, c, cp))
    return out


def _local_frame_forms(rng, n):
    forms = scalar_normal_forms(rng, n)
    return [normal_form_from_cm(S @ embed_normal_form(nf) @ S.T)
            for nf, S in zip(forms, random_local_frames(rng, n))]


def _equal_variance_forms(rng, n):
    out = []
    while len(out) < n:
        a = rng.uniform(1.0, 5.0)
        c, cp = rng.uniform(-1.0, 1.0, 2) * math.sqrt(a * a - 1.0)
        if bona_fide_normal_form_mask(a, a, c, cp):
            out.append(NormalFormCM(a, a, c, cp))
    return out


def _positive_product_forms(rng, n):
    out = []
    while len(out) < n:
        a, b = rng.uniform(1.0, 5.0, 2)
        c, cp = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.0, 2) * math.sqrt(a * b - 1.0)
        if bona_fide_normal_form_mask(a, b, c, cp):
            out.append(NormalFormCM(a, b, c, cp))
    return out


def _boundary_squeezed_thermal_forms(rng, n):
    out = []
    for a, b in rng.uniform(1.0, 5.0, (n, 2)):
        c = math.sqrt(a * b - 1.0 - abs(a - b))  # nu_minus = 1
        out.append(NormalFormCM(a, b, c, -c))
    return out


# each class draws n normal forms with variances up to 5, unless named
# otherwise.  Left out: pure EPR states of large b in a squeezed frame, whose
# input fixes ab - c^2 only to eps b^2, so no formula can do better than that
# noise floor (ROADMAP item 2)
SPECTRUM_CLASSES = {
    "generic": scalar_normal_forms,
    "local-frame": _local_frame_forms,
    "thermal-product-to-1e8": lambda rng, n: [
        NormalFormCM(*(10.0 ** rng.uniform(0.0, 8.0, 2)), 0.0, 0.0) for _ in range(n)],
    "a-equals-b": _equal_variance_forms,
    "positive-c-cp": _positive_product_forms,
    "boundary-squeezed-thermal": _boundary_squeezed_thermal_forms,
}


def spectrum_reference(a, b, c, cp):
    """(nu_minus, nu_plus) of V(a, b, c, cp) from Delta and det V, in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b, c, cp = map(decimal.Decimal, (a, b, c, cp))
        delta = a * a + b * b + 2 * c * cp
        root = max(delta * delta - 4 * (a * b - c * c) * (a * b - cp * cp), 0).sqrt()
        return ((delta - root) / 2).sqrt(), ((delta + root) / 2).sqrt()


def h_reference(x, digits=40):
    """h(x) in decimal arithmetic at log10(x) + digits: the form cancels about log10(x) of them.

    x <= 1, the vacuum or a rounding step below it, gives 0.
    """
    if x <= 1:
        return decimal.Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = int(math.log10(x)) + digits
        xp, xm = (decimal.Decimal(x) + 1) / 2, (decimal.Decimal(x) - 1) / 2
        return (xp * xp.ln() - xm * xm.ln()) / decimal.Decimal(2).ln()


def thermal_reference(tau, eta):
    """(omega, n_bar) = (eta / d, (eta - d) / (2 d)), d = |1 - tau|, in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        eta, d = decimal.Decimal(eta), abs(1 - decimal.Decimal(tau))
        return eta / d, (eta - d) / (2 * d)


def discord_reference(a, b, c, cp):
    """D(A|B) of V(a, b, c, cp), mode B measured, from its local invariants.

    The formula of Adesso & Datta, PRL 105, 030501 (2010): ``h(sqrt det B) -
    h(nu-) - h(nu+) + h(sqrt E_min)``.  det A, det B, det C and det V are exact
    Fractions of the floats; nu+-, E_min and h are then evaluated in decimal at
    40 + 2.2 x the largest decimal exponent of the entries, as the terms cancel
    more the larger the state: a fixed 40 or 80 digits reads 3e100,... as
    exactly 0.  Every root takes max(., 0).  b = 1 raises: that branch of E_min
    divides by (det B - 1)^2.
    """
    digits = 40 + int(2.2 * max(0, *(decimal.Decimal(abs(x)).adjusted() for x in (a, b, c, cp))))
    a, b, c, cp = map(fractions.Fraction, (a, b, c, cp))
    dets = a * a, b * b, c * cp, (a * b - c * c) * (a * b - cp * cp)
    zero = decimal.Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        det_a, det_b, det_c, det_v = (decimal.Decimal(f.numerator) / f.denominator for f in dets)
        delta = det_a + det_b + 2 * det_c
        root = max(delta * delta - 4 * det_v, zero).sqrt()
        c2 = det_c * det_c
        if (det_v - det_a * det_b) ** 2 <= (1 + det_b) * c2 * (det_a + det_v):
            x = (det_b - 1) * (det_v - det_a)
            e_min = (2 * c2 + x + 2 * abs(det_c) * max(c2 + x, zero).sqrt()) / (det_b - 1) ** 2
        else:
            y = det_a * det_b - c2 + det_v
            e_min = (y - max(y * y - 4 * det_a * det_b * det_v, zero).sqrt()) / (2 * det_b)
        terms = (det_b, (delta - root) / 2, (delta + root) / 2, e_min)  # the squares of h's arguments
        s_b, s_minus, s_plus, s_min = (h_reference(max(t, zero).sqrt(), digits) for t in terms)
        return float(s_b - s_minus - s_plus + s_min)
