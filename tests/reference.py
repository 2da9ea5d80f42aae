"""Brute-force reference values computed with scipy only.

Everything here deliberately avoids the package's own quadrature so the
tests compare two unrelated code paths.
"""

import math

import numpy as np
from scipy.integrate import quad


def f_ref(p: float, t: float, nu: float) -> float:
    """2 int_0^inf u^nu exp(-u^p - t u^(2p-2)) du by QUADPACK.

    For nu < 0 the algebraic endpoint weight handles the singularity on
    [0, 1]; the tail is smooth.
    """
    def g(u):
        return math.exp(-u ** p - t * u ** (2.0 * p - 2.0))

    if nu < 0.0:
        head = quad(g, 0.0, 1.0, weight="alg", wvar=(nu, 0.0),
                    epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    else:
        head = quad(lambda u: u ** nu * g(u), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    tail = quad(lambda u: u ** nu * g(u), 1.0, np.inf,
                epsabs=1e-13, epsrel=1e-13, limit=300)[0]
    return 2.0 * (head + tail)


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def pball_volume(p: float, n: int) -> float:
    """(2 Gamma(1 + 1/p))^n / Gamma(1 + n/p)."""
    return ((2.0 * math.gamma(1.0 + 1.0 / p)) ** n
            / math.gamma(1.0 + n / p))


# F_3(0; 0) = (2/3) Gamma(1/3), frozen from mpmath at 50 digits
F3_AT_ZERO = 1.7859590231384985


# log F_p(t; nu) near p = 1, keyed (p, t, "0" | "p-2") with nu = p - 2.0
# for "p-2".  Frozen from mpmath at 20 digits in the variable y = log u:
# the integrand exp((nu+1) y - e^(p y) - t e^((2p-2) y)) integrated by
# Gauss-Legendre between the points where it falls e^-90 below its peak,
# with breakpoints at the peak +- 3, 10 and 40 curvature widths and at
# y = -5, 0, 3.  scipy QUADPACK in the same variable agrees to 1e-15
# relative, and at t = 1e4 the large-t leading term
# log(Gamma(s)/(p-1)) - s log t, s = 1/(2p-2), agrees to 1e-16.
LOG_F_NEAR_ONE = {
    (1.01, 0.5, "0"): 0.19475377556908095,
    (1.01, 10.0, "0"): -9.1632528974800571,
    (1.01, 100.0, "0"): -81.087595247714947,
    (1.01, 1e4, "0"): -311.34610446647592,
    (1.01, 0.5, "p-2"): 5.1383353464330091,
    (1.01, 10.0, "p-2"): 4.0262335600964845,
    (1.01, 100.0, "p-2"): 2.8749500359187449,
    (1.01, 1e4, "p-2"): 0.5723649429246992,
    (1.005, 0.5, "0"): 0.19393533141666923,
    (1.005, 10.0, "0"): -9.243295109231034,
    (1.005, 100.0, "0"): -96.796322704888468,
    (1.005, 1e4, "0"): -556.60151446150464,
    (1.005, 0.5, "p-2"): 5.833503145609098,
    (1.005, 10.0, "p-2"): 4.7193814718672732,
    (1.005, 100.0, "p-2"): 3.5680972164787124,
    (1.005, 1e4, "p-2"): 1.2655121234846667,
    (1.003, 0.5, "0"): 0.19361629500369529,
    (1.003, 10.0, "0"): -9.2706489831230185,
    (1.003, 100.0, "0"): -98.533430176392948,
    (1.003, 1e4, "0"): -844.88684341899974,
    (1.003, 0.5, "p-2"): 6.345141812395875,
    (1.003, 10.0, "p-2"): 5.2302073342491784,
    (1.003, 100.0, "p-2"): 4.0789228402447179,
    (1.003, 1e4, "p-2"): 1.7763377472506722,
}


# log F_p(t; nu) for nu near -1, keyed (p, t, nu).  Frozen from mpmath at
# 30 digits in the variable y = log u: the integrand
# exp((nu+1) y - e^(p y) - t e^((2p-2) y)) integrated by Gauss-Legendre
# on 200 equal pieces of [y0, log(300)/min(p, 2p-2) + 1], where y0 puts
# e^(p y) + t e^((2p-2) y) below 1e-40, plus the part below y0 in closed
# form, e^((nu+1) y0)/(nu+1).  At t = 0 the same recipe gives
# log((2/p) Gamma((nu+1)/p)) to 1e-30, and at p = 2 it gives
# log(Gamma((nu+1)/2) (1+t)^(-(nu+1)/2)).
LOG_F_NU_NEAR_MINUS_ONE = {
    (1.5, 0.0, -0.999): 7.6005180145210493,
    (1.5, 0.5, -0.999): 7.6001295336519016,
    (1.5, 1000.0, -0.999): 7.5934182826236665,
    (2.0, 0.0, -0.999): 7.6006140572763203,
    (2.0, 0.5, -0.999): 7.6004113247222662,
    (2.0, 1000.0, -0.999): 7.5971596798866626,
    (3.0, 0.0, -0.999): 7.6007101456908367,
    (3.0, 0.5, -0.999): 7.6006005222146798,
    (3.0, 1000.0, -0.999): 7.5990295491607181,
    (8.0, 0.0, -0.999): 7.6008303204342337,
    (8.0, 0.5, -0.999): 7.6007949969630198,
    (8.0, 1000.0, -0.999): 7.600365686102557,
    (1.5, 0.0, -0.9999): 9.9034490751472017,
    (1.5, 0.5, -0.9999): 9.9034102124732123,
    (1.5, 1000.0, -0.9999): 9.902739060863552,
    (2.0, 0.0, -0.9999): 9.9034586938091106,
    (2.0, 0.5, -0.9999): 9.9034384205537052,
    (2.0, 1000.0, -0.9999): 9.9031132560701449,
    (3.0, 0.0, -0.9999): 9.9034683129279122,
    (3.0, 0.5, -0.9999): 9.9034573517364418,
    (3.0, 1000.0, -0.9999): 9.9033002568527194,
    (8.0, 0.0, -0.9999): 9.9034803374689366,
    (8.0, 0.5, -0.9999): 9.9034768053657421,
    (8.0, 1000.0, -0.9999): 9.9034338748000212,
    (1.5, 0.0, -0.99999): 12.206068797466846,
    (1.5, 0.5, -0.99999): 12.206064911053461,
    (1.5, 1000.0, -0.99999): 12.205997795627291,
    (2.0, 0.0, -0.99999): 12.206069759476962,
    (2.0, 0.5, -0.99999): 12.206067732151421,
    (2.0, 1000.0, -0.99999): 12.206035215703065,
    (3.0, 0.0, -0.99999): 12.206070721491647,
    (3.0, 0.5, -0.99999): 12.206069625384063,
    (3.0, 1000.0, -0.99999): 12.206053915919914,
    (8.0, 0.0, -0.99999): 12.206071924016429,
    (8.0, 0.5, -0.99999): 12.206071570808549,
    (8.0, 1000.0, -0.99999): 12.20606727775718,
}

# V_1 of the n = 2 unit p-ball is half the perimeter of the unit l_p
# circle, 4 * int_0^(2^(-1/p)) sqrt(1 + x^(2p-2) (1-x^p)^(2/p-2)) dx,
# frozen from mpmath at 30 digits (the same quadrature gives pi at p = 2)
HALF_PERIMETER_NEAR_ONE = {
    1.005: 2.828456018421341796,
    1.003: 2.8284375531314036676,
}

# Surface moments int_boundary prod |x_k|^lambda_k dS of weighted p-balls
# in R^3, keyed (p, weights, lambdas).  scipy dblquad over one octant of
# S^2, times 8, of the radial surface element dS = |grad g(w)| g(w)^(-3)
# d sigma(w) with g(x) = (sum |a_i x_i|^p)^(1/p), the moment weight taken
# at the boundary point x = w / g(w); epsabs 1e-13, epsrel 1e-12 (the
# lambda_1 = -0.5 case reports an error estimate of 1.9e-9).
SURFACE_MOMENT_DBLQUAD = {
    (1.5, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)): 10.11751444300269,
    (3.0, (1.0, 0.5, 2.0), (0.0, 0.0, 0.0)): 19.35116620111168,
    (2.5, (1.0, 1.4, 0.9), (2.0, 0.0, 0.0)): 4.608538974382685,
    (1.2, (1.0, 1.0, 1.0), (-0.5, 0.3, 0.0)): 14.541883780307465,
}
