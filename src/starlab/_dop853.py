"""DOP853 with dense output and one terminal downward event, with scipy's bits.

The explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince in the
form of Hairer, Norsett & Wanner (Solving ODEs I, sec. II.5; their Fortran
DOP853), as scipy.integrate implements it (BSD-3 licensed): the step and its
error norm (`RungeKutta._step_impl`, `rk_step`, `DOP853._estimate_error_norm`),
the initial step (`select_initial_step`), the degree-7 dense output
(`_dense_output_impl`) and the event root, found by a port of scipy's C
brentq.  Every numpy call is scipy's, in the same order and on the same array
layouts, so `dop853` returns the steps, dense coefficients and root that
`solve_ivp(..., method="DOP853", dense_output=True, events=...)` computes, bit
for bit; tests/test_profiles.py runs scipy as the oracle.  Like scipy, the
solve raises rtol (not atol) to 100 eps, but without a warning.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_MAX_STEPS = 10_000     # a solve that has not met its event by then ends with a message
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_ORDER = 7
_EXPONENT = -1 / (_ERROR_ORDER + 1)
_N_STAGES = 12

# The tableau, as text from scipy's dop853_coefficients.py: nodes of the 16
# stages (12 for the step, the weights' stage, 3 for the dense output) and the
# nonzero entries {row: {column: value}} of the stage matrix (row 12: weights B).
_C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
              0.1, 0.2, 0.777777777777777777777777777778])
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
_D_ROWS = {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
}
_E5_ROWS = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
        6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
        8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
        10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_E3_SHIFT = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}

_A = np.zeros((16, 16))
for _i, _row in _A_ROWS.items():
    _A[_i, list(_row)] = list(_row.values())
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.append(_B, 0.0)
_E3[list(_E3_SHIFT)] -= list(_E3_SHIFT.values())
_E5 = np.zeros(_N_STAGES + 1)
_E5[list(_E5_ROWS)] = list(_E5_ROWS.values())
_D = np.zeros((4, 16))
for _i, _row in _D_ROWS.items():
    _D[_i, list(_row)] = list(_row.values())


class Solution(NamedTuple):
    """Accepted steps in arrays, the event root and the state there."""

    t_old: np.ndarray           # start of each step
    h: np.ndarray               # its size
    y_old: np.ndarray           # (steps, n) state at its start
    F: np.ndarray               # (steps, 7, n) dense-output coefficients
    t_event: float | None       # None: no crossing before the end of the span
    y_event: np.ndarray | None
    message: str | None         # why the solve failed; None if it did not


def _horner(f, y_old, x):
    """scipy's Dop853DenseOutput sum at x = (t - t_old) / h, with f = F reversed (+ 0.0 gives
    the +0.0 of its 0 + F[-1]): times x and 1 - x in turn, y_old last."""
    v = f[0] * x
    for i in range(1, len(f)):
        v = (v + f[i]) * (x if i % 2 == 0 else 1 - x)
    return v + y_old


class DenseOutput:
    """First n states of a solution's dense output in arrays: {state: values}, scipy's bits.

    Segment = step starts after the first below t (OdeSolution's clamped searchsorted).
    """

    def __init__(self, sol, n):
        self.ts = sol.t_old[1:]
        self.t_old, self.h = sol.t_old, sol.h
        self.y_old = sol.y_old.T[:n]
        self.F = sol.F[:, ::-1, :n].transpose(2, 1, 0) + 0.0   # (state, Horner step, segment)

    def __call__(self, t, rows) -> dict:
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self.ts, t, side="left")
        x = (t - self.t_old[seg]) / self.h[seg]
        F, y_old = self.F[:, :, seg][rows], self.y_old[:, seg][rows]
        return {r: _horner(f, y, x) for r, f, y in zip(rows, F, y_old)}


def _norm(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, direction, rtol, atol):
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length, max_step)


def _stages(fun, t, y, h, K, rows, nodes, start):
    for s, (a, c) in enumerate(zip(rows, nodes), start=start):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)


def _step(fun, t, y, f, h_abs, direction, t_bound, max_step, rtol, atol, K):
    """One accepted step from t: (t_new, y_new, f_new, h, next h_abs), or None if it shrank
    below ten spacings of t."""
    min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
    h_abs = max_step if h_abs > max_step else min_step if h_abs < min_step else h_abs
    rejected = False
    while h_abs >= min_step:
        t_new = t + h_abs * direction
        if direction * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)
        K[0] = f
        _stages(fun, t, y, h, K, _A[1:_N_STAGES], _C[1:_N_STAGES], 1)
        y_new = y + h * np.dot(K[:-1].T, _B)
        f_new = K[-1] = fun(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.dot(K.T, _E5) / scale
        err3 = np.dot(K.T, _E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
        if error_norm < 1:
            factor = (_MAX_FACTOR if error_norm == 0
                      else min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT))
            return t_new, y_new, f_new, h, h_abs * (min(1, factor) if rejected else factor)
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
        rejected = True
    return None


def _dense(fun, K, t_old, h, y_old, y, f):
    """The step's seven dense-output coefficients, after three more stages."""
    _stages(fun, t_old, y_old, h, K, _A[_N_STAGES + 1:], _C[_N_STAGES + 1:], _N_STAGES + 1)
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)
    return F


def dop853(fun, t_span, y0, tol, max_step, row, level) -> Solution:
    """Integrate y' = fun(t, y) over t_span until y[row] - level falls through zero.

    scipy's solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol,
    max_step=max_step, dense_output=True, events=e), with e(t, y) = y[row] - level
    terminal and of direction -1: its steps and its root, each with scipy's bits.
    Unlike scipy, it gives up with a message after _MAX_STEPS steps without the event.
    """
    def rhs(t, y):
        return np.asarray(fun(t, y), dtype=float)

    t, t_bound = map(float, t_span)
    g = y0[row] - level
    y = np.asarray(y0).astype(float, copy=False)
    direction = np.sign(t_bound - t) if t_bound != t else 1
    rtol, atol = max(tol, 100 * _EPS), np.asarray(tol)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, t_bound, max_step, f, direction, rtol, atol)
    K = np.empty((16, y.size))
    steps = []

    def solution(t_event=None, y_event=None, message=None):
        arrays = [np.array(a) for a in zip(*steps)] or [np.empty(0)] * 4
        return Solution(*arrays, t_event, y_event, message)

    while t != t_bound:
        if len(steps) == _MAX_STEPS:
            return solution(message=f"no event within {_MAX_STEPS} steps, up to t = {t:.6g}")
        step = _step(rhs, t, y, f, h_abs, direction, t_bound, max_step, rtol, atol,
                     K[:_N_STAGES + 1])
        if step is None:
            return solution(message=_TOO_SMALL_STEP)
        t_old, y_old = t, y
        t, y, f, h, h_abs = step
        F = _dense(rhs, K, t_old, h, y_old, y, f)
        steps.append((t_old, h, y_old, F))
        g_new = y[row] - level
        if g >= 0 and g_new <= 0:
            F_rev = F[::-1] + 0.0

            def at(s):
                return _horner(F_rev, y_old, (s - t_old) / h)

            root = brentq(lambda s: at(s)[row] - level, t_old, t)
            if root is None:
                return solution(message="the event root is not bracketed by the dense output")
            return solution(root, at(root))
        g = g_new
        if direction * (t - t_bound) >= 0:
            break
    return solution()


def brentq(f, a, b):
    """A root of f in [a, b]: scipy's C brentq (optimize/Zeros/brentq.c), step for step,
    at the event tolerance xtol = rtol = 4 eps and 100 iterations.

    None where scipy raises: f(a) and f(b) of one sign, a NaN value, or no
    convergence.
    """
    xtol = rtol = 4 * _EPS
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0) or fpre != fpre or fcur != fcur:
        return None
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            spre, scur = (scur, stry) if 2 * abs(stry) < bound else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if fcur != fcur:
            return None
    return None
