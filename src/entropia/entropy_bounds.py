"""Closed-form and quadrature-backed entropy constants and bounds.

Every constant that is also reported numerically in the literature is
computed twice here: once from its closed form (in the log domain whenever
factorials appear) and once by an independent quadrature or Monte Carlo
route.  The dual-path discipline is the module's core correctness check.
The volume entropy of closed-form ball volumes and the norm growth of the
linear torus maps live here too, as they need nothing but `math`.  numpy
is imported only where the Monte Carlo check runs.
"""

import math


def gauss_legendre(nodes: int) -> list:
    """[(x, w)] of the `nodes`-point Gauss-Legendre rule on [-1, 1], x
    ascending: Newton's method on P_n from x = -cos(pi (i + 3/4) / (n + 1/2)),
    P_n and P_n' by the three-term recurrence."""
    rule = []
    for i in range(nodes):
        x = -math.cos(math.pi * (i + 0.75) / (nodes + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x  # P_{k-1}(x), P_k(x)
            for k in range(2, nodes + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = nodes * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


class integrate:
    """Fixed Gauss-Legendre quadrature.

    A namespace, not a function, because perfbench's tracer wraps
    `entropy_bounds.integrate.quad` to count quadrature calls; the name
    stays until the program traces itself (ROADMAP A)."""

    @staticmethod
    def quad(f, a: float, b: float, nodes: int) -> float:
        """int_a^b f by the `nodes`-point rule, exact for polynomials of
        degree below 2 nodes; f is called once per node with a float."""
        half = 0.5 * (b - a)
        return half * sum(w * f(a + half * (x + 1.0))
                          for x, w in gauss_legendre(nodes))


# Gauss-Legendre nodes: the k <= 3 Weyl integrands are polynomials of degree
# <= 5, so 4 nodes are exact; the hexagon wedge (d / cos phi)^5 is analytic on
# [-pi/6, pi/6] and 12 nodes already reach 4e-15 relative
WEYL_NODES = 4
HEXAGON_NODES = 24


class BoundsError(Exception):
    pass


class GenusTooSmall(BoundsError):
    pass


class TargetBelowRange(BoundsError):
    pass


class BudgetExceeded(BoundsError):
    pass


class QuadratureDisagreement(BoundsError):
    pass


# seed of the stratified Monte Carlo Weyl integrals
WEYL_MC_SEED = 0xE27
WEYL_MC_SAMPLES = 10_000_000
WEYL_MC_STRATA = 32


class BoundReport:
    """One computed bound or constant, ready for CSV/JSON emission."""

    def __init__(self, name: str, value: float, inputs: dict, formula_id: str,
                 tolerance: float):
        if not math.isfinite(value):
            raise BoundsError(f"non-finite value in report {name}")
        self.name, self.value, self.inputs = name, value, inputs
        self.formula_id, self.tolerance = formula_id, tolerance


# ----------------------------------------------------------------- floors

def c_n(n: int) -> float:
    """c_n = 1 / (n! omega_n)^(1/n); for instance c_2 = 1/sqrt(2 pi).

    Evaluated in the log domain: n! omega_n overflows long before the
    constant itself becomes small.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    log_omega = 0.5 * n * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)
    return math.exp(-(math.lgamma(n + 1) + log_omega) / n)


def katok_bound(genus: int, orientable: bool = True) -> float:
    """Minimal normalized entropy of surfaces of genus k >= 2:
    2 sqrt(pi (k-1)) orientable, sqrt(2 pi (k-1)) for the non-orientable
    surface covered by it."""
    if genus < 2:
        raise GenusTooSmall("genus must be >= 2")
    if orientable:
        return 2.0 * math.sqrt(math.pi * (genus - 1))
    return math.sqrt(2.0 * math.pi * (genus - 1))


def finsler_floor(genus: int, reversible: bool = False) -> float:
    """Finsler entropy floor on surfaces of genus k >= 2:
    sqrt(2(k-1)) in general, 2 sqrt(2(k-1)) for reversible metrics."""
    if genus < 2:
        raise GenusTooSmall("genus must be >= 2")
    base = math.sqrt(2.0 * (genus - 1))
    return 2.0 * base if reversible else base


# ----------------------------------------------------------------- Verovic

def verovic_constants(k: int):
    """Upper-bound constants for rank-k products of hyperbolic planes:

        c_k^BH = ((2k)! / k!)^(1/2k) / sqrt(2k)
        c_k^HT = (k!)^(1/2k) / sqrt(k)

    Factorials in the log domain.  Decreasing to sqrt(2/e) and sqrt(1/e).
    """
    if k < 1:
        raise BoundsError("k must be >= 1")
    log_bh = (math.lgamma(2 * k + 1) - math.lgamma(k + 1)) / (2.0 * k)
    c_bh = math.exp(log_bh) / math.sqrt(2.0 * k)
    c_ht = math.exp(math.lgamma(k + 1) / (2.0 * k)) / math.sqrt(k)
    return c_bh, c_ht


# ----------------------------------------------------------- Weyl integrals

_WEYL_CLOSED = {
    "ball": lambda k: math.exp(-k * math.log(2.0) - math.lgamma(k + 1)),
    "cross_polytope": lambda k: math.exp(-math.lgamma(2 * k + 1)),
    "cube": lambda k: 0.5 ** k,
}


def weyl_closed_form(k: int, body: str) -> float:
    """1/(2^k k!) for the ball, 1/(2k)! for the cross-polytope, 1/2^k cube."""
    try:
        return _WEYL_CLOSED[body](k)
    except KeyError:
        raise BoundsError(f"unknown body {body!r}") from None


# body -> radius left when x is peeled off radius r
_WEYL_PEEL = {
    "ball": lambda r, x: math.sqrt(max(r * r - x * x, 0.0)),
    "cross_polytope": lambda r, x: r - x,
}


def _weyl_quad(k: int, body: str) -> float:
    # int over body cap x>=0 of prod x_i, peeled one variable at a time:
    # I_k(r) = int_0^r x I_{k-1}(inner(r, x)) dx with I_0 = 1
    inner = _WEYL_PEEL[body]

    def rec(j, r):
        if j == 0:
            return 1.0
        return integrate.quad(lambda x: x * rec(j - 1, inner(r, x)),
                              0.0, r, WEYL_NODES)

    return rec(k, 1.0)


def _weyl_mc(k: int, body: str, n_samples: int):
    """Stratified MC (strata along the first axis) for k >= 4 regions.

    Returns (estimate, standard_error).
    """
    import numpy as np

    strata = WEYL_MC_STRATA
    per = n_samples // strata
    means = np.empty(strata)
    variances = np.empty(strata)
    for s in range(strata):
        rng = np.random.default_rng(WEYL_MC_SEED + s)
        x = rng.random((per, k))
        x[:, 0] = (s + x[:, 0]) / strata
        if body == "ball":
            mask = (x * x).sum(axis=1) <= 1.0
        else:  # cross_polytope
            mask = x.sum(axis=1) <= 1.0
        vals = np.where(mask, np.prod(x, axis=1), 0.0)
        means[s] = vals.mean()
        variances[s] = vals.var()
    est = float(means.mean())
    se = float(math.sqrt(variances.sum() / strata ** 2 / per))
    return est, se


def weyl_cell_integrals(k: int, body: str, n_samples: int = WEYL_MC_SAMPLES):
    """int of x_1 ... x_k over (body intersect R_+^k).

    Exact for the cube, else Gauss-Legendre quadrature (k <= 3, exact for
    these polynomial integrands) or stratified MC.
    Raises QuadratureDisagreement when the numerical value strays from the
    closed form by more than 3 standard errors (or 1e-8 for quadrature).

    Returns (value, standard_error).
    """
    if k > 8:
        raise BudgetExceeded("k > 8 exceeds the quadrature budget")
    closed = weyl_closed_form(k, body)
    if body == "cube":
        # product of k independent integrals of x over [0, 1]
        est, se = 0.5 ** k, 0.0
    elif k <= 3:
        est, se = _weyl_quad(k, body), 0.0
    else:
        est, se = _weyl_mc(k, body, n_samples)
    slack = max(3.0 * se, 1e-8)
    if abs(est - closed) > slack:
        raise QuadratureDisagreement(
            f"weyl integral ({k}, {body}): {est} vs closed form {closed}")
    return est, se


# ------------------------------------------------------------ SL(3)/SO(3)

def _hexagon_r3_integral() -> float:
    """int of r^3 over the regular hexagon inscribed in the unit circle,
    via the wedge formula int r(phi)^5 / 5 dphi with r = d / cos(phi),
    d = sqrt(3)/2 the apothem."""
    d = math.sqrt(3.0) / 2.0

    def wedge(phi):
        return (d / math.cos(phi)) ** 5 / 5.0

    return 6.0 * integrate.quad(wedge, -math.pi / 6.0, math.pi / 6.0,
                                HEXAGON_NODES)


def sl3_constants(tol: float = 1e-6):
    """Constants of the 5-dimensional rank-2 symmetric space SL(3)/SO(3).

    I_in = (3 sqrt(3) / 640)(27 ln 3 + 68) is re-derived by hexagon
    quadrature; also checks the dilation identity I_out = (2/sqrt(3))^5 I_in
    through c_ht = sqrt(3) / (2 c_bh).  Returns (I_in, c_bh, c_ht).
    """
    i_in_closed = 3.0 * math.sqrt(3.0) / 640.0 * (27.0 * math.log(3.0) + 68.0)
    i_in_quad = _hexagon_r3_integral()
    if abs(i_in_quad - i_in_closed) > tol * i_in_closed:
        raise QuadratureDisagreement(
            f"hexagon quadrature {i_in_quad} vs closed form {i_in_closed}")
    i_out = (2.0 / math.sqrt(3.0)) ** 5 * i_in_closed
    c_bh = (2.0 * math.pi / (5.0 * i_in_closed)) ** 0.2 * math.sqrt(3.0) / 2.0
    c_ht = (5.0 * i_out / (2.0 * math.pi)) ** 0.2 * math.sqrt(3.0) / 2.0
    if abs(c_ht - math.sqrt(3.0) / (2.0 * c_bh)) > 1e-12:
        raise QuadratureDisagreement("c_ht inconsistency with sqrt(3)/(2 c_bh)")
    return i_in_closed, c_bh, c_ht


# ------------------------------------------------------------ spectrum tuner

def _power(base: float, exponent: float) -> float:
    """base ** exponent; BoundsError when it leaves the float range."""
    try:
        value = base ** exponent
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise BoundsError(f"{base} ** {exponent} leaves the float range")
    return value


def spectrum_range_left(v_bar: float, h: float, n: int) -> float:
    """Left endpoint of the attainable range of f: v_bar^(1/(n+1)) h."""
    return v_bar ** (1.0 / (n + 1)) * h


def spectrum_tuner(v_bar: float, h: float, n: int, c: float) -> float:
    """Solve (v_bar + delta^-(n+1)) h^(n+1) = c^(n+1) for delta > 0.

    The attainable range of f(delta) = ((v_bar + delta^-(n+1)))^(1/(n+1)) h
    is (v_bar^(1/(n+1)) h, infinity); targets at or below the left endpoint,
    c <= 0 included whatever the parity of n + 1, raise TargetBelowRange;
    powers beyond the float range BoundsError.
    """
    if not (0.0 < v_bar < 1.0):
        raise BoundsError("v_bar must lie in (0, 1)")
    if h <= 0:
        raise BoundsError("h must be positive")
    if n < 1:
        raise BoundsError(f"n must be at least 1, got {n}")
    if c > 0.0 and not math.isfinite(c / h):
        raise BoundsError(f"c / h = {c} / {h} leaves the float range")
    gap = _power(c / h, n + 1) - v_bar if c > 0.0 else 0.0
    if gap <= 0.0:
        raise TargetBelowRange(
            f"target {c} at or below range left endpoint "
            f"{spectrum_range_left(v_bar, h, n)}")
    return gap ** (-1.0 / (n + 1))


def spectrum_value(v_bar: float, h: float, n: int, delta: float) -> float:
    """f(delta) = (v_bar + delta^-(n+1))^(1/(n+1)) h."""
    return (v_bar + _power(delta, -(n + 1))) ** (1.0 / (n + 1)) * h


# ------------------------------------------------------------- ball growth

class EstimatorError(Exception):
    """A growth estimate that cannot be formed; the base of the errors of
    entropy_estimators."""


class EstimateBudgetExceeded(EstimatorError):
    """An estimate whose work would pass its budget; entropy_estimators
    raises it as BudgetExceeded."""


GAMMA_BUDGET = 1_000_000  # cap on horizon * states of one Gamma estimate
GAMMA_STATES = 128        # states of the seeded grid of a Gamma estimate

# The constant Jacobians of the linear torus maps, row by row: the cat map
# of T^2 and the doubling (x -> 2x) and rotation (x -> x + alpha) maps of
# the circle.  entropy_estimators builds its numpy systems from them.
CAT = ((2.0, 1.0), (1.0, 1.0))
DOUBLING = ((2.0,),)
ROTATION = ((1.0,),)


def check_gamma_budget(horizon: int, n_states: int):
    """Raise EstimateBudgetExceeded when one Gamma estimate over `horizon`
    steps of `n_states` states would exceed GAMMA_BUDGET."""
    if horizon * n_states > GAMMA_BUDGET:
        raise EstimateBudgetExceeded(
            f"gamma over {horizon} steps of {n_states} states exceeds the "
            f"budget of {GAMMA_BUDGET} state steps")


class GrowthEstimate:
    """A growth rate: the slope `value` of a least-squares line through
    `samples` points up to `horizon`, the line's RMS `fit_residual`, and
    for a separated-set estimate its `delta`."""

    def __init__(self, value: float, horizon: float, samples: int,
                 fit_residual: float, delta: float | None = None):
        if not math.isfinite(value):
            raise EstimatorError("non-finite growth estimate")
        self.value, self.horizon, self.samples = value, horizon, samples
        self.fit_residual, self.delta = fit_residual, delta

    def __eq__(self, other):
        return type(other) is GrowthEstimate and vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"GrowthEstimate({fields})"


def _log_ball_volume(geometry, r: float) -> float:
    """log Vol(B_r); 2 pi (cosh r - 1) = pi e^r (1 - e^-r)^2 stays finite."""
    kind = geometry[0]
    if kind == "hyperbolic":
        return math.log(math.pi) + r + 2.0 * math.log1p(-math.exp(-r))
    if kind == "euclidean":
        return math.log(math.pi) + 2.0 * math.log(r)
    if kind == "scaled":
        _, c, inner = geometry
        return _log_ball_volume(inner, r / c)
    raise EstimatorError(f"unknown geometry {geometry!r}")


def _tail_line(xs, ys):
    """(slope, RMS residual) of the least-squares line through the points
    with x >= xs[-1] / 2, in closed form about the means."""
    tail = [(x, y) for x, y in zip(xs, ys) if x >= xs[-1] / 2.0]
    n = len(tail)
    x_bar = math.fsum(x for x, _ in tail) / n
    y_bar = math.fsum(y for _, y in tail) / n
    slope = (math.fsum((x - x_bar) * (y - y_bar) for x, y in tail)
             / math.fsum((x - x_bar) ** 2 for x, _ in tail))
    resid = math.fsum((slope * (x - x_bar) - (y - y_bar)) ** 2 for x, y in tail)
    return slope, math.sqrt(resid / n)


def hvol_ball_growth(geometry, r_max: float) -> GrowthEstimate:
    """Volume entropy from closed-form ball volumes: slope of log Vol(B_R)
    over [R_max/2, R_max], sampled at 200 evenly spaced radii from R_max/4
    (numpy's linspace rule, the last radius exactly R_max).

    geometry: ("hyperbolic",) curvature -1 plane, ("euclidean",), or
    ("scaled", c, inner) using B(cF, R) = B(F, R/c).
    """
    lo = r_max / 4.0
    step = (r_max - lo) / 199
    r = [i * step + lo for i in range(199)] + [r_max]
    slope, resid = _tail_line(r, [_log_ball_volume(geometry, x) for x in r])
    return GrowthEstimate(slope, float(r_max), len(r), resid)


def _norm2(m) -> float:
    """Operator 2-norm of a 1 x 1 or 2 x 2 matrix: |a|, or the largest
    singular value (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2."""
    if len(m) == 1:
        return abs(m[0][0])
    (a, b), (c, d) = m
    return (math.hypot(a + d, c - b) + math.hypot(a - d, b + c)) / 2.0


def gamma_linear(jacobian, horizon: int,
                 n_states: int = GAMMA_STATES) -> GrowthEstimate:
    """Norm growth lim (1/n) log ||d phi^n|| of a map whose Jacobian is the
    constant d x d matrix `jacobian` (rows of floats, d <= 2), such as CAT,
    DOUBLING or ROTATION, by the steps of entropy_estimators.gamma_plus:
    the cocycle is multiplied by the Jacobian, divided by its largest
    absolute entry (at least 1e-300) with that entry's log added to the
    log scale, its operator 2-norm is taken in closed form, and the tail
    half of the log-norms is fitted by a line.

    The cocycle is the same matrix power A^n at every state, so the maximum
    over gamma_plus's grid of `n_states` seeded states is the value of any
    one of them, and no state is sampled; `samples` stays `n_states`, as
    does the budget check.
    """
    if horizon < 8:
        raise EstimatorError("horizon must be at least 8")
    check_gamma_budget(horizon, n_states)
    cocycle = [[float(i == j) for j in range(len(jacobian))]
               for i in range(len(jacobian))]
    log_scale, log_norms = 0.0, []
    for _ in range(horizon):
        cocycle = [[sum(a * c[k] for a, c in zip(row, cocycle))
                    for k in range(len(row))] for row in jacobian]
        scale = max(max(abs(v) for row in cocycle for v in row), 1e-300)
        cocycle = [[v / scale for v in row] for row in cocycle]
        log_scale += math.log(scale)
        log_norms.append(log_scale + math.log(_norm2(cocycle)))
    slope, resid = _tail_line(range(1, horizon + 1), log_norms)
    return GrowthEstimate(slope, float(horizon), n_states, resid)


# -------------------------------------------------------------- reporting

def constants_report(n_list) -> list:
    rows = []
    for n in n_list:
        rows.append(BoundReport(f"c_{n}", c_n(n), {"n": n}, "c_n", 1e-12))
        rows.append(BoundReport(f"2c_{n}", 2 * c_n(n), {"n": n}, "2*c_n", 1e-12))
    return rows


def verovic_report(k_max: int) -> list:
    rows = []
    for k in range(2, k_max + 1):
        c_bh, c_ht = verovic_constants(k)
        rows.append(BoundReport(f"c_{k}^BH", c_bh, {"k": k}, "verovic_bh", 1e-12))
        rows.append(BoundReport(f"c_{k}^HT", c_ht, {"k": k}, "verovic_ht", 1e-12))
    return rows


def sl3_report() -> list:
    i_in, c_bh, c_ht = sl3_constants()
    return [
        BoundReport("I_in", i_in, {}, "sl3_hexagon_integral", 1e-6),
        BoundReport("c^BH(SL3/SO3)", c_bh, {}, "sl3_bh", 1e-3),
        BoundReport("c^HT(SL3/SO3)", c_ht, {}, "sl3_ht", 1e-3),
    ]


def floors_report(genus_list) -> list:
    rows = []
    for k in genus_list:
        rows.append(BoundReport(
            f"katok(genus={k})", katok_bound(k, True), {"genus": k},
            "katok_orientable", 1e-12))
        rows.append(BoundReport(
            f"katok_nonor(genus={k})", katok_bound(k, False), {"genus": k},
            "katok_nonorientable", 1e-12))
        rows.append(BoundReport(
            f"finsler(genus={k})", finsler_floor(k, False), {"genus": k},
            "finsler_floor", 1e-12))
        rows.append(BoundReport(
            f"finsler_rev(genus={k})", finsler_floor(k, True), {"genus": k},
            "finsler_floor_reversible", 1e-12))
    return rows
