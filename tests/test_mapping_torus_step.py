"""Pins of the mapping-torus time-one map, its fused step-and-Jacobian
and the closed-form cutoff derivatives, and the map protocol of every
built-in system.

The goldens were recorded from the Dual-based integrator that predates the
closed-form field; states 2-4 cross the page theta = 2 pi within time one,
so the monodromy gluing is exercised for one and three twists.
"""

import tracemalloc

import numpy as np
import pytest

from entropia.entropy_estimators import (
    _linear_torus_system,
    cat_system,
    conjugated_cat_system,
    doubling_system,
    power_system,
    product_system,
    rotation_system,
    suspension_cat_system,
    union_system,
)
from entropia.reeb_collapse import MappingTorusSpec, build_profiles
from entropia.reeb_collapse import sweep
from entropia.reeb_collapse.forms import MappingTorusField, _chi_first, _chi_second
from entropia.reeb_collapse.sweep import mapping_torus_system, solid_torus_system

TWO_PI = 2.0 * np.pi

STATES = [
    [1.3504042205922535, 2.332696501136019, 2.8341150283229144],
    [1.60655482537618, 2.203915541863614, 1.2052767197305674],
    [5.911340779132091, 1.4877385096545592, 0.9444498898128418],
    [6.081904151936416, 1.7242940462094554, 3.2391660334720465],
    [6.282185307179586, 1.994085619560548, 1.2666939741347054],
]
# (k_twists, s) -> one row per state: the time-one image, then the
# Jacobian row by row
GOLDENS = {
    (1, 0.05): [
        [2.35633270936773, 2.332696501136019, 3.190505237130769,
         1.0053654047136784, 0.0046933012360024316, 0.0,
         0.0, 1.0, 0.0,
         0.3225404953378145, -0.7890800870805603, 1.0],
        [2.610592801039748, 2.203915541863614, 1.601320653082909,
         1.0027501101408094, 0.03340716677383786, 0.0,
         0.0, 1.0, 0.0,
         0.2697303124298872, 1.334373043063123, 1.0],
        [0.6281744274115109, 1.4877385096545592, 0.9551999404560829,
         1.0000758266057177, 0.0004977398681438915, 0.0,
         0.0, 1.0, 0.0,
         -0.002960464807392231, 0.4456139803365639, 1.0],
        [0.7988900643308886, 1.7242940462094554, 4.069644471048826,
         1.000764798320923, -0.000707008941985594, 0.0,
         0.0, 1.0, 0.0,
         -0.05547927495999539, 6.7551006970451395, 1.0],
        [0.9990002340792183, 1.994085619560548, 4.354408976975501,
         1.0000008362564285, -7.91503674282558e-05, 0.0,
         0.0, 1.0, 0.0,
         -0.0028278749951172215, 9.109155570274515, 1.0],
    ],
    (1, 0.4): [
        [2.4008909242672476, 2.332696501136019, 3.213490100668159,
         1.0473526672754099, 0.042583870012305354, 0.0,
         0.0, 1.0, 0.0,
         0.3558248066459981, -0.8203133978944488, 1.0],
        [2.6401098381252037, 2.203915541863614, 1.6166604284263264,
         1.0232799056997963, 0.2884290049136803, 0.0,
         0.0, 1.0, 0.0,
         0.2854111252020989, 1.5187111328452496, 1.0],
        [0.6283072212084598, 1.4877385096545592, 0.9551994251728758,
         1.0006074838873797, 0.003987466808193567, 0.0,
         0.0, 1.0, 0.0,
         -0.002964715769331318, 0.44558589909078566, 1.0],
        [0.8000961539227525, 1.7242940462094554, 4.069575987095581,
         1.0061765675555823, -0.00571869480173392, 0.0,
         0.0, 1.0, 0.0,
         -0.056006838723133875, 6.755420146843606, 1.0],
        [0.9990018726447103, 1.994085619560548, 4.35440897234184,
         1.0000066901172808, -0.0006332103527960516, 0.0,
         0.0, 1.0, 0.0,
         -0.002827902833379131, 9.109157920438031, 1.0],
    ],
    (3, 0.05): [
        [2.368500407318095, 2.332696501136019, 3.9219645647051937,
         1.016540122522696, 0.014577721931138975, 0.0,
         0.0, 1.0, 0.0,
         0.994306971442081, -2.3934579866048638, 1.0],
        [2.618798744028122, 2.203915541863614, 2.4061580787523607,
         1.0083826377202556, 0.10238690691524352, 0.0,
         0.0, 1.0, 0.0,
         0.8221676134781092, 4.152978098400591, 1.0],
        [0.6282123496341886, 1.4877385096545592, 0.9766996003797034,
         1.0002275730489942, 0.0014938133956193898, 0.0,
         0.0, 1.0, 0.0,
         -0.008885034431964785, 1.3368178962847854, 1.0],
        [0.799233308391743, 1.7242940462094554, 5.7305429569852775,
         1.002300582010098, -0.0021276830802599944, 0.0,
         0.0, 1.0, 0.0,
         -0.1668866398036345, 20.265573162064157, 1.0],
        [0.9990007022388306, 1.994085619560548, 10.529838978685405,
         1.00000250877634, -0.00023745189656773166, 0.0,
         0.0, 1.0, 0.0,
         -0.008483648846531817, 27.327468725230588, 1.0],
    ],
    (3, 0.4): [
        [2.529400264164067, 2.332696501136019, 4.179155049487975,
         1.1847155755131138, 0.18014097004797838, 0.0,
         0.0, 1.0, 0.0,
         1.3880186211937036, -2.689200496518998, 1.0],
        [2.717180199625446, 2.203915541863614, 2.561541343288025,
         1.0802081034341975, 1.0472043765518986, 0.0,
         0.0, 1.0, 0.0,
         0.9833495610629246, 6.187592697893484, 1.0],
        [0.6286114460580707, 1.4877385096545592, 0.9766949511325226,
         1.0018284523295795, 0.01200062707087482, 0.0,
         0.0, 1.0, 0.0,
         -0.008923432485362788, 1.3365642191795781, 1.0],
        [0.802903858024158, 1.7242940462094554, 5.729914532144713,
         1.018942854896689, -0.017601772138823742, 0.0,
         0.0, 1.0, 0.0,
         -0.17176682835692317, 20.26855584665979, 1.0],
        [0.9990056180093028, 1.994085619560548, 10.529838936981585,
         1.0000200708034601, -0.0018996818948919087, 0.0,
         0.0, 1.0, 0.0,
         -0.008483899397965579, 27.32748987741376, 1.0],
    ],
}


@pytest.mark.parametrize("k, s", sorted(GOLDENS))
def test_time_one_and_jacobian_match_goldens(k, s):
    sys = mapping_torus_system(MappingTorusSpec(k_twists=k), s)
    states = np.array(STATES)
    want = np.array(GOLDENS[(k, s)])
    np.testing.assert_allclose(sys.time_one(states), want[:, :3],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(sys.time_one_jacobian(states)[1].reshape(-1, 9),
                               want[:, 3:], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_step_jacobian_equals_each_s_alone(k):
    # three values of s stacked in one system: block i of the tiled states
    # is stepped at s[i], bit for bit as the system at s[i] alone; the
    # states cross the page theta = 2 pi, so the gluing runs per row
    spec = MappingTorusSpec(k_twists=k)
    s_values = [0.05, 0.4, 0.9]
    stacked = mapping_torus_system(spec, s_values)
    assert stacked.copies == 3
    states = np.array(STATES)
    image, jac = stacked.time_one_jacobian(np.tile(states, (3, 1)))
    n = len(states)
    for i, s in enumerate(s_values):
        want_image, want_jac = mapping_torus_system(spec, s).time_one_jacobian(states)
        assert np.array_equal(image[i * n:(i + 1) * n], want_image)
        assert np.array_equal(jac[i * n:(i + 1) * n], want_jac)
    with pytest.raises(ValueError, match="do not split into 3 blocks"):
        stacked.time_one_jacobian(states)


def _fused_rk4(spec, s_values, states):
    """Reference: one RK4 on all six rows z = (theta, x, a, b, c, d), every
    stage through the whole field, the gluing after each step; the loop
    `step_jacobian` ran before it stepped theta alone first."""
    m = len(states)
    r = states[:, 1]
    field = MappingTorusField(spec, r, np.repeat(s_values, m // len(s_values)))
    tau = spec.tau_dual(r)

    def rhs(z):
        th_dot, x_dot, t_th, t_r, x_th, x_r = field(z[0])
        return np.stack([th_dot, x_dot, t_th * z[2], t_th * z[3] + t_r,
                         x_th * z[2], x_th * z[3] + x_r])

    z = np.zeros((6, m))
    z[0], z[1], z[2] = states[:, 0], states[:, 2], 1.0
    h = 1.0 / sweep._MT_STEPS
    for _ in range(sweep._MT_STEPS):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        idx = np.flatnonzero(z[0] >= TWO_PI)
        if len(idx):
            z[0, idx] -= TWO_PI
            z[1, idx] += tau.v[idx]
            z[5, idx] += tau.d1[idx]
    jac = np.zeros((m, 3, 3))
    jac[:, [0, 0, 2, 2], [0, 1, 0, 1]] = z[2:].T
    jac[:, [1, 2], [1, 2]] = 1.0
    return np.stack([z[0], r, z[1]], axis=1), jac


@pytest.mark.parametrize("m", [24, 1100])
@pytest.mark.parametrize("s", [0.3, [0.05, 0.4], [0.05, 0.1, 0.2, 0.4]],
                         ids=["scalar", "stack2", "stack4"])
@pytest.mark.parametrize("k", [1, 3, -2])
def test_step_jacobian_equals_the_fused_rk4_bit_for_bit(k, s, m):
    # more than one block of steps per call, and at m = 1100 one step per
    # block with the rest of the field built a few stage rows at a time;
    # theta = 6.28 and 6.2831853 cross the page in the first step, the
    # sampled states in later ones and theta = 0 not at all
    assert sweep._MT_BLOCK_VALUES // (4 * m) < sweep._MT_STEPS
    spec = MappingTorusSpec(k_twists=k)
    system = mapping_torus_system(spec, s)
    states = system.sampler(m, np.random.default_rng(m + k))
    states[:9, 0] = np.repeat([0.0, 6.28, 6.2831853], 3)
    image, jac = system.time_one_jacobian(states)
    want_image, want_jac = _fused_rk4(spec, np.atleast_1d(s), states)
    assert image.tobytes() == want_image.tobytes()
    assert jac.tobytes() == want_jac.tobytes()
    glued = np.flatnonzero(image[:, 0] < states[:, 0])
    assert 3 <= len(glued) < m
    if np.ndim(s):
        with pytest.raises(ValueError, match="do not split into"):
            system.time_one_jacobian(states[:-1])


# tracemalloc peak of one step_jacobian call at m = 6144 (MB of 2**20
# bytes): 2.96 with the fused RK4 on all six rows, 3.66 in blocks of
# steps, which hold the field's terms and the rest of the field at every
# stage of a block (one step here).  The bound is a tenth above the
# latter; one block of all 50 steps would hold 195 MB.
MT_STEP_PEAK_BOUND = 1.1 * 3.66 * 2 ** 20


def test_step_jacobian_memory_at_6144_states():
    system = mapping_torus_system(MappingTorusSpec(k_twists=1), 0.3)
    states = system.sampler(6144, np.random.default_rng(5))
    tracemalloc.start()
    try:
        system.time_one_jacobian(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MT_STEP_PEAK_BOUND


SYSTEMS = {
    "rotation": lambda: rotation_system(0.31),
    "doubling": doubling_system,
    "cat": cat_system,
    "conjugated_cat": lambda: conjugated_cat_system(1),
    "cat_squared": lambda: power_system(cat_system(), 2),
    "cat_x_rotation": lambda: product_system(cat_system(), rotation_system(0.29)),
    "cat_union_id": lambda: union_system(
        [cat_system(), _linear_torus_system(np.eye(2), "id")]),
    "suspension_cat": lambda: suspension_cat_system(0.3),
    "solid_torus": lambda: solid_torus_system(
        build_profiles(), 0.05),
    "mapping_torus": lambda: mapping_torus_system(
        MappingTorusSpec(k_twists=3), 0.4),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_step_jacobian_image_is_step_and_jacobian_validates(name):
    # the two map callables of a DiscreteSystem agree: the image of
    # time_one_jacobian is time_one's bit for bit, and its Jacobian matches
    # central differences of time_one
    sys = SYSTEMS[name]()
    states = sys.sampler(16, np.random.default_rng(7))
    if name == "mapping_torus":
        states = np.vstack([states, STATES])
    image, jac = sys.time_one_jacobian(states)
    assert np.array_equal(image, sys.time_one(states))
    assert jac.shape == (len(states), sys.state_dim, sys.state_dim)
    assert sys.validate_jacobian(32, seed=1) < 1e-4


def test_chi_derivatives_match_smoothstep_polynomial():
    # chi(theta) = P(theta / 2 pi), P(u) = 35u^4 - 84u^5 + 70u^6 - 20u^7,
    # differentiated term by term
    theta = np.linspace(0.0, TWO_PI, 4097)[:-1]
    u = theta * (1.0 / TWO_PI)
    p1 = 140.0 * u ** 3 - 420.0 * u ** 4 + 420.0 * u ** 5 - 140.0 * u ** 6
    p2 = 420.0 * u ** 2 - 1680.0 * u ** 3 + 2100.0 * u ** 4 - 840.0 * u ** 5
    want1, want2 = p1 / TWO_PI, p2 / TWO_PI ** 2
    terms = _chi_first(theta)
    d1, d2 = terms[2], _chi_second(*terms[:2])
    # MappingTorusSpec reads chi' from the same rule, bit for bit
    np.testing.assert_array_equal(MappingTorusSpec().chi_prime(theta), d1)
    np.testing.assert_allclose(d1, want1, rtol=0.0,
                               atol=1e-13 * np.abs(want1).max())
    np.testing.assert_allclose(d2, want2, rtol=0.0,
                               atol=1e-13 * np.abs(want2).max())
