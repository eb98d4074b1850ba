"""Kernel-backend conformance: every backend is bit-identical.

The kernel API contract (:mod:`repro.gpu.kernels`) is that all
registered backends compute the *same function* — not approximately,
byte for byte.  This suite is the enforcement: each test runs the
reference backend (the hardware-literal executable spec) next to every
other registered backend — plus the numba backend's pure-python cores,
which are importable without numba — over golden fixtures and
hypothesis-generated fragment streams, and asserts full observable
equality:

* rasterizer fragments (coordinates, depth *bit patterns*, triangle
  provenance, emission order);
* early-Z pass masks;
* ZEB contents and counters after insertion;
* Z-Overlap results — pairs, evidence arrays, and every counter;
* whole-frame fingerprints through the real pipeline, selected both by
  ``GPUConfig.kernel_backend`` and the environment variable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import kernels
from repro.gpu.config import GPUConfig, RBCDConfig
from repro.gpu.kernels import KernelUnavailableError
from repro.gpu.kernels import numba_backend
from repro.gpu.pipeline import GPU
from repro.rbcd.element import quantize_depth
from tests.conftest import sphere_pair_frame, two_boxes_frame
from tests.gpu.test_parallel import frame_fingerprint
from tests.rbcd.test_differential import assert_zeb_equal

TILE_PIXELS = 256

REFERENCE = kernels.get_backend("reference")


def conformance_backends():
    """Every backend under test, reference included (it must match
    itself), plus the numba cores run as pure python when numba itself
    is not installed."""
    backends = [kernels.get_backend(n) for n in kernels.available_backends()]
    if "numba" not in {b.name for b in backends}:
        backends.append(numba_backend.make_backend(force_python=True))
    return backends


BACKENDS = conformance_backends()
BACKEND_IDS = [b.name for b in BACKENDS]


def assert_fragments_equal(a, b):
    """Bit-identical rasterizer output, depth compared as raw bits."""
    for i in range(4):
        assert a[i].dtype == b[i].dtype
    np.testing.assert_array_equal(a[0], b[0])  # px
    np.testing.assert_array_equal(a[1], b[1])  # py
    np.testing.assert_array_equal(
        a[2].view(np.int64), b[2].view(np.int64)
    )  # pz, exact bit pattern
    np.testing.assert_array_equal(a[3], b[3])  # tri


def assert_overlap_equal(a, b):
    for name in (
        "pair_row", "pair_id_a", "pair_id_b", "pair_z_front",
        "pair_z_back", "pair_case", "pair_stack_depth",
    ):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    for name in (
        "elements_read", "pair_records", "stack_overflows",
        "unmatched_backfaces", "disjoint_closures", "self_pairs_filtered",
    ):
        assert getattr(a, name) == getattr(b, name), name


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = kernels.backend_names()
        assert "reference" in names
        assert "vectorized" in names
        assert "numba" in names  # registered, possibly unavailable

    def test_available_backends_always_include_core_pair(self):
        available = kernels.available_backends()
        assert {"reference", "vectorized"} <= set(available)
        for name in available:
            assert kernels.get_backend(name).name == name

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("no-such-backend")

    def test_numba_backend_gated_not_broken(self):
        """Without numba the probe raises the dedicated error; with it,
        the backend resolves.  Either way import never fails."""
        if numba_backend.available():
            assert kernels.get_backend("numba").name == "numba"
        else:
            with pytest.raises(KernelUnavailableError, match="numba"):
                kernels.get_backend("numba")

    def test_config_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "reference")
        assert GPUConfig().kernel_backend == "reference"
        monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV)
        assert GPUConfig().kernel_backend == kernels.DEFAULT_KERNEL_BACKEND

    def test_pipeline_rejects_unknown_backend_at_construction(self):
        config = GPUConfig().with_screen(64, 32).with_kernel_backend("bogus")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            GPU(config)


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------


def random_triangles(seed: int, n: int):
    """Triangle batch with degenerates, shared edges and off-screen
    geometry mixed in."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-8.0, 72.0, size=(n, 3, 2))
    z = rng.uniform(-0.2, 1.2, size=(n, 3))
    if n >= 4:
        xy[1] = xy[0][[0, 2, 1]]          # shared edge, opposite winding
        xy[2, 1] = xy[2, 0]               # degenerate (zero area)
        z[3] = 0.5                        # constant-depth triangle
    return xy, z


def random_tile_stream(seed: int, n: int = 500, pixels: int = 16):
    """Fragment stream for one tile, hot pixels and heavy z ties."""
    rng = np.random.default_rng(seed)
    pixel = rng.integers(0, pixels, size=n).astype(np.int64)
    codes = rng.integers(0, 40, size=n).astype(np.int64)
    oid = rng.integers(0, 7, size=n).astype(np.int64)
    front = rng.random(n) < 0.5
    return pixel, codes, oid, front


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestKernelConformance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rasterize_matches_reference(self, backend, seed):
        xy, z = random_triangles(seed, 24)
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 64, 64),
            REFERENCE.rasterize_triangles(xy, z, 64, 64),
        )

    def test_rasterize_empty_and_offscreen(self, backend):
        xy = np.empty((0, 3, 2)); z = np.empty((0, 3))
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 32, 32),
            REFERENCE.rasterize_triangles(xy, z, 32, 32),
        )
        xy, z = random_triangles(9, 8)
        xy = xy + 500.0  # fully off-screen
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 32, 32),
            REFERENCE.rasterize_triangles(xy, z, 32, 32),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_earlyz_matches_reference(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 800
        pixel = rng.integers(0, 40, size=n).astype(np.int64)
        z = rng.choice([0.25, 0.5, 0.5, 0.75, 1.0], size=n)  # heavy ties
        np.testing.assert_array_equal(
            backend.earlyz_pass_mask(pixel, z),
            REFERENCE.earlyz_pass_mask(pixel, z),
        )

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("spare", [0, 8])
    def test_zeb_insert_matches_reference(self, backend, m, spare):
        config = RBCDConfig(list_length=m, spare_entries_per_tile=spare)
        pixel, codes, oid, front = random_tile_stream(m * 10 + spare)
        assert_zeb_equal(
            backend.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS),
            REFERENCE.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zoverlap_matches_reference(self, backend, seed):
        config = RBCDConfig(list_length=8)
        pixel, codes, oid, front = random_tile_stream(seed, n=700)
        zeb = REFERENCE.zeb_insert(
            pixel, codes, oid, front, config, TILE_PIXELS
        )
        assert_overlap_equal(
            backend.zoverlap_traverse(zeb, config),
            REFERENCE.zoverlap_traverse(zeb, config),
        )

    def test_zoverlap_overflow_and_unmatched_counters_match(self, backend):
        # Shallow FF-Stack plus alternating facing: stack overflows and
        # unmatched back faces both fire, and must match exactly.
        config = RBCDConfig(list_length=16, ff_stack_entries=2)
        rng = np.random.default_rng(3)
        n = 400
        pixel = rng.integers(0, 4, size=n).astype(np.int64)
        codes = rng.integers(0, 25, size=n).astype(np.int64)
        oid = rng.integers(0, 8, size=n).astype(np.int64)
        front = rng.random(n) < 0.7
        zeb = REFERENCE.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS)
        ours = backend.zoverlap_traverse(zeb, config)
        theirs = REFERENCE.zoverlap_traverse(zeb, config)
        assert_overlap_equal(ours, theirs)
        assert theirs.stack_overflows > 0
        assert theirs.unmatched_backfaces > 0


# ---------------------------------------------------------------------------
# Rasterizer edge domain: non-finite input, span margins, chunking
# ---------------------------------------------------------------------------

WIDTH, HEIGHT = 800, 480  # non-square, the paper's screen


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("coord", [0, 1])
def test_rasterize_rejects_non_finite_vertex(backend, bad, coord):
    xy, z = random_triangles(4, 6)
    xy[3, 2, coord] = bad
    with pytest.raises(ValueError, match="non-finite"):
        backend.rasterize_triangles(xy, z, 64, 64)


_X_GRID = st.integers(min_value=-16, max_value=WIDTH + 16)
_Y_GRID = st.integers(min_value=-16, max_value=HEIGHT + 16)


def _coordinate(grid, far):
    """Integers, pixel centres, arbitrary floats, and far off-screen."""
    return st.one_of(
        grid.map(float),
        grid.map(lambda k: k + 0.5),
        st.floats(min_value=-16.0, max_value=float(far), allow_nan=False),
        st.sampled_from([-1e6, 1e6, -7e16, 7e16]),
    )


_X = _coordinate(_X_GRID, WIDTH + 16)
_Y = _coordinate(_Y_GRID, HEIGHT + 16)
_TINY = st.sampled_from([1e-9, -1e-9, 3e-10, -2.5e-9, 1e-12, 0.0])
_SHORT = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


@st.composite
def adversarial_triangle(draw):
    """One triangle built to sit on a span margin."""
    kind = draw(st.sampled_from([
        "free", "near-horizontal", "near-vertical", "sliver", "sub-pixel",
        "through-centres",
    ]))
    a = np.array([draw(_X), draw(_Y)])
    c = np.array([draw(_X), draw(_Y)])
    if kind == "through-centres":
        # Edge a-b runs through pixel centres in exact arithmetic, with
        # a slope that rounds: the span end lands on a centre.
        a = np.array([draw(_X_GRID), draw(_Y_GRID)]) + 0.5
        step = st.builds(
            lambda k, unit: k * unit,
            st.integers(min_value=-30, max_value=30),
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0 / 3.0]),
        )
        b = a + [draw(step), draw(step)]
    elif kind == "free":
        b = np.array([draw(_X), draw(_Y)])
    elif kind == "near-horizontal":
        b = a + [draw(_SHORT) * draw(st.sampled_from([1.0, 1e3, 1e5])), draw(_TINY)]
    elif kind == "near-vertical":
        b = a + [draw(_TINY), draw(_SHORT) * draw(st.sampled_from([1.0, 1e3]))]
    elif kind == "sliver":
        # c almost on the line through a and b.
        b = np.array([draw(_X), draw(_Y)])
        t = draw(st.floats(min_value=-0.5, max_value=1.5))
        normal = np.array([a[1] - b[1], b[0] - a[0]])
        c = a + t * (b - a) + draw(_TINY) * normal
    else:  # sub-pixel: all three vertices inside one 1x1 square
        base = np.array([draw(_X_GRID), draw(_Y_GRID)], dtype=np.float64)
        unit = st.floats(min_value=0.0, max_value=1.0)
        a, b, c = (base + [draw(unit), draw(unit)] for _ in range(3))
    return np.array([a, b, c], dtype=np.float64)


def _batch(triangles, data):
    xy = np.array(triangles, dtype=np.float64).reshape(-1, 3, 2)
    z = np.array(
        data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=3 * len(triangles), max_size=3 * len(triangles),
        )),
        dtype=np.float64,
    ).reshape(-1, 3)
    return xy, z


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@settings(max_examples=80, deadline=None)
@given(
    triangles=st.lists(adversarial_triangle(), min_size=1, max_size=6),
    data=st.data(),
)
def test_rasterize_conforms_on_adversarial_triangles(backend, triangles, data):
    xy, z = _batch(triangles, data)
    assert_fragments_equal(
        backend.rasterize_triangles(xy, z, WIDTH, HEIGHT),
        REFERENCE.rasterize_triangles(xy, z, WIDTH, HEIGHT),
    )


# Edges through pixel centres whose x-span end rounds onto the centre:
# each of these loses or gains a boundary fragment when a span is not
# widened by its one-pixel margin.
ON_CENTRE_TRIANGLES = [
    [[2.5, 16.5], [6.300000000000001, 15.7], [-12.9858217311719, 30.424805002193054]],
    [[3.5, 38.5], [12.5, 38.1], [-4.358007180413583, 59.334791461655186]],
    [[8.5, 11.5], [14.833333333333332, 10.9], [-19.267878675711998, 37.892542398258314]],
    [[0.5, 13.5], [5.833333333333333, 3.833333333333334], [6.258311844657506, 39.72360706980763]],
    [[20.5, 20.5], [17.1, 23.2], [48.575711830228805, 14.621410290756732]],
    [[16.5, 11.5], [18.3, 13.7], [40.76414633223454, 5.095338270658125]],
    [[0.5, 18.5], [10.299999999999999, 22.0], [-12.508257914819414, 6.023622471723176]],
    [[9.5, 29.5], [9.7, 33.1], [39.312717654103345, 4.456650156893154]],
    [[27.5, 2.5], [32.5, -2.3999999999999995], [46.21205920240208, 31.408785955584825]],
    [[16.5, 1.5], [17.3, -0.7000000000000002], [36.44389409243598, 29.523017317762978]],
]


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("index", range(len(ON_CENTRE_TRIANGLES)))
def test_rasterize_conforms_on_rounded_edge_through_centres(backend, index):
    xy = np.array([ON_CENTRE_TRIANGLES[index]])
    z = np.array([[0.1, 0.5, 0.9]])
    assert_fragments_equal(
        backend.rasterize_triangles(xy, z, 64, 64),
        REFERENCE.rasterize_triangles(xy, z, 64, 64),
    )


# A vertex this far out makes x-span ends round by more than a pixel:
# these triangles keep whole bounding-box rows as candidates.
HUGE_TRIANGLES = [
    [[36.56931842916956, 0.4101684905158507], [7949350141604789.0, 6598408181413324.0], [24.069627058280957, 7.311233847190621]],
    [[43.118940014545515, 20.353112822131074], [-7.301776644336619e16, 7.537349302722637e16], [54.70556931294033, 4.062931843066302]],
    [[62.434110619316506, 6.878542616713425], [-6.161557376427649e16, -8.743778625019675e16], [-6.1586832811860424e16, -8.739263471318638e16]],
    [[37.4706934886798, 46.90470891895777], [6.43384432724268e16, 6.145758349983537e16], [6.437750369364516e16, 6.149672577039786e16]],
]


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_rasterize_conforms_on_huge_coordinates(backend):
    xy = np.array(HUGE_TRIANGLES)
    z = np.linspace(0.0, 1.0, xy.shape[0] * 3).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        want = REFERENCE.rasterize_triangles(xy, z, 64, 64)
        got = backend.rasterize_triangles(xy, z, 64, 64)
    assert want[0].shape[0] > 0
    assert_fragments_equal(got, want)


def test_rasterize_emission_order_across_chunk_boundaries(monkeypatch):
    """With a tiny chunk bound every chunk boundary falls inside the
    batch (and a triangle larger than the bound is one chunk on its
    own): the concatenated output is still the reference stream."""
    from repro.gpu.kernels import vectorized

    xy, z = random_triangles(5, 40)
    xy[7] = [[-5.0, -5.0], [70.0, 3.0], [10.0, 60.0]]  # > bound by itself
    want = REFERENCE.rasterize_triangles(xy, z, 64, 48)
    calls = []
    chunk = vectorized._raster_chunk

    def counted(*args):
        calls.append(args)
        return chunk(*args)

    monkeypatch.setattr(vectorized, "_MAX_CANDIDATES", 37)
    monkeypatch.setattr(vectorized, "_raster_chunk", counted)
    got = vectorized.rasterize_triangles(xy, z, 64, 48)
    assert len(calls) > 10
    assert_fragments_equal(got, want)


# ---------------------------------------------------------------------------
# Hypothesis streams
# ---------------------------------------------------------------------------

fragment_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),    # pixel
        st.integers(min_value=0, max_value=15),   # z code
        st.integers(min_value=0, max_value=4),    # object id
        st.booleans(),                            # front face
    ),
    max_size=100,
)


def _arrays(stream):
    if not stream:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), np.empty(0, dtype=bool)
    pixel, codes, oid, front = (np.array(c) for c in zip(*stream))
    return (
        pixel.astype(np.int64), codes.astype(np.int64),
        oid.astype(np.int64), front.astype(bool),
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@settings(max_examples=40, deadline=None)
@given(stream=fragment_stream, m=st.sampled_from([2, 4]), spare=st.sampled_from([0, 3]))
def test_zeb_and_overlap_conform_on_generated_streams(backend, stream, m, spare):
    config = RBCDConfig(list_length=m, spare_entries_per_tile=spare)
    pixel, codes, oid, front = _arrays(stream)
    ours = backend.zeb_insert(pixel, codes, oid, front, config, 64)
    theirs = REFERENCE.zeb_insert(pixel, codes, oid, front, config, 64)
    assert_zeb_equal(ours, theirs)
    assert_overlap_equal(
        backend.zoverlap_traverse(ours, config),
        REFERENCE.zoverlap_traverse(theirs, config),
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@settings(max_examples=40, deadline=None)
@given(
    pixels=st.lists(st.integers(min_value=0, max_value=7), max_size=80),
    data=st.data(),
)
def test_earlyz_conforms_on_generated_streams(backend, pixels, data):
    n = len(pixels)
    depths = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]),
            min_size=n, max_size=n,
        )
    )
    pixel = np.array(pixels, dtype=np.int64)
    z = np.array(depths, dtype=np.float64)
    np.testing.assert_array_equal(
        backend.earlyz_pass_mask(pixel, z),
        REFERENCE.earlyz_pass_mask(pixel, z),
    )


# ---------------------------------------------------------------------------
# Whole-frame conformance through the pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [b.name for b in BACKENDS if b.name in kernels.available_backends()],
)
def test_frame_fingerprints_identical_across_backends(name, tiny_config):
    reference_config = tiny_config.with_kernel_backend("reference")
    backend_config = tiny_config.with_kernel_backend(name)
    for separation in (0.6, 1.4):
        frame = sphere_pair_frame(tiny_config, separation)
        with GPU(reference_config) as gpu:
            want = frame_fingerprint(gpu.render_frame(frame))
        with GPU(backend_config) as gpu:
            got = frame_fingerprint(gpu.render_frame(frame))
        assert got == want


def test_env_var_selection_reaches_pipeline(monkeypatch, tiny_config):
    monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "reference")
    config = GPUConfig().with_screen(64, 32)
    assert config.kernel_backend == "reference"
    frame = two_boxes_frame(config, 0.8)
    with GPU(config) as gpu:
        want = frame_fingerprint(gpu.render_frame(frame))
    with GPU(tiny_config.with_kernel_backend("vectorized")) as gpu:
        assert frame_fingerprint(gpu.render_frame(frame)) == want
