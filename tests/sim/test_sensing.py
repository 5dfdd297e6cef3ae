"""Tests for the disk sensing model and trace sampler.

:class:`ReferenceDiskSensor` keeps the per-node read the engine ran before
the fleet was sensed in one pass: scipy's ``gaussian_filter`` and
:func:`~repro.surfaces.curvature.grid_gaussian_curvature` on one node's
sensing square at a time. The model's properties are tested on it, and
:meth:`DiskSensor.read_many` must equal the oracle's reads packed end to
end, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from cma_reference import LocalSensing, pack
from repro.fields.analytic import (
    GaussianBump,
    GaussianMixtureField,
    PlaneField,
)
from repro.fields.base import GridSample, sample_grid
from repro.fields.dynamic import StaticAsDynamic
from repro.geometry.primitives import BoundingBox
from repro.sim.sensing import DiskSensor, TraceSampler
from repro.surfaces.curvature import grid_gaussian_curvature


class ReferenceDiskSensor(DiskSensor):
    """A :class:`DiskSensor` that also reads one node at a time."""

    def read(self, position: np.ndarray) -> LocalSensing:
        """Sense around ``position``: the m in-disk samples + curvatures."""
        xs, ys = self.snapshot.xs, self.snapshot.ys
        x, y = float(position[0]), float(position[1])
        ix0 = int(np.searchsorted(xs, x - self.rs))
        ix1 = int(np.searchsorted(xs, x + self.rs, side="right"))
        iy0 = int(np.searchsorted(ys, y - self.rs))
        iy1 = int(np.searchsorted(ys, y + self.rs, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            empty = np.empty((0,))
            return LocalSensing(
                positions=np.empty((0, 2)), values=empty, curvatures=empty
            )

        patch_values = self.snapshot.values[iy0:iy1, ix0:ix1]
        if self.noise_std > 0.0 and self._noise_rng is not None:
            patch_values = patch_values + self._noise_rng.normal(
                0.0, self.noise_std, size=patch_values.shape
            )
        patch = GridSample(xs=xs[ix0:ix1], ys=ys[iy0:iy1], values=patch_values)
        if len(patch.xs) >= 2 and len(patch.ys) >= 2:
            curv_patch = patch
            if self.smooth_sigma > 0:
                curv_patch = GridSample(
                    xs=patch.xs,
                    ys=patch.ys,
                    values=gaussian_filter(
                        patch.values, self.smooth_sigma, mode="nearest"
                    ),
                )
            curv = grid_gaussian_curvature(curv_patch)
        else:
            curv = np.zeros_like(patch.values)
        if not self.signed:
            curv = np.abs(curv)

        px, py = np.meshgrid(patch.xs, patch.ys)
        in_disk = (px - x) ** 2 + (py - y) ** 2 <= self.rs**2
        return LocalSensing(
            positions=np.column_stack([px[in_disk], py[in_disk]]),
            values=patch_values[in_disk],
            curvatures=curv[in_disk],
        )


def assert_same_sensing(got, want):
    """All four packed arrays equal, bit for bit."""
    assert np.array_equal(got.offsets, want.offsets)
    assert got.positions.shape == want.positions.shape
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.curvatures, want.curvatures)


@pytest.fixture
def snapshot(bump_field):
    return sample_grid(bump_field, BoundingBox.square(100.0), 101)


class TestDiskSensor:
    def test_sample_count_matches_paper(self, snapshot):
        """m = floor(pi * Rs^2) on the 1 m grid (within grid quantisation)."""
        sensor = ReferenceDiskSensor(snapshot, rs=5.0)
        reading = sensor.read(np.array([50.0, 50.0]))
        assert abs(reading.m - int(np.pi * 25)) <= 5

    def test_all_samples_in_disk(self, snapshot):
        sensor = ReferenceDiskSensor(snapshot, rs=5.0)
        center = np.array([30.0, 60.0])
        reading = sensor.read(center)
        dists = np.linalg.norm(reading.positions - center, axis=1)
        assert (dists <= 5.0 + 1e-9).all()

    def test_values_match_snapshot(self, snapshot, bump_field):
        sensor = ReferenceDiskSensor(snapshot, rs=3.0)
        reading = sensor.read(np.array([40.0, 40.0]))
        expected = bump_field(reading.positions[:, 0], reading.positions[:, 1])
        assert np.allclose(reading.values, expected, atol=1e-9)

    def test_corner_clipping(self, snapshot):
        sensor = ReferenceDiskSensor(snapshot, rs=5.0)
        reading = sensor.read(np.array([0.0, 0.0]))
        assert 0 < reading.m < int(np.pi * 25)

    def test_outside_region_empty(self, snapshot):
        sensor = ReferenceDiskSensor(snapshot, rs=2.0)
        reading = sensor.read(np.array([500.0, 500.0]))
        assert reading.m == 0

    def test_curvature_peaks_near_bump(self, snapshot, bump_field):
        sensor = ReferenceDiskSensor(snapshot, rs=5.0)
        bump = bump_field.bumps[0]
        at_bump = sensor.read(np.array([bump.cx, bump.cy]))
        far = sensor.read(np.array([5.0, 95.0]))
        assert at_bump.curvatures.max() > 5.0 * max(far.curvatures.max(), 1e-12)

    def test_smoothing_reduces_noise_curvature(self, rng):
        noisy = rng.normal(size=(101, 101)) * 0.5
        gs = sample_grid(
            PlaneField(), BoundingBox.square(100.0), 101
        )
        noisy_gs = GridSample(xs=gs.xs, ys=gs.ys, values=noisy)
        raw = ReferenceDiskSensor(noisy_gs, rs=5.0, smooth_sigma=0.0)
        smooth = ReferenceDiskSensor(noisy_gs, rs=5.0, smooth_sigma=2.0)
        p = np.array([50.0, 50.0])
        assert smooth.read(p).curvatures.mean() < raw.read(p).curvatures.mean()

    def test_validation(self, snapshot):
        with pytest.raises(ValueError):
            DiskSensor(snapshot, rs=0.0)
        with pytest.raises(ValueError):
            DiskSensor(snapshot, rs=5.0, smooth_sigma=-1.0)

    def test_signed_mode(self, snapshot):
        unsigned = ReferenceDiskSensor(snapshot, rs=5.0, signed=False)
        reading = unsigned.read(np.array([50.0, 50.0]))
        assert (reading.curvatures >= 0).all()


class TestSensorNoise:
    def test_noise_perturbs_values(self, snapshot):
        import numpy as np

        p = np.array([50.0, 50.0])
        clean = ReferenceDiskSensor(snapshot, rs=5.0).read(p)
        noisy = ReferenceDiskSensor(
            snapshot, rs=5.0, noise_std=0.5,
            noise_rng=np.random.default_rng(0),
        ).read(p)
        diff = noisy.values - clean.values
        assert 0.3 < float(np.std(diff)) < 0.7

    def test_noise_requires_rng(self, snapshot):
        import numpy as np

        # Without an RNG the noise setting is inert (engine always passes one).
        sensor = ReferenceDiskSensor(
            snapshot, rs=5.0, noise_std=0.5, noise_rng=None
        )
        p = np.array([50.0, 50.0])
        clean = ReferenceDiskSensor(snapshot, rs=5.0).read(p)
        out = sensor.read(p)
        assert np.allclose(out.values, clean.values)

    def test_noise_validation(self, snapshot):
        with pytest.raises(ValueError):
            DiskSensor(snapshot, rs=5.0, noise_std=-0.1)

    def test_engine_noise_option(self):
        import numpy as np

        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.sim.engine import MobileSimulation

        field = GreenOrbsLightField(side=40.0, seed=1, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=16, rc=10.0, rs=5.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=2.0,
        )
        clean = MobileSimulation(problem, resolution=41).run()
        noisy = MobileSimulation(
            problem, resolution=41, sensor_noise_std=0.5
        ).run()
        assert not np.allclose(clean.final_positions, noisy.final_positions)
        with pytest.raises(ValueError):
            MobileSimulation(problem, resolution=41, sensor_noise_std=-1.0)


class TestTraceSampler:
    def test_sample_count(self):
        sampler = TraceSampler(samples_per_move=3)
        field = StaticAsDynamic(PlaneField(a=1.0))
        pts, vals = sampler.sample_path(
            field, np.array([0.0, 0.0]), np.array([4.0, 0.0]), t=0.0
        )
        assert len(pts) == 3
        assert np.allclose(pts[:, 0], [1.0, 2.0, 3.0])
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_no_move_no_samples(self):
        sampler = TraceSampler()
        field = StaticAsDynamic(PlaneField())
        pts, vals = sampler.sample_path(
            field, np.array([1.0, 1.0]), np.array([1.0, 1.0]), t=0.0
        )
        assert len(pts) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSampler(samples_per_move=0)


class TestBatchedReads:
    """read_many is the engine's fast path; the per-node read is its oracle."""

    def _assert_batch_matches(self, sensor_kwargs, snapshot, positions):
        batch = DiskSensor(snapshot, **sensor_kwargs).read_many(positions)
        oracle = ReferenceDiskSensor(snapshot, **sensor_kwargs)
        assert_same_sensing(batch, pack([oracle.read(p) for p in positions]))

    def test_bitwise_vs_sequential_reads(self, snapshot):
        rng = np.random.default_rng(42)
        positions = list(rng.uniform(0.0, 100.0, size=(60, 2)))
        # Edge/corner windows get clipped to non-square shapes, and
        # on-grid-line centres flip the window between 10 and 11 cells.
        positions += [
            np.array([0.0, 0.0]),
            np.array([100.0, 100.0]),
            np.array([0.5, 99.5]),
            np.array([50.0, 50.0]),
            np.array([2.0, 3.0]),
        ]
        for kwargs in (
            {"rs": 5.0},
            {"rs": 2.5},
            {"rs": 5.0, "signed": True},
            {"rs": 5.0, "smooth_sigma": 0.0},
            {"rs": 5.0, "smooth_sigma": 3.0},
        ):
            self._assert_batch_matches(kwargs, snapshot, positions)

    def test_degenerate_windows_fall_back(self, snapshot):
        # rs smaller than half the grid pitch: windows thinner than the
        # 2-cell curvature stencil, which sense zero curvature.
        positions = [np.array([50.5, 50.5]), np.array([50.0, 50.0])]
        self._assert_batch_matches({"rs": 0.4}, snapshot, positions)

    def test_noisy_path_preserves_rng_order(self, snapshot):
        positions = [np.array([30.0, 30.0]), np.array([60.0, 60.0])]
        a = DiskSensor(
            snapshot, rs=5.0, noise_std=0.5,
            noise_rng=np.random.default_rng(7),
        ).read_many(positions)
        oracle = ReferenceDiskSensor(
            snapshot, rs=5.0, noise_std=0.5,
            noise_rng=np.random.default_rng(7),
        )
        assert_same_sensing(a, pack([oracle.read(p) for p in positions]))


#: Snapshots the property test reads: the unit-pitch bump grid, and a
#: linspace grid whose steps differ by an ulp here and there.
SNAPSHOTS = (
    sample_grid(
        GaussianMixtureField(
            [GaussianBump(cx=30.0, cy=40.0, sigma=8.0, amplitude=5.0)],
            baseline=1.0,
        ),
        BoundingBox.square(100.0),
        101,
    ),
    GridSample(
        xs=np.linspace(0.0, 37.3, 53),
        ys=np.linspace(0.0, 37.3, 53),
        values=np.random.default_rng(3).normal(size=(53, 53)),
    ),
)


@st.composite
def fleet_reads(draw):
    """A snapshot, sensor settings and a fleet of positions to read."""
    snapshot = draw(st.sampled_from(SNAPSHOTS))
    side = float(snapshot.xs[-1])
    pitch = float(snapshot.xs[1] - snapshot.xs[0])
    # Region corners and walls, exact grid lines, half-cell points and
    # points far outside the region (empty windows).
    special = st.sampled_from(
        [0.0, side, float(snapshot.xs[7]), float(snapshot.xs[20]),
         float(snapshot.xs[20]) + 0.5 * pitch, -0.2 * pitch, -30.0,
         side + 0.3, side + 50.0]
    )
    coord = st.one_of(special, st.floats(-8.0, side + 8.0))
    points = draw(st.lists(st.tuples(coord, coord), max_size=12))
    if points and draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    kwargs = {
        # Below half the pitch every window is thinner than the stencil.
        "rs": draw(st.sampled_from([0.3 * pitch, 0.45 * pitch, pitch,
                                    2.5 * pitch, 5.0 * pitch])),
        "signed": draw(st.booleans()),
        "smooth_sigma": draw(st.sampled_from([0.0, 0.1, 1.5, 3.0])),
    }
    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    return snapshot, np.array(points, dtype=float).reshape(-1, 2), kwargs, seed


@given(fleet_reads())
@example((SNAPSHOTS[0], np.empty((0, 2)), {"rs": 5.0}, None))  # no nodes
def test_fleet_read_equals_per_node_oracle(case):
    snapshot, positions, kwargs, seed = case
    rngs = [None, None]
    if seed is not None:
        kwargs = dict(kwargs, noise_std=0.5)
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    sensor = DiskSensor(snapshot, noise_rng=rngs[0], **kwargs)
    got = sensor.read_many(positions)
    oracle = ReferenceDiskSensor(snapshot, noise_rng=rngs[1], **kwargs)
    want = pack([oracle.read(p) for p in positions])
    assert_same_sensing(got, want)
    if seed is not None:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
