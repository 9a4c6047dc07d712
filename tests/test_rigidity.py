import math

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import rigidity
from hypcurv.curvature import (cluster_kappas, commutation_residual, ricci_coordinate,
                               shape_spectra)
from hypcurv.errors import HypothesisContradiction
from hypcurv.gridfn import GridFunction
from hypcurv.heightfield import SampledGridField, make_catalog_surface
from hypcurv.rigidity import (ConstancyScan, Verdict, classify_global, constancy_scan,
                              verdict_report)

from test_curvature import forms_of, shape_spectrum

SQ2 = math.sqrt(2.0)


def cone(s=1.0, n=3):
    return make_catalog_surface("equidistant_cone", {"slope": s}, n)


def horosphere(c=1.0, n=3):
    return make_catalog_surface("horosphere", {"c": c}, n)


def cap(n=3):
    return make_catalog_surface(
        "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, n)


def ricci_null(spec):
    """Mask of the Ricci-null principal directions of one spectrum or a batch.

    Along principal direction i the Ricci eigenvalue is -(n-1) + kappa_i H - kappa_i^2
    (the Gauss equation); a direction is null where that is within 1e-6 of zero.
    """
    k, H = spec.kappas, np.asarray(spec.mean)[..., None]
    return np.abs(-(k.shape[-1] - 1) + k * H - k * k) <= 1e-6


def smaller_root(H, n):
    """Smaller root of k^2 - H k + (n-1) = 0."""
    return (H - np.sqrt(H * H - 4.0 * (n - 1))) / 2.0


def commutation_at(jet):
    """Commutator of the coordinate-route Ricci operator with the shape operator: zero
    when the Ricci eigendirections, the null one among them, are principal."""
    spec, forms = shape_spectrum(jet), forms_of(jet)
    return commutation_residual(ricci_coordinate(jet, forms), forms.metric,
                                shape_operator(spec, forms))


def shape_operator(spec, forms):
    """The shape operator g^-1 II of one spectrum and its forms."""
    return forms.metric_inv @ spec.second_form


class TestFlatDirection:
    def test_cone_single_null_direction(self):
        jet = cone().jet([1.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        null = spec.kappas[ricci_null(spec)]
        assert null.size == 1
        assert commutation_at(jet) <= 1e-8
        assert null[0] == pytest.approx(1.0 / SQ2, abs=1e-10)
        # smaller root of kappa H - kappa^2 - (n-1) = 0 with H = 5/sqrt(2)
        expected = (5.0 / SQ2 - math.sqrt(12.5 - 8.0)) / 2.0
        root = smaller_root(spec.mean, 3)
        assert root == pytest.approx(expected, rel=1e-12)
        assert null[0] == pytest.approx(root, abs=1e-8)

    def test_horosphere_full_null_space(self):
        spec = shape_spectrum(horosphere().jet([0.0, 0.0, 0.0]))
        null = spec.kappas[ricci_null(spec)]
        assert null.size == 3
        # H = 3: roots (3 +/- 1)/2 = {2, 1}; observed kappa matches the smaller root
        assert smaller_root(spec.mean, 3) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(null, 1.0, atol=1e-10)

    def test_cap_empty_fragment(self):
        spec = shape_spectrum(cap().jet([0.0, 0.0, 0.0]))
        assert not ricci_null(spec).any()

    @pytest.mark.parametrize("n", [3, 4])
    def test_null_kappa_matches_root_at_samples(self, n):
        rng = np.random.default_rng(15)
        field = cone(2.0, n)
        pts = field.sample_points(30, rng, r_min=0.4, r_max=1.8)
        spec = shape_spectra(*field.jet_array(pts))
        mask = ricci_null(spec)
        assert np.all(mask.sum(axis=1) == 1)
        null = spec.kappas[mask]
        assert np.max(np.abs(null - smaller_root(spec.mean, n))) <= 1e-8
        assert np.all(null > 0)
        for x in pts:
            assert commutation_at(field.jet(x)) <= 1e-8


class TestCommutation:
    def test_horosphere_zero(self):
        jet = horosphere().jet([0.1, 0.2, 0.3])
        spec = shape_spectrum(jet)
        forms = forms_of(jet)
        ric = ricci_coordinate(jet, forms)
        assert commutation_residual(ric, forms.metric, shape_operator(spec, forms)) == 0.0

    def test_plane_umbilic(self):
        plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, 3)
        jet = plane.jet([1.0, 0.3, -0.2])
        spec = shape_spectrum(jet)
        forms = forms_of(jet)
        ric = ricci_coordinate(jet, forms)
        assert commutation_residual(ric, forms.metric, shape_operator(spec, forms)) <= 1e-12

    def test_perturbed_cap_sampled_grid(self):
        # 200 interpolated jets from a perturbed cap: the commutator stays at noise
        field = cap()
        lo = field.domain.lo * 0.999
        spacing = float((field.domain.hi[0] - lo[0]) / 32)
        axes = [lo[d] + spacing * np.arange(33) for d in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        base = field._lattice_values(axes)
        bump = 0.01 * np.sin(3 * mesh[0]) * np.cos(2 * mesh[1]) * np.sin(mesh[2] + 0.4)
        grid = GridFunction((33, 33, 33), spacing, lo, base + bump)
        sampled = SampledGridField(grid, order=4)
        rng = np.random.default_rng(16)
        pts = sampled.sample_points(200, rng, margin=4 * spacing)
        worst = 0.0
        for x in pts:
            jet = sampled.jet(x)
            spec = shape_spectrum(jet)
            forms = forms_of(jet)
            ric = ricci_coordinate(jet, forms)
            worst = max(worst, commutation_residual(ric, forms.metric,
                                                    shape_operator(spec, forms)))
        assert worst <= 1e-9


class TestConstancyScan:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_cone_constant_split(self, s):
        field = cone(s)
        rng = np.random.default_rng(17)
        pts = field.sample_points(100, rng)
        scan = constancy_scan(field, pts)
        assert scan.split_ok and not scan.umbilic
        assert scan.kappa0_var <= 1e-20
        assert scan.kappa_t_var <= 1e-20
        assert scan.max_product_defect <= 1e-10
        assert scan.kappa0_mean == pytest.approx(1.0 / math.sqrt(1 + s * s), rel=1e-12)
        assert scan.kappa_t_mean == pytest.approx(math.sqrt(1 + s * s), rel=1e-12)

    def test_horosphere_degenerate_cluster(self):
        field = horosphere()
        rng = np.random.default_rng(18)
        scan = constancy_scan(field, field.sample_points(50, rng))
        assert scan.umbilic
        assert scan.umbilic_value == pytest.approx(1.0, abs=1e-12)

    def test_cap_umbilic_but_not_one(self):
        field = cap()
        rng = np.random.default_rng(19)
        scan = constancy_scan(field, field.sample_points(20, rng))
        assert scan.umbilic
        assert scan.umbilic_value > 1.5


def constancy_per_row(spectra, n):
    """Reference: ``constancy_scan`` clustering one sample at a time with
    ``cluster_kappas``."""
    count = len(spectra.kappas)
    kappa0s, kappa_ts = [], []
    umbilic_vals = []
    split_ok = True
    ric_min = float(np.min(spectra.ricci[:, 0], initial=math.inf))
    for kappas in spectra.kappas:
        clusters = cluster_kappas(kappas)
        if len(clusters) == 1:
            umbilic_vals.extend(kappas.tolist())
            continue
        if len(clusters) == 2 and {len(c) for c in clusters} == {1, n - 1}:
            single = clusters[0] if len(clusters[0]) == 1 else clusters[1]
            rest = clusters[1] if len(clusters[0]) == 1 else clusters[0]
            kappa0s.append(float(kappas[single[0]]))
            kappa_ts.extend(kappas[rest].tolist())
            continue
        split_ok = False
    if umbilic_vals and not kappa0s:
        vals = np.asarray(umbilic_vals)
        return ConstancyScan(float(np.var(vals)), float(np.var(vals)), math.nan,
                             float(np.mean(vals)), float(np.mean(vals)),
                             False, True, float(np.mean(vals)), count, ric_min)
    if not kappa0s or umbilic_vals:
        return ConstancyScan(math.nan, math.nan, math.nan, math.nan, math.nan,
                             False, False, math.nan, count, ric_min)
    k0 = np.asarray(kappa0s)
    kt = np.asarray(kappa_ts)
    defect = float(np.max(np.abs(np.repeat(k0, n - 1) * kt - 1.0)))
    return ConstancyScan(float(np.var(k0)), float(np.var(kt)), defect,
                         float(np.mean(k0)), float(np.mean(kt)),
                         split_ok, False, math.nan, count, ric_min)


def spectrum_row(kind, n, rng):
    """Ascending curvatures of one kind: umbilic, a {1, n-1} split with the single value
    first or last, or three clusters; members of a cluster differ below its 1e-6
    relative gap."""
    base = rng.uniform(0.2, 3.0)
    if kind == "umbilic":
        sizes = [n]
    elif kind == "three":
        sizes = [1, 1, n - 2] if n > 2 else [1, 1]
    else:
        sizes = [1, n - 1] if kind == "single_first" else [n - 1, 1]
    values = []
    for size in sizes:
        values += [base * (1 + 1e-8 * rng.random()) for _ in range(size)]
        base *= rng.uniform(1.1, 2.0)
    return np.sort(values)[:n]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), count=st.integers(1, 30),
       kinds=st.sets(st.sampled_from(["umbilic", "single_first", "single_last", "three"]),
                     min_size=1))
def test_constancy_scan_matches_per_row_clustering(seed, n, count, kinds):
    rng = np.random.default_rng(seed)
    kinds = sorted(kinds)
    kappas = np.array([spectrum_row(kinds[rng.integers(len(kinds))], n, rng)
                       for _ in range(count)])
    spectra = types.SimpleNamespace(kappas=kappas, ricci=rng.normal(size=(count, n)))
    field = horosphere(n=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "shape_spectra", lambda *jets: spectra)
        scan = constancy_scan(field, np.zeros((count, n)))
    assert repr(scan) == repr(constancy_per_row(spectra, n))


class TestGlobalVerdict:
    def _cone_scan(self, s=1.0):
        field = cone(s)
        rng = np.random.default_rng(20)
        return constancy_scan(field, field.sample_points(60, rng))

    def test_equidistant_tube(self):
        assert classify_global(self._cone_scan(), 2) is Verdict.EQUIDISTANT_TUBE

    def test_horosphere(self):
        field = horosphere()
        rng = np.random.default_rng(21)
        scan = constancy_scan(field, field.sample_points(30, rng))
        assert classify_global(scan, 1) is Verdict.HOROSPHERE

    def test_single_end(self):
        assert classify_global(self._cone_scan(), 1,
                               nonneg_ricci=True) is Verdict.SINGLE_END_CANDIDATE

    def test_single_end_needs_nonneg_ricci(self):
        # the paper counts ends only on surfaces with Ricci >= 0
        assert classify_global(self._cone_scan(), 1) is Verdict.INCONCLUSIVE

    def test_inconclusive_for_compact_cap(self):
        field = cap()
        rng = np.random.default_rng(22)
        scan = constancy_scan(field, field.sample_points(30, rng))
        assert classify_global(scan, 0) is Verdict.INCONCLUSIVE

    def test_contradiction(self):
        with pytest.raises(HypothesisContradiction):
            classify_global(self._cone_scan(), 3, nonneg_ricci=True)
        # without the nonneg assertion, three ends is merely inconclusive
        assert classify_global(self._cone_scan(), 3) is Verdict.INCONCLUSIVE

    def test_verdict_deterministic(self):
        a = classify_global(self._cone_scan(), 2)
        b = classify_global(self._cone_scan(), 2)
        assert a is b

    def test_verdict_json(self):
        scan = self._cone_scan()
        rep = verdict_report(classify_global(scan, 2), scan, 2)
        assert rep["verdict"] == "EquidistantTube"
        assert rep["boundary_points"] == 2
        assert rep["kappa0"] == pytest.approx(1.0 / SQ2, rel=1e-10)
        assert rep["kappa_transverse"] == pytest.approx(SQ2, rel=1e-10)

    def test_rigidity_report_pipeline(self):
        field = cone()
        rng = np.random.default_rng(23)
        pts = field.sample_points(40, rng)
        scan = constancy_scan(field, pts)
        assert classify_global(scan, 2) is Verdict.EQUIDISTANT_TUBE
        assert max(scan.kappa0_var, scan.kappa_t_var) <= 1e-20
        spec = shape_spectra(*field.jet_array(pts))
        mask = ricci_null(spec)
        assert np.all(mask.sum(axis=1) == 1)
        assert np.max(np.abs(spec.kappas[mask] - smaller_root(spec.mean, 3))) <= 1e-8


def test_min_ricci_eigenvalue():
    assert shape_spectrum(cone().jet([1.0, 0.0, 0.0])).ricci[0] == pytest.approx(
        0.0, abs=1e-12)
    plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, 3)
    assert shape_spectrum(plane.jet([1.0, 0.0, 0.0])).ricci[0] == pytest.approx(
        -1.0, abs=1e-12)
