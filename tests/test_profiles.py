import random

import pytest

import gliderplan as gp


class TestPaperParameters:
    def test_count_is_20(self, paper_profile_params):
        assert len(gp.generate_dive_profiles(paper_profile_params)) == 20

    def test_levels(self, paper_profile_params):
        profs = gp.generate_dive_profiles(paper_profile_params)
        climb = sorted(set(p.z_climb_to for p in profs))
        dive = sorted(set(p.z_dive_to for p in profs))
        assert climb == [0.0, 40.0 / 3.0, 80.0 / 3.0, 40.0]
        assert dive == [50.0, 80.0, 110.0, 140.0, 170.0, 200.0]

    def test_excluded_pairs(self, paper_profile_params):
        profs = gp.generate_dive_profiles(paper_profile_params)
        pairs = {(p.z_climb_to, p.z_dive_to) for p in profs}
        for excluded in [(40.0 / 3.0, 50.0), (80.0 / 3.0, 50.0),
                         (40.0, 50.0), (40.0, 80.0)]:
            assert excluded not in pairs
        # boundary pair at exactly the minimum amplitude is kept
        assert (0.0, 50.0) in pairs

    def test_emission_order(self, paper_profile_params):
        # outer climb-to ascending, inner dive-to descending
        profs = gp.generate_dive_profiles(paper_profile_params)
        assert [p.index for p in profs] == list(range(20))
        assert profs[0].z_climb_to == 0.0 and profs[0].z_dive_to == 200.0
        assert profs[5].z_dive_to == 50.0
        assert profs[6].z_climb_to == pytest.approx(40.0 / 3.0)
        assert profs[-1] == gp.DiveProfile(40.0, 110.0, 19)


class TestSmallCases:
    def test_single_level_pair(self):
        profs = gp.generate_dive_profiles(
            gp.DiveProfileParams(0.0, 200.0, 40.0, 50.0, 1, 1))
        assert profs == [gp.DiveProfile(0.0, 200.0, 0)]

    def test_extreme_band_always_feasible(self):
        # the (z_min, z_max) pair always clears the amplitude floor under
        # valid parameters, so a non-empty result is guaranteed
        profs = gp.generate_dive_profiles(
            gp.DiveProfileParams(0.0, 101.0, 100.0, 100.0, 2, 2))
        assert (0.0, 101.0) in {(p.z_climb_to, p.z_dive_to) for p in profs}


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(z_min=-1.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=50.0, n_climb_levels=4, n_dive_levels=6),
        dict(z_min=50.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=50.0, n_climb_levels=4, n_dive_levels=6),
        dict(z_min=0.0, z_max=40.0, z_climb_to_max=40.0,
             d_min_range=50.0, n_climb_levels=4, n_dive_levels=6),
        dict(z_min=0.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=0.0, n_climb_levels=4, n_dive_levels=6),
        dict(z_min=0.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=50.0, n_climb_levels=0, n_dive_levels=6),
        dict(z_min=0.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=50.0, n_climb_levels=4, n_dive_levels=0),
        dict(z_min=0.0, z_max=200.0, z_climb_to_max=40.0,
             d_min_range=250.0, n_climb_levels=4, n_dive_levels=6),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(gp.ParameterError):
            gp.DiveProfileParams(**kwargs)


class TestProperties:
    def random_params(self, rng):
        z_min = rng.uniform(0, 20)
        z_climb_max = z_min + rng.uniform(0, 50)
        z_max = z_climb_max + rng.uniform(1, 200)
        d_min = rng.uniform(0.5, z_max - z_min)
        return gp.DiveProfileParams(z_min, z_max, z_climb_max, d_min,
                                    rng.randint(1, 8), rng.randint(1, 8))

    def test_bounds_and_filter(self):
        rng = random.Random(42)
        for _ in range(200):
            p = self.random_params(rng)
            try:
                profs = gp.generate_dive_profiles(p)
            except gp.ParameterError:
                continue
            assert len(profs) <= p.n_climb_levels * p.n_dive_levels
            for prof in profs:
                assert prof.z_dive_to - prof.z_climb_to >= p.d_min_range
                assert p.z_min <= prof.z_climb_to <= p.z_climb_to_max
                assert prof.z_climb_to < prof.z_dive_to <= p.z_max

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(20):
            p = self.random_params(rng)
            try:
                a = gp.generate_dive_profiles(p)
            except gp.ParameterError:
                continue
            assert a == gp.generate_dive_profiles(p)

    def test_filter_removes_only_sub_threshold_pairs(self):
        # the filter keeps exactly the pairs meeting the amplitude floor
        p = gp.DiveProfileParams(0.0, 200.0, 40.0, 50.0, 4, 6)
        profs = gp.generate_dive_profiles(p)
        climb = [0.0 + i * (40.0 / 3.0) for i in range(3)] + [40.0]
        dive = [200.0 - j * 30.0 for j in range(5)] + [50.0]
        expected = sum(1 for zc in climb for zd in dive if zd - zc >= 50.0)
        assert len(profs) == expected

    def test_full_cross_product_when_bands_disjoint(self):
        # every dive level clears every climb level by the amplitude floor
        p = gp.DiveProfileParams(0.0, 300.0, 40.0, 100.0, 4, 5)
        # dive levels descend from 300 to 100; worst pair (40, 100) has
        # amplitude 60 < 100, so not all pairs survive; verify the rule
        profs = gp.generate_dive_profiles(p)
        for prof in profs:
            assert prof.z_dive_to - prof.z_climb_to >= 100.0


class TestDiveProfileValidation:
    # a sawtooth needs 0 <= z_climb_to < z_dive_to: equal depths would
    # make a zero period, and a dive shallower than the climb a negative
    # one, which the integrator cannot fly
    @pytest.mark.parametrize("zc, zd", [(10.0, 10.0), (50.0, 10.0),
                                        (-1.0, 50.0), (0.0, 0.0),
                                        (float("nan"), 50.0),
                                        (0.0, float("nan"))])
    def test_rejected(self, zc, zd):
        with pytest.raises(gp.ParameterError):
            gp.DiveProfile(zc, zd, 0)

    def test_accepted(self):
        p = gp.DiveProfile(0.0, 1e-9, 3)
        assert (p.z_climb_to, p.z_dive_to, p.index) == (0.0, 1e-9, 3)
