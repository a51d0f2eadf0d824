from contactcheck.contact import fibered_chart, hopf_chart, scaling_degree
from contactcheck.rootsystem import builtin_root_system
from contactcheck.sampling import MAX_MAGNITUDE, SeededSampler


def test_same_seed_same_stream():
    a = SeededSampler(42)
    b = SeededSampler(42)
    assert [a.fraction() for _ in range(20)] == [b.fraction() for _ in range(20)]
    cc = hopf_chart(1)
    assert a.point(cc) == b.point(cc)
    fa = a.homogeneous(cc, 3)
    fb = b.homogeneous(cc, 3)
    assert fa.coeff == fb.coeff


def test_fraction_bounds():
    sampler = SeededSampler(1)
    for _ in range(200):
        value = sampler.fraction()
        assert value.im == 0
        assert abs(value.re.numerator) <= MAX_MAGNITUDE * MAX_MAGNITUDE
        assert 1 <= value.re.denominator <= MAX_MAGNITUDE


def test_points_are_admissible():
    sampler = SeededSampler(9)
    fib = fibered_chart(1, 2)
    for _ in range(30):
        point = sampler.point(fib)
        assert not point["lam"].is_zero()
    glob = hopf_chart(0)
    for _ in range(30):
        point = sampler.point(glob)
        assert any(not v.is_zero() for v in point.values())


def test_homogeneous_samples_have_exact_degree():
    sampler = SeededSampler(77)
    for cc, degrees in [
        (hopf_chart(1), range(0, 5)),
        (fibered_chart(0, 3), range(-2, 5)),
    ]:
        for ell in degrees:
            f = sampler.homogeneous(cc, ell)
            assert scaling_degree(cc, f.coeff) == ell


def test_words_use_roots_with_nonzero_times():
    sampler = SeededSampler(5)
    rs = builtin_root_system("G2")
    for _ in range(10):
        word = sampler.word(rs, 3)
        assert len(word) == 3
        for root, t in word:
            assert rs.is_root(root)
            assert t != 0
