import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hybridopt import (Bounds, ObjectiveInstance, load_rotation_file,
                       load_shift_file, make_instance)
from hybridopt import benchmarks as _benchmarks
from hybridopt.benchmarks import (BASE_FUNCTIONS, DimensionMismatch,
                                  InvalidPartition, UnknownFunction,
                                  parse_parts, random_rotation)
from hybridopt.core import ParseError, rng_stream


def _base(fid, z):
    """The named base function at the point z, as a one-row block."""
    return float(BASE_FUNCTIONS[fid](np.asarray(z, dtype=float)[None])[0])


def test_canonical_optima():
    assert _base("rastrigin", np.zeros(6)) == pytest.approx(0.0, abs=1e-12)
    assert _base("rosenbrock", np.ones(5)) == pytest.approx(0.0, abs=1e-12)
    for fid in BASE_FUNCTIONS:
        if fid == "rosenbrock":
            continue
        assert _base(fid, np.zeros(4)) == pytest.approx(0.0, abs=1e-9), fid
    for d in (1, 2, 5, 10, 30):
        assert _base("ackley", np.zeros(d)) == 0.0


def test_hand_evaluations():
    assert _base("elliptic", np.array([1.0, 1.0])) == pytest.approx(1000001.0)
    assert _base("schwefel_2_22", np.array([-2.0, 3.0])) == pytest.approx(11.0)
    # an extra hand case each for the cumulative-sum and max-norm forms
    assert _base("schwefel_1_2", np.array([1.0, 2.0])) == pytest.approx(1 + 9)
    assert _base("schwefel_2_21", np.array([-7.0, 3.0])) == pytest.approx(7.0)


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        make_instance("nope", 3)
    with pytest.raises(UnknownFunction):
        make_instance("shifted_rotated_nope", 3)
    # exactly [shifted_][rotated_](<base>|hybrid): no other order, no repeats
    for fid in ("rotated_shifted_sphere", "shifted_shifted_sphere",
                "rotated_rotated_rastrigin", "rotated_shifted_hybrid"):
        with pytest.raises(UnknownFunction):
            make_instance(fid, 3, parts="sphere:0-2")
    assert make_instance(" Shifted_ROTATED_Sphere ", 3).base_id == "sphere"


def test_non_negativity_everywhere():
    rng = rng_stream(7)
    for fid in BASE_FUNCTIONS:
        for _ in range(50):
            z = rng.uniform(-100, 100, size=6)
            assert _base(fid, z) >= -1e-12, fid


def test_scalability_any_dimension():
    rng = rng_stream(8)
    for fid in BASE_FUNCTIONS:
        for d in (2, 3, 7, 25):
            val = _base(fid, rng.uniform(-1, 1, size=d))
            assert np.isfinite(val), (fid, d)


def test_instance_transforms():
    box = Bounds.symmetric(10.0, 2)
    x = np.array([1.5, -2.0])
    at_shift = ObjectiveInstance("sphere", box, shift=x.copy(), rotation=np.eye(2))
    assert at_shift(x) == 0.0

    ident = ObjectiveInstance("sphere", box, rotation=np.eye(2))
    assert ident(x) == pytest.approx(_base("sphere", x))

    # elliptic weighs z_1 by 1 and z_2 by 1e6, so its value reads the image
    rot90 = ObjectiveInstance("elliptic", box, shift=np.zeros(2),
                              rotation=np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert rot90(np.array([1.0, 0.0])) == pytest.approx(1e6)
    assert rot90(np.array([0.0, 1.0])) == pytest.approx(1.0)

    with pytest.raises(DimensionMismatch):
        at_shift(np.zeros(3))


def test_optimum_preservation():
    rng = rng_stream(11)
    for fid in BASE_FUNCTIONS:
        inst = make_instance(f"shifted_rotated_{fid}", 6, instance_seed=3)
        at_shift = inst(inst.shift)
        assert at_shift == pytest.approx(_base(fid, np.zeros(6)), abs=1e-9)
    del rng


def test_rotation_isometry():
    rng = rng_stream(12)
    m = random_rotation(5, rng)
    for _ in range(25):
        x = rng.uniform(-50, 50, 5)
        o = rng.uniform(-10, 10, 5)
        # sphere is |z|^2, so the instance's value reads the norm of M (x - o)
        inst = ObjectiveInstance("sphere", Bounds.symmetric(100.0, 5), shift=o, rotation=m)
        assert math.sqrt(inst(x)) == pytest.approx(np.linalg.norm(x - o), abs=1e-9)


def test_hybrid_partitions():
    z = np.arange(1.0, 7.0)
    assert make_instance("hybrid", 6, parts="sphere:0-5")(z) \
        == pytest.approx(_base("sphere", z))
    assert make_instance("hybrid", 6, parts="sphere:0-2,sphere:3-5")(z) \
        == pytest.approx(_base("sphere", z))
    assert make_instance("hybrid", 2, parts="sphere:0-0,rastrigin:1-1")(
        np.array([2.0, 0.0])) == pytest.approx(4.0)

    with pytest.raises(InvalidPartition):
        make_instance("hybrid", 3, parts="sphere:0-1,sphere:1-2")
    with pytest.raises(InvalidPartition):
        make_instance("hybrid", 2, parts="sphere:0-0")


def test_pair_functions_need_two_dimensions():
    """rosenbrock, bohachevsky and schaffer sum over coordinate pairs, so at
    d = 1 they would be 0 everywhere; instances and hybrid parts below 2
    indices are refused."""
    for fid in ("rosenbrock", "bohachevsky", "schaffer"):
        assert _base(fid, np.array([3.0])) == 0.0   # no pair: an empty sum
        for prefix in ("", "shifted_", "rotated_", "shifted_rotated_"):
            with pytest.raises(ValueError, match="dimension"):
                make_instance(prefix + fid, 1)
            assert make_instance(prefix + fid, 2)(np.full(2, 3.0)) > 0.0
        with pytest.raises(ValueError, match="dimension"):
            ObjectiveInstance(fid, Bounds.symmetric(1.0, 1))
        with pytest.raises(InvalidPartition):
            make_instance("hybrid", 3, parts=f"sphere:0-1,{fid}:2-2")
        assert make_instance("hybrid", 3, parts=f"sphere:0-0,{fid}:1-2")(
            np.full(3, 3.0)) > 9.0
    # the wrap-around pair of extended_f10 exists at d = 1
    assert make_instance("extended_f10", 1)(np.array([3.0])) > 0.0


def test_parse_parts():
    parts = parse_parts("sphere:0-24,rastrigin:25-49")
    assert parts[0][0] == "sphere" and list(parts[0][1]) == list(range(25))
    assert parts[1][0] == "rastrigin"
    with pytest.raises(ParseError):
        parse_parts("sphere")
    # parse_parts only parses; an empty spec is refused by the instance
    assert parse_parts(" , ") == []
    with pytest.raises(InvalidPartition):
        make_instance("hybrid", 3, parts=" , ")


def test_hybrid_instance():
    inst = make_instance("hybrid", 4, parts="sphere:0-1,rastrigin:2-3")
    assert inst(np.zeros(4)) == pytest.approx(0.0)
    assert inst(np.array([2.0, 0.0, 0.0, 0.0])) == pytest.approx(4.0)


def test_shift_file_loading(tmp_path):
    path = tmp_path / "shift.txt"
    path.write_text("1.0 2.0 3.0\n")
    assert load_shift_file(path, 3) == pytest.approx([1.0, 2.0, 3.0])
    path.write_text("1.0 2.0\n")
    with pytest.raises(DimensionMismatch):
        load_shift_file(path, 3)
    path.write_text("1.0 banana\n")
    with pytest.raises(ParseError):
        load_shift_file(path, 2)


def test_rotation_file_loading(tmp_path):
    path = tmp_path / "rot.txt"
    np.savetxt(path, np.eye(3))
    loaded = load_rotation_file(path, 3)
    assert loaded == pytest.approx(np.eye(3))
    np.savetxt(path, np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        load_rotation_file(path, 3)
    np.savetxt(path, np.ones((3, 3)))   # the loader checks the shape only
    assert np.array_equal(load_rotation_file(path, 3), np.ones((3, 3)))


def test_rotation_file_orthogonality_judged_once(tmp_path):
    path = tmp_path / "rot.txt"
    loose = np.eye(3)
    loose[0, 1] = 1e-5
    np.savetxt(path, loose, fmt="%.17g")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = make_instance("rotated_sphere", 3, rotation_file=str(path))
    assert len(caught) == 1 and "orthogonal" in str(caught[0].message)
    assert np.array_equal(inst.rotation, loose)
    np.savetxt(path, np.ones((3, 3)))
    with pytest.raises(ValueError, match="not orthogonal"):
        make_instance("rotated_sphere", 3, rotation_file=str(path))


def test_instance_seed_reproducibility():
    a = make_instance("shifted_rotated_ackley", 5, instance_seed=9)
    b = make_instance("shifted_rotated_ackley", 5, instance_seed=9)
    c = make_instance("shifted_rotated_ackley", 5, instance_seed=10)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)
    assert not np.array_equal(a.shift, c.shift)


def test_search_ranges_applied():
    inst = make_instance("schwefel_1_2", 4)
    assert inst.bounds.lower == pytest.approx([-65.536] * 4)
    assert make_instance("ackley", 3).bounds.upper == pytest.approx([32.0] * 3)
    half = {fid: make_instance(fid, 2).bounds.upper[0] for fid in BASE_FUNCTIONS}
    assert {fid: h for fid, h in half.items() if h != 100.0} == {
        "schwefel_1_2": 65.536, "schwefel_2_22": 10.0, "ackley": 32.0,
        "griewank": 600.0}
    # a hybrid takes the box of its first part
    hybrid = make_instance("hybrid", 4, parts="ackley:0-1,sphere:2-3")
    assert hybrid.bounds.upper == pytest.approx([32.0] * 4)


# Per-point reference forms: one point z at a time, each dot product one
# np.dot.  Every row of ObjectiveInstance.batch, and every call, must equal
# them bit for bit.
def _ref_pairwise_f10(x, y):
    s = x * x + y * y
    return s ** 0.25 * (np.sin(50.0 * s ** 0.1) ** 2 + 1.0)


_W_AK = 0.5 ** np.arange(21)
_W_BK = 3.0 ** np.arange(21)
_W_OFFSET = float(np.sum(_W_AK * np.cos(np.pi * _W_BK)))


def _ref_weierstrass(z):
    u = np.outer(z + 0.5, _W_BK)
    u = u - np.floor(u)
    return float(np.sum(np.cos(2.0 * np.pi * u) @ _W_AK) - z.size * _W_OFFSET)


_REFERENCE = {
    "sphere": lambda z: float(np.dot(z, z)),
    "elliptic": lambda z: float(z[0] * z[0] if z.size == 1 else np.dot(
        np.power(1e6, np.arange(z.size) / (z.size - 1)), z * z)),
    "bent_cigar": lambda z: float(z[0] * z[0] + 1e6 * np.dot(z[1:], z[1:])),
    "discus": lambda z: float(1e6 * z[0] * z[0] + np.dot(z[1:], z[1:])),
    "schwefel_1_2": lambda z: float(np.dot(np.cumsum(z), np.cumsum(z))),
    "schwefel_2_21": lambda z: float(np.max(np.abs(z))),
    "schwefel_2_22": lambda z: float(np.sum(np.abs(z)) + np.prod(np.abs(z))),
    "rosenbrock": lambda z: float(np.sum(100.0 * (z[:-1] ** 2 - z[1:]) ** 2
                                         + (z[:-1] - 1.0) ** 2)),
    "rastrigin": lambda z: float(np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0)),
    "ackley": lambda z: float((20.0 - 20.0 * np.exp(-0.2 * np.sqrt(np.dot(z, z) / z.size)))
                              + (np.e - np.exp(np.sum(np.cos(2.0 * np.pi * z)) / z.size))),
    "griewank": lambda z: float(1.0 + np.dot(z, z) / 4000.0
                                - np.prod(np.cos(z / np.sqrt(np.arange(1, z.size + 1))))),
    "bohachevsky": lambda z: float(np.sum(z[:-1] * z[:-1] + 2.0 * z[1:] * z[1:]
                                          - 0.3 * np.cos(3.0 * np.pi * z[:-1])
                                          - 0.4 * np.cos(4.0 * np.pi * z[1:]) + 0.7)),
    "schaffer": lambda z: float(np.sum(_ref_pairwise_f10(z[:-1], z[1:]))),
    "extended_f10": lambda z: float(np.sum(_ref_pairwise_f10(z[:-1], z[1:]))
                                    + _ref_pairwise_f10(z[-1], z[0])),
    "weierstrass": _ref_weierstrass,
}


def _reference_value(inst, x):
    z = np.asarray(x, dtype=float)
    if inst.shift is not None:
        z = z - inst.shift
    if inst.rotation is not None:
        z = inst.rotation @ z
    if inst.partition is None:
        return _REFERENCE[inst.base_id](z)
    return float(sum(_REFERENCE[fid](z[idx]) for fid, idx in inst.partition))


def _hybrid_spec(d):
    if d < 10:
        return "elliptic:0-0,weierstrass:1-1" + (f",ackley:2-{d - 1}" if d > 2 else "")
    return f"schwefel_1_2:0-2,elliptic:3-5,extended_f10:6-{d - 1}"


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_batch_rows_equal_point_values_bitwise(d):
    assert set(_REFERENCE) == set(BASE_FUNCTIONS)
    rng = rng_stream(d)
    ids = [prefix + fid for fid in BASE_FUNCTIONS
           for prefix in ("", "shifted_", "rotated_", "shifted_rotated_")]
    ids += ["hybrid", "shifted_rotated_hybrid"]
    for function_id in ids:
        inst = make_instance(function_id, d, instance_seed=d, parts=_hybrid_spec(d))
        for n in (1, 2, 7, 40):
            # up to half a box width outside the box on either side
            X = rng.uniform(1.5 * inst.bounds.lower, 1.5 * inst.bounds.upper, (n, d))
            expected = np.array([_reference_value(inst, x) for x in X])
            assert inst.batch(X).tobytes() == expected.tobytes(), (function_id, n)
            assert np.array([inst(x) for x in X]).tobytes() == expected.tobytes()
        # a strided block reads as its rows
        assert inst.batch(X[::3]).tobytes() == expected[::3].tobytes()


@pytest.mark.parametrize("d", [2, 3, 17, 64, 333, 1000])
def test_stacked_row_dots_equal_per_row_np_dot(d):
    # _row_dots and _elliptic make one stacked matmul per block; every row
    # must equal its own np.dot bit for bit, on contiguous and sliced operands
    rng = rng_stream(d)
    for n in (1, 2, 40):
        Z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        blocks = [Z, Z[:, 1:], Z[:, :-1], Z.take(rng.permutation(d), axis=1), Z[::2]]
        for A in blocks:
            expected = np.array([np.dot(u, u) for u in A])
            assert _benchmarks._row_dots(A, A).tobytes() == expected.tobytes(), (n, A.shape)
            if A.shape[1] > 1:
                w = np.power(1e6, np.arange(A.shape[1]) / (A.shape[1] - 1))
                expected = np.array([np.dot(w, z * z) for z in A])
                assert _benchmarks._elliptic(A).tobytes() == expected.tobytes(), (n, A.shape)
        expected = np.array([np.dot(u, v) for u, v in zip(Z[:, 1:], Z[:, :-1])])
        assert _benchmarks._row_dots(Z[:, 1:], Z[:, :-1]).tobytes() == expected.tobytes()


def test_batch_shape_and_partition_checked_once():
    inst = make_instance("hybrid", 4, parts="sphere:0-1,rastrigin:2-3")
    assert inst.batch(np.zeros((0, 4))).shape == (0,)
    with pytest.raises(DimensionMismatch):
        inst.batch(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        inst.batch(np.zeros(4))
    box = Bounds.symmetric(1.0, 3)
    with pytest.raises(InvalidPartition):
        ObjectiveInstance("hybrid", box, partition=(("sphere", np.array([0, 1])),))
    with pytest.raises(UnknownFunction):
        ObjectiveInstance("nope", box)
    # d is read from the bounds, and shift and rotation are checked against it
    # when the instance is made
    with pytest.raises(TypeError):
        ObjectiveInstance("sphere", box, d=3)
    for data in ({"shift": np.zeros(2)}, {"shift": np.zeros((1, 3))},
                 {"rotation": np.eye(5)}, {"rotation": np.eye(3)[:2]}):
        with pytest.raises(DimensionMismatch):
            ObjectiveInstance("sphere", box, **data)


def test_instance_data_checked_once_when_made(monkeypatch):
    calls = []
    real = _benchmarks.validate_partition

    def counted(parts, d):
        calls.append(d)
        return real(parts, d)

    monkeypatch.setattr(_benchmarks, "validate_partition", counted)
    inst = make_instance("shifted_rotated_hybrid", 4, parts="sphere:0-1,rastrigin:2-3")
    assert calls == [4]
    assert inst.d == inst.bounds.d == 4
    assert [fid for fid, _ in inst.partition] == ["sphere", "rastrigin"]
    inst.batch(np.zeros((5, 4)))
    inst(np.zeros(4))
    assert calls == [4]   # evaluation checks only the block


def test_non_finite_instance_data_rejected(tmp_path):
    box = Bounds.symmetric(1.0, 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ObjectiveInstance("sphere", box, shift=np.array([1.0, bad, 3.0]))
        rotation = np.eye(3)
        rotation[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ObjectiveInstance("sphere", box, rotation=rotation)
    shift_path, rot_path = tmp_path / "shift.txt", tmp_path / "rot.txt"
    shift_path.write_text("1 nan 3\n")
    rot_path.write_text("nan 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ValueError, match="non-finite"):
        make_instance("shifted_sphere", 3, shift_file=str(shift_path))
    with pytest.raises(ValueError, match="non-finite"):
        make_instance("rotated_sphere", 3, rotation_file=str(rot_path))


def test_instances_compare_and_hash_by_identity():
    inst = make_instance("shifted_sphere", 3, instance_seed=1)
    twin = make_instance("shifted_sphere", 3, instance_seed=1)
    assert inst == inst and inst != twin
    assert len({inst, twin, inst}) == 2
    assert hash(inst) == hash(inst)


def _exact_weierstrass(z):
    """The series at the float point z, each b^k (z_i + 1/2) reduced mod 1
    in exact rational arithmetic before the cosine; the offset -sum(a^k)
    enters term by term as the + 1."""
    terms = []
    for zi in z:
        u = Fraction(float(zi)) + Fraction(1, 2)
        for k in range(21):
            r = u * 3 ** k
            r -= math.floor(r)
            terms.append(0.5 ** k * (math.cos(2.0 * math.pi * float(r)) + 1.0))
    return math.fsum(terms)


def test_weierstrass_offset_is_minus_the_weight_sum():
    assert _benchmarks._W_OFFSET == -sum(_benchmarks._W_AK)
    assert _benchmarks._W_OFFSET == -1.9999990463256836


@pytest.mark.parametrize("d", [2, 5, 10, 50, 100])
def test_weierstrass_is_exactly_zero_at_the_optimum(d):
    inst = make_instance("shifted_rotated_weierstrass", d, instance_seed=d)
    assert inst(inst.shift) == 0.0
    assert inst.batch(np.tile(inst.shift, (3, 1))).tolist() == [0.0] * 3
    hybrid = make_instance("shifted_rotated_hybrid", d, instance_seed=d,
                           parts=f"elliptic:0-0,weierstrass:1-{d - 1}")
    assert hybrid(hybrid.shift) == 0.0


@pytest.mark.parametrize("d", [2, 5, 10])
def test_weierstrass_matches_exact_reduction(d):
    inst = make_instance("shifted_rotated_weierstrass", d, instance_seed=d)
    rng = rng_stream(100 + d)
    lo, hi = inst.bounds.lower, inst.bounds.upper
    X = np.vstack([rng.uniform(1.5 * lo, 1.5 * hi, (20, d)),
                   inst.shift + rng.uniform(-1e-3, 1e-3, (20, d))])
    exact = [_exact_weierstrass(inst.rotation @ (x - inst.shift)) for x in X]
    assert np.max(np.abs(inst.batch(X) - exact)) <= 2e-9
