"""Channel representation tests: Choi/Kraus round trips, the Choi
contraction against the Kraus route, and the builder family."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qdecouple import channel as chan
from qdecouple import entropy as ent
from qdecouple import haar
from qdecouple.linalg import (
    StateOperator,
    apply_matrix,
    maximally_entangled,
    partial_trace,
    random_density,
    state_to_json,
    trace_distance,
)

from conftest import kraus_of, maximally_mixed


def apply_via_kraus(ch, state, on):
    """sum_i K_i rho K_i^H on the ``on`` subsystems, the oracle for the Choi
    contraction of ``channel.apply``."""
    out_pairs = ((chan.OUT_LABEL, ch.dim_out),)
    terms = [apply_matrix(state, k, on, out=out_pairs) for k in kraus_of(ch)]
    return StateOperator(terms[0].dims, sum(t.matrix for t in terms), validate=False)


def test_identity_channel_choi_is_maximally_entangled():
    ch = chan.identity_channel(3)
    want = maximally_entangled(chan.IN_LABEL, "B", 3).to_operator()
    assert trace_distance(ch.choi, want) <= 1e-12
    assert ch.choi.trace == pytest.approx(1.0)
    assert ch.trace_class is chan.TraceClass.TRACE_PRESERVING


def test_subnormalized_single_kraus():
    ch = chan.choi_of([np.eye(2) / np.sqrt(2)])
    want = maximally_entangled(chan.IN_LABEL, "B", 2).to_operator()
    assert np.abs(ch.choi.matrix - 0.5 * want.matrix).max() <= 1e-12
    assert ch.choi.trace == pytest.approx(0.5)
    assert ch.trace_class is chan.TraceClass.TRACE_NON_INCREASING


def test_choi_kraus_round_trip_random():
    rng = np.random.default_rng(50)
    for _ in range(10):
        ch = chan.random_tp_channel(rng, 3, 2, env=int(rng.integers(2, 5)))
        back = chan.choi_of(kraus_of(ch))
        assert np.abs(back.choi.matrix - ch.choi.matrix).max() <= 1e-9
        assert back.trace_class is ch.trace_class


def full_unitary_tp_channel(rng, dim_in, dim_out, env=None):
    """A Haar unitary of size dim_out env, its first dim_in columns V, and
    each Kraus entry filled from V row by row: the construction that
    ``random_tp_channel`` draws bit for bit from d_in columns."""
    env = env if env is not None else dim_in
    total = dim_out * env
    v = haar.haar_unitary(total, rng)[:, :dim_in]
    kraus = []
    for i in range(env):
        k = np.zeros((dim_out, dim_in), dtype=complex)
        for b in range(dim_out):
            k[b, :] = v[b * env + i, :]
        kraus.append(k)
    return chan.choi_of(kraus)


TP_SHAPES = ([(d_in, d_out, env) for d_in in (1, 2, 3, 4, 8) for d_out in (1, 2, 3, 4, 16)
              for env in (None, 1, 2, 5) if d_out * (env or d_in) >= d_in]
             + [(2, 128, None), (4, 64, None), (8, 32, None), (16, 16, None), (32, 8, None)])


def test_random_tp_channel_matches_the_full_unitary_construction():
    # oracle: full_unitary_tp_channel, compared byte for byte on the Choi
    # matrix and on the generator's next draw.  A fresh interpreter at one
    # BLAS thread runs it: at two threads the oracle's own 128 x 128 QR
    # rounds differently from its one-thread run
    code = textwrap.dedent("""
        import numpy as np
        from qdecouple import channel as chan
        from test_channel import TP_SHAPES, full_unitary_tp_channel
        count, differ = 0, []
        for shape in TP_SHAPES:
            for seed in range(4):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = chan.random_tp_channel(a, *shape).choi.matrix
                want = full_unitary_tp_channel(b, *shape).choi.matrix
                count += 1
                if (got.tobytes() != want.tobytes()
                        or a.standard_normal(2).tobytes() != b.standard_normal(2).tobytes()):
                    differ.append((shape, seed))
        print(count, differ)
        """)
    src = str(Path(chan.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{4 * len(TP_SHAPES)} []"


def test_choi_bijection_on_random_psd():
    rng = np.random.default_rng(51)
    for _ in range(100):
        ch = chan.random_cpm(rng, 2, 3, trace=float(rng.uniform(0.2, 1.0)))
        back = chan.choi_of(kraus_of(ch))
        assert np.abs(back.choi.matrix - ch.choi.matrix).max() <= 1e-9


def test_choi_of_rejects_empty_and_mismatched_kraus_sets():
    with pytest.raises(chan.ChannelError, match="empty Kraus set"):
        chan.choi_of([])
    with pytest.raises(chan.ChannelError, match="inconsistent Kraus operator shapes"):
        chan.choi_of([np.eye(2), np.ones((3, 2))])
    with pytest.raises(chan.ChannelError, match="inconsistent Kraus operator shapes"):
        chan.choi_of([np.eye(2), np.eye(2)[:, :1]])


def test_apply_identity_channel():
    rng = np.random.default_rng(52)
    st = random_density(rng, (("A", 2), ("E", 3)))
    out = chan.apply(chan.identity_channel(2), st, ("A",))
    assert np.abs(out.matrix - st.matrix).max() <= 1e-12


def test_apply_erasure_channel():
    rng = np.random.default_rng(53)
    sigma = random_density(rng, (("A", 4),))
    out = chan.apply(chan.reference_channel("erase", 2), sigma, ("A",))
    assert out.dims.pairs == (("B", 1),)
    assert out.matrix[0, 0] == pytest.approx(sigma.trace)


def test_apply_choi_and_kraus_routes_agree():
    rng = np.random.default_rng(54)
    for _ in range(10):
        ch = chan.random_cpm(rng, 2, 3, trace=float(rng.uniform(0.3, 1.0)))
        st = random_density(rng, (("A", 2), ("E", 2)))
        out1 = chan.apply(ch, st, ("A",))
        out2 = apply_via_kraus(ch, st, ("A",))
        assert np.abs(out1.matrix - out2.permute(out1.labels).matrix).max() <= 1e-10


def test_apply_is_linear():
    rng = np.random.default_rng(55)
    ch = chan.random_tp_channel(rng, 2, 2)
    a = random_density(rng, (("A", 2), ("E", 2)))
    b = random_density(rng, (("A", 2), ("E", 2)))
    mix = StateOperator(a.dims, 0.3 * a.matrix + 0.7 * b.matrix)
    lhs = chan.apply(ch, mix, ("A",)).matrix
    rhs = (0.3 * chan.apply(ch, a, ("A",)).matrix
           + 0.7 * chan.apply(ch, b, ("A",)).matrix)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_apply_dimension_mismatch():
    ch = chan.identity_channel(2)
    st = maximally_mixed((("A", 3),))
    with pytest.raises(chan.ChannelError):
        chan.apply(ch, st, ("A",))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

TABLE_CASES = [
    ("id", 1, None, -1), ("id", 2, None, -2),
    ("meas", 1, None, 0), ("meas", 2, None, 0),
    ("erase", 1, None, 1), ("erase", 2, None, 2),
    ("id+meas", 2, 1, -1), ("id+meas", 3, 2, -2),
    ("id+trace", 2, 1, 0), ("id+trace", 3, 1, 1),
]


@pytest.mark.parametrize("kind,m,mp,want", TABLE_CASES)
def test_builder_choi_min_entropy(kind, m, mp, want):
    ch = chan.reference_channel(kind, m, mp)
    assert ch.trace_class is chan.TraceClass.TRACE_PRESERVING
    got = ent.h_min(ch.choi, (chan.IN_LABEL,), (chan.OUT_LABEL,)).value
    assert got == pytest.approx(want, abs=1e-6)


def test_builders_trace_preserving_marginal():
    for kind, m, mp, _ in TABLE_CASES:
        ch = chan.reference_channel(kind, m, mp)
        marg = partial_trace(ch.choi, [chan.IN_LABEL]).matrix
        assert np.abs(marg - np.eye(ch.dim_in) / ch.dim_in).max() <= 1e-10


@pytest.mark.parametrize("spec,combined", [
    (f"{kind}:{m}", f"{combined}:{m},{m if kind == 'id' else 0}")
    for kind, combined in (("id", "id+meas"), ("meas", "id+meas"), ("erase", "id+trace"))
    for m in range(4)
])
def test_single_kind_specs_are_combined_builders(spec, combined):
    got, want = chan.parse_spec(spec), chan.parse_spec(combined)
    assert np.array_equal(got.choi.matrix, want.choi.matrix)
    assert got.choi.dims == want.choi.dims
    assert got.trace_class is want.trace_class


def test_trace_class_is_not_an_init_parameter():
    ch = chan.identity_channel(2)
    with pytest.raises(TypeError):
        chan.Channel(ch.dim_in, ch.dim_out, ch.choi, chan.TraceClass.GENERAL)
    with pytest.raises(TypeError):
        chan.Channel(ch.dim_in, ch.dim_out, ch.choi, trace_class=chan.TraceClass.GENERAL)


def test_builder_validation():
    with pytest.raises(chan.ChannelError):
        chan.reference_channel("id+trace", 2, 3)
    with pytest.raises(chan.ChannelError):
        chan.reference_channel("id+trace", 2)
    with pytest.raises(chan.ChannelError):
        chan.reference_channel("warp", 2)


def test_parse_spec():
    ch = chan.parse_spec("id+trace:3,1")
    assert (ch.dim_in, ch.dim_out) == (8, 2)
    with pytest.raises(chan.ChannelError):
        chan.parse_spec("id:x")


@pytest.mark.parametrize("defect", [
    lambda o: o.update(dim_in=2.5),
    lambda o: o.update(dim_out="3"),
    lambda o: o.update(dim_in=True),
    lambda o: o.pop("dim_out"),
    lambda o: o.pop("choi"),
    lambda o: o.update(choi=[]),
    lambda o: o.update(choi=state_to_json(maximally_mixed((("A'", 4),)))),
    lambda o: o["choi"]["dims"][1].update(label="C"),
], ids=["float dim_in", "string dim_out", "bool dim_in", "no dim_out", "no choi",
        "choi list", "one-system choi", "output label C"])
def test_channel_json_rejects_malformed_objects(defect):
    obj = json.loads(json.dumps(chan.channel_to_json(chan.identity_channel(2))))
    defect(obj)
    with pytest.raises(chan.ChannelError):
        chan.channel_from_json(obj)
    with pytest.raises(chan.ChannelError):
        chan.channel_from_json([obj])


def test_channel_json_round_trip():
    rng = np.random.default_rng(61)
    ch = chan.random_tp_channel(rng, 2, 3)
    back = chan.channel_from_json(chan.channel_to_json(ch))
    assert (back.dim_in, back.dim_out) == (2, 3)
    assert np.abs(back.choi.matrix - ch.choi.matrix).max() <= 1e-15
    assert back.trace_class is ch.trace_class
