"""Trajectories, quadrature, occupation kernels, and their adjoint identities."""

import contextlib
import csv
import hashlib
import io
import json
import struct
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyliou import acceptance, occupation
from hardyliou.cli import console_main
from hardyliou import (
    CompositionOutOfDiskError,
    DiskDomainError,
    DiskExitError,
    InsufficientDataError,
    InvalidIndexError,
    StepBudgetError,
    SymbolOverflowError,
    TaylorPolynomial,
    Trajectory,
    TrajectoryIngestionError,
    endpoint_kernel_difference,
    field_defect,
    inner_product,
    integrate_ode,
    liouville_occupation_residual,
    monomial,
    occupation_kernel,
    read_trajectory_csv,
    szego_kernel,
    weighted_occupation_residual,
    write_trajectory_csv,
)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.1]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, np.nan]), np.array([0.1, 0.2]))


def test_trajectory_disk_margin_cites_sample():
    with pytest.raises(DiskDomainError) as info:
        Trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.1, 0.9995, 0.2], dtype=complex),
        )
    assert "sample 1" in str(info.value)


def test_trajectory_properties():
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.3j]))
    assert traj.duration == 1.0
    assert traj.uniform
    skew = Trajectory(np.array([0.0, 0.5, 2.0]), np.array([0.1, 0.2, 0.3]))
    assert not skew.uniform


def test_trajectory_immutable_arrays():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        traj.times[0] = 5.0


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0, 1, 17))
    points = 0.5 * (rng.standard_normal(17) + 1j * rng.standard_normal(17)) / 3
    traj = Trajectory(times, points)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.points, traj.points)
    # file digest equals the canonical content digest
    assert back.content_digest() == traj.content_digest()


def test_csv_bytes_match_per_row_fstring():
    traj = Trajectory(
        np.array([-0.0, 5e-324, 1e-300, 0.1, 1.0]),
        np.array([
            complex(-0.0, 0.1),
            complex(5e-324, -0.0),
            complex(1e-300, 5e-324),
            complex(0.1, 1e-300),
            complex(-0.0, -0.0),
        ]),
    )
    lines = ["t,re,im"]
    for t, z in zip(traj.times, traj.points):
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g}")
    assert occupation._csv_bytes(traj) == ("\n".join(lines) + "\n").encode()


def _g17_oracle(trajectory):
    """The canonical CSV text, one ``f"{x:.17g}"`` per cell."""
    points = trajectory.points
    cells = zip(trajectory.times.tolist(), points.real.tolist(), points.imag.tolist())
    rows = "".join(f"{t:.17g},{re:.17g},{im:.17g}\n" for t, re, im in cells)
    return ("t,re,im\n" + rows).encode()


def _cells_trajectory(cells):
    # _csv_bytes reads only ``times`` and ``points``; these cells need not be
    # a valid trajectory
    values = np.asarray(cells, dtype=np.float64).reshape(-1, 3)
    points = np.empty(len(values), dtype=np.complex128)
    points.real, points.imag = values[:, 1], values[:, 2]
    return types.SimpleNamespace(times=values[:, 0], points=points)


def _double(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


# any finite double by its bit pattern; half the draws take an exponent in or
# next to the formatter's fast range 1e-5 <= |x| < 2**52
_FINITE_DOUBLES = st.builds(
    _double,
    st.integers(0, 1),
    st.one_of(st.integers(0, 2046), st.integers(1023 - 19, 1023 + 54)),
    st.integers(0, 2**52 - 1),
)
# each power of ten's double and its neighbours: where log10 misses E by one,
# and (below each 10**k) the largest 17-digit roundings the fast range has
_POWER_NEIGHBOURS = [
    float(np.nextafter(float(f"1e{k}"), toward))
    for k in range(-12, 18)
    for toward in (0.0, np.inf)
] + [float(f"1e{k}") for k in range(-12, 18)]


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_FINITE_DOUBLES, min_size=1, max_size=60))
# below 10**k: a kernel that takes E from the rounded product prints 1e-07
@example(cells=[1e-7, 1e-6, -1e-7])
@example(cells=_POWER_NEIGHBOURS)
@example(cells=[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
@example(cells=[2.0**52 - 1, 2.0**52, 2.0**52 + 1, 1e-5, float(np.nextafter(1e-5, 0.0)),
                float(np.nextafter(1e-5, 1.0))])
# 17-digit rounding carries into the next decade (all outside the fast range)
@example(cells=[1e-14, 1e-305, 1e-176, 1e-79, 1e98, 1e153])
# ties at the 18th digit: half to even keeps ...62 and rounds ...87 up
@example(cells=[123456789012345.625, 123456789012345.875, 12345678901234.5625])
def test_csv_bytes_match_per_cell_g17(cells):
    cells = cells + [0.0] * (-len(cells) % 3)
    trajectory = _cells_trajectory(cells)
    assert occupation._csv_bytes(trajectory) == _g17_oracle(trajectory)


def test_plain_orbit_takes_the_fast_path(tmp_path, monkeypatch):
    cells = []
    template = occupation._g17_cells

    def counted(values):
        cells.extend(values)
        return template(values)

    monkeypatch.setattr(occupation, "_g17_cells", counted)
    # one cell in 1e-5 <= |x| < 1e-4 takes the exponent form; none is smaller
    orbit = integrate_ode(TaylorPolynomial([0, -0.5 + 1j]), 0.3 + 0.2j, 1.0, 1e-3)
    path = tmp_path / "orbit.csv"
    write_trajectory_csv(orbit, path)
    assert orbit.times.size == 1001 and cells == []
    assert b"e-05," in path.read_bytes()
    assert path.read_bytes() == _g17_oracle(orbit)
    points = orbit.points.copy()
    points[7] = complex(3e-6, points[7].imag)
    small = Trajectory(orbit.times, points)
    write_trajectory_csv(small, path)
    assert cells == [3e-6]
    assert small.content_digest() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert b"\n0.0070000000000000001,3.0000000000000001e-06," in path.read_bytes()


# sha256 of each orbit of the acceptance standard batch as written before the
# vectorised formatter; the CSV bytes are a contract, on every supported NumPy
_STANDARD_BATCH_DIGESTS = [
    "f41ba5d6f376a522b0e76acf73b8015eb776e912cb30d045a375bd3e9c5173dd",
    "9ad252e077e4e8d2c19879163c274b2aee0590b0e9469b527842d2593426408d",
    "455e7ce659097709f1b1cfed540c4773a00a2a7ce20685ebfd30ec78a64f0b09",
    "a241cefb6934e8540ef0f110401c88302b370774ec9fe7994b58632e5e9ac3cb",
    "b54221d8eeff0613fc6bccd985bf4024300fa32a5c2dd60599e7a468e9cfe39e",
    "861e9ef0b02af5e674f72065e2427880b74482093d29e5a3876b0425971be925",
    "12ab4a488d382b6507e5ca74d3d7bd3834b914144a7b013432864353c2437305",
    "9c1bc5b68f1ffbd78587725ca6c749f9b42acf4d4eec53effade1c43d659b16e",
    "e90325e2f8141b3208200ac9f92749a57529b951e0c0efaece6cc680d9a26df0",
    "db0dec8eba875b3947aabaf0a1f025775f741a0f470b93212a173a8981d2cfdc",
    "4fddd94f3b85ebeb0f78796dcd37345d8e07634cefb69e158b5d60db0bae6e9b",
    "09fdc5a7e685e5adab1e20ccc35415077e667a22d9c8030d8a28b3b9f6b13e37",
    "1c82d32a1fc7038f6416f39111120a070feb64711f45495d764d632a730adf02",
    "c3fd4ffac4f5b3662193a6ebb130f451561ccf115176c8a9ce65d69bb6316382",
    "2f7b27377bca4ccb65eda760d529fc8b8f26916d95c34f27ab229a7dba7e6a19",
    "d9f3bce3cfb7d40624dd366681fc48176172d7536e4efa24a5b5cc23d7622c4e",
    "2cfb5bf389ac72f7bbb05311bc52aa64771fcb02e875c60db4ff9df4e0da2cbe",
    "2fcbc63caa761324c9ee68de2e639f1f46c6894ed8ea836f9729d286cc417100",
    "4350442837e0cd69b3c3f240b8f9866c64ffb8da2f63df4bad44429e6adc4ebe",
    "c1261a8471e364242bf8a0f62fbd298634b3d9fce65e865a572db74341881023",
]


def test_standard_batch_digests_are_pinned():
    batch = acceptance._standard_batch()
    for orbit in batch:
        # a failure here is the formatter's; one only below is the orbits'
        assert occupation._csv_bytes(orbit) == _g17_oracle(orbit)
    assert [orbit.content_digest() for orbit in batch] == _STANDARD_BATCH_DIGESTS


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y\n0,0.1,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "header" in str(info.value)


def test_csv_errors_cite_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0,0.1,0\n1,oops,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n0,0.1,0\n1,0.2\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n0,0.1,0\n1,2.0,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n1,0.1,0\n0,0.2,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row" in str(info.value)


@pytest.mark.parametrize(
    "times, points, error, cited",
    [
        ([0.0, 1.0, np.inf, np.nan], [0.1, 0.2, 0.3, 0.4], ValueError, "sample 2 is not finite"),
        ([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.9995, 2.0], DiskDomainError, "sample 2 lies outside"),
        ([0.0, 1.0, 1.0, 0.5], [0.1, 0.2, 0.3, 0.4], ValueError, "sample 2 breaks strict"),
        # 1e308 - (-1e308) overflows, so the duration and weights would be infinite
        (
            [-1e308, 0.0, 1e308, 1.5e308],
            [0.1, 0.2, 0.3, 0.4],
            ValueError,
            "sample 2 has a time span from the first sample that is not finite",
        ),
    ],
)
def test_trajectory_cites_first_offending_sample(times, points, error, cited):
    # each rule is broken twice; the earlier sample is cited
    with pytest.raises(error) as info:
        Trajectory(np.array(times), np.array(points, dtype=complex))
    assert str(info.value).startswith(cited)


# ---------------------------------------------------------------------------
# CSV fuzzing against the row-by-row reader
# ---------------------------------------------------------------------------


def _row_by_row_reader(path, margin=1e-3):
    """The earlier reader: per-row disk and ordering checks, then finiteness."""
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    if not rows or [cell.strip() for cell in rows[0]] != ["t", "re", "im"]:
        raise TrajectoryIngestionError(
            f"{path}: first row must be the header 't,re,im'"
        )
    times, points = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise TrajectoryIngestionError(f"{path}: row {i} must have 3 fields")
        try:
            t, re, im = (float(cell) for cell in row)
        except ValueError as exc:
            raise TrajectoryIngestionError(f"{path}: row {i}: {exc}") from exc
        z = complex(re, im)
        if abs(z) > 1.0 - margin:
            raise TrajectoryIngestionError(
                f"{path}: row {i} lies outside the disk (|z| = {abs(z):.6g})"
            )
        if times and t <= times[-1]:
            raise TrajectoryIngestionError(
                f"{path}: row {i} breaks strict time ordering"
            )
        times.append(t)
        points.append(z)
    if not times:
        raise TrajectoryIngestionError(f"{path}: no data rows")
    times, points = np.array(times), np.array(points)
    finite = np.isfinite(times) & np.isfinite(points)
    if not finite.all():
        row = int(np.argmin(finite)) + 2
        raise TrajectoryIngestionError(f"{path}: row {row} is not finite")
    return Trajectory(times=times, points=points, digest=digest)


def _first_bad_row(lines):
    """Row number (header = 1) of the first line that breaks a rule, or None."""
    previous = None
    for i, line in enumerate(lines, start=2):
        try:
            cells = line.decode("utf-8").split(",")
            t, re, im = (float(cell) for cell in cells) if len(cells) == 3 else ()
        except ValueError:
            return i
        z = complex(re, im)
        if not (np.isfinite(t) and np.isfinite(z)) or abs(z) > 1.0 - 1e-3:
            return i
        if previous is not None and t <= previous:
            return i
        previous = t
    return None


_DEFECTS = {
    "fields": lambda k, x: f"{k},{x}".encode(),
    "extra": lambda k, x: f"{k},{x},0,0".encode(),
    "cell": lambda k, x: f"{k},oops,{x}".encode(),
    "nan": lambda k, x: f"{k},nan,{x}".encode(),
    "nan_t": lambda k, x: f"nan,{x},0".encode(),
    "inf": lambda k, x: f"{k},{x},-inf".encode(),
    "inf_t": lambda k, x: f"inf,{x},0".encode(),
    "disk": lambda k, x: f"{k},{1.0 + abs(x)},{x}".encode(),
    "edge": lambda k, x: f"{k},0.9995,0".encode(),
    "order": lambda k, x: f"{k - 1 - abs(x)},{x},0".encode(),
    "utf8": lambda k, x: f"{k},{x}".encode() + b"\xff,0",
}

_LINES = st.lists(
    st.tuples(
        st.sampled_from(["ok"] * 4 + sorted(_DEFECTS)),
        st.floats(-0.7, 0.7, allow_nan=False),
    ),
    max_size=8,
)


def _csv_lines(spec):
    # data row k carries time k, so rows without a defect are increasing
    return [
        f"{k},{x},{x / 2}".encode() if kind == "ok" else _DEFECTS[kind](k, x)
        for k, (kind, x) in enumerate(spec)
    ]


@settings(deadline=None, max_examples=300)
@given(spec=_LINES)
def test_csv_fuzz_cites_earliest_bad_row(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "traj.csv"
    lines = _csv_lines(spec)
    path.write_bytes(b"\n".join([b"t,re,im"] + lines) + b"\n")
    bad = _first_bad_row(lines)
    if not lines:
        with pytest.raises(TrajectoryIngestionError, match="no data rows"):
            read_trajectory_csv(path)
    elif bad is None:
        traj = read_trajectory_csv(path)
        assert traj.times.size == len(lines)
        assert traj.content_digest() == hashlib.sha256(path.read_bytes()).hexdigest()
    else:
        with pytest.raises(TrajectoryIngestionError) as info:
            read_trajectory_csv(path)
        cited = f"{path}: row {bad}"
        assert str(info.value).startswith(cited)
        assert str(info.value)[len(cited)] in " :"


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(sorted(_DEFECTS)),
    x=st.floats(-0.7, 0.7, allow_nan=False),
    before=st.integers(0, 4),
    after=st.integers(0, 4),
)
def test_csv_single_defect_matches_row_by_row_reader(
    tmp_path_factory, kind, x, before, after
):
    path = tmp_path_factory.mktemp("fuzz") / "traj.csv"
    spec = [("ok", 0.1)] * before + [(kind, x)] + [("ok", -0.2)] * after
    lines = _csv_lines(spec)
    path.write_bytes(b"\n".join([b"t,re,im"] + lines) + b"\n")
    row = before + 2
    if kind == "utf8":
        # the earlier reader failed on decoding before it saw any row
        with pytest.raises(TrajectoryIngestionError, match=f"row {row}: could not"):
            read_trajectory_csv(path)
        return
    try:
        expected = _row_by_row_reader(path)
    except TrajectoryIngestionError as exc:
        expected = str(exc)
    if kind in ("inf", "inf_t"):
        expected = f"{path}: row {row} is not finite"
    try:
        got = read_trajectory_csv(path)
    except TrajectoryIngestionError as exc:
        assert str(exc) == expected
    else:
        assert np.array_equal(got.times, expected.times)
        assert np.array_equal(got.points, expected.points)
        assert got.content_digest() == expected.content_digest()



@settings(deadline=None, max_examples=100)
@given(spec=_LINES)
def test_occupation_command_over_fuzzed_csv_exits_cleanly(tmp_path_factory, spec):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "traj.csv"
    path.write_bytes(b"\n".join([b"t,re,im"] + _csv_lines(spec)) + b"\n")
    config = folder / "occupation.json"
    config.write_text(json.dumps({"N": 8, "f": [0.0, 1.0], "trajectories": [str(path)]}))
    argv = ["occupation", "--config", str(config), "--out", str(folder)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = console_main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# bulk reader against the csv.reader-based reader it replaced
# ---------------------------------------------------------------------------


def _csv_module_reader(path):
    """The earlier reader: one ``csv.reader`` list and one float per cell."""
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    rows = list(csv.reader(raw.decode("utf-8", errors="replace").splitlines()))
    if not rows or [cell.strip() for cell in rows[0]] != ["t", "re", "im"]:
        raise TrajectoryIngestionError(
            f"{path}: first row must be the header 't,re,im'"
        )
    if len(rows) == 1:
        raise TrajectoryIngestionError(f"{path}: no data rows")
    times, points, failure = [], [], None
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            failure = f"row {i} must have 3 fields"
            break
        try:
            t, re, im = (float(cell) for cell in row)
        except ValueError as exc:
            failure = f"row {i}: {exc}"
            break
        times.append(t)
        points.append(complex(re, im))
    invalid = occupation._first_invalid_sample(np.array(times), np.array(points))
    if invalid is not None:
        failure = f"row {invalid[0] + 2} {invalid[1]}"
    if failure is not None:
        raise TrajectoryIngestionError(f"{path}: {failure}")
    return Trajectory(times=times, points=points, digest=digest)


def _read_outcome(reader, path):
    try:
        traj = reader(path)
    except TrajectoryIngestionError as exc:
        return str(exc)
    return traj.times.tobytes(), traj.points.tobytes(), traj.content_digest()


# No cell holds a double quote, where csv.reader's quoting differs on purpose,
# nor NUL, which csv.reader refuses before Python 3.11.  U+2028, \x0b and
# \x85 are line breaks to str.splitlines.  NumPy's C reader strips the
# non-ASCII padding as float() does, refuses the underscores and the
# Arabic-Indic digits that float() accepts, and strips the U+001F that
# float() refuses.
_VALID_CELLS = [
    b" 0.25 ", b"\t-0.5", b"-0", b"+0.0", b"1e-3", b"0_0", b"0.1_5",
    "\u00a00.25\u00a0".encode(), "\u3000-0.5\u3000".encode(), "\u0660.\u0661".encode(),
]
_BAD_CELLS = [
    b"1_0", b"1__0", b"+inf", b"-inf", b"nan", b"-nan", b"0.9995", b"0x1p-3",
    b"", b"oops", b"\xff", b"0.\xc3", b"\xe2\x80\xa80.1", b"0.1\x0b",
    b"\xc2\x850", b"\xef\xbb\xbf0", b"\x1f0.1", b"0.1\x1f", "\u0661".encode(),
]
_GOOD_CELL = st.one_of(
    st.floats(-0.7, 0.7).map(lambda x: repr(x).encode()),
    st.sampled_from(_VALID_CELLS),
)
_ANY_CELL = st.one_of(_GOOD_CELL, st.sampled_from(_BAD_CELLS))
# (time cell, other cells); a None time becomes the row index, so a good row
# is accepted; one row in eight may break anything and one in eight is blank
_GOOD_ROW = st.tuples(st.none(), st.lists(_GOOD_CELL, min_size=2, max_size=2))
_ANY_ROW = st.tuples(
    st.one_of(st.none(), _ANY_CELL),
    st.one_of(st.lists(_ANY_CELL, min_size=2, max_size=2), st.lists(_ANY_CELL, max_size=4)),
)
# a blank or whitespace-only row: refused as a row of one field, though the C
# reader skips an empty one
_BLANK_ROW = st.sampled_from([b"", b" ", b"\t", b"  \t "]).map(lambda cell: (cell, []))
_ROW = st.tuples(st.integers(0, 7), _GOOD_ROW, _ANY_ROW, _BLANK_ROW).map(
    lambda pick: pick[2] if pick[0] == 0 else pick[3] if pick[0] == 1 else pick[1]
)
_HEADER = st.one_of(
    st.just(b"t,re,im"),
    st.just(b"t,re,im"),
    st.just(b" t , re ,im\t"),
    st.sampled_from(
        [b"t,re", b"t,re,im,", b"time,x,y", b"T,RE,IM", b"", b"t,r\xffe,im",
         b"\xef\xbb\xbft,re,im", b"t,re,im\x0b"]
    ),
)
# the last two leave a blank line
_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"] * 4 + [b"\n\n", b"\r\r\n"])


@settings(deadline=None, max_examples=400)
@given(
    header=_HEADER,
    rows=st.lists(st.tuples(_ROW, _ENDINGS), max_size=8),
    tail=st.sampled_from([b"", b"\n", b"\r\n", b"\r"] * 2 + [b"\n\n", b"\r\n\r\n"]),
)
# float() refuses U+001F padding, which the C reader strips
@example(header=b"t,re,im", rows=[((None, [b"\x1f0.1", b"0"]), b"\n")], tail=b"\n")
@example(header=b"t,re,im", rows=[((b"0", [b"0.1\x1f", b"0"]), b"\n")], tail=b"")
# a body of blank rows, which the C reader skips with a warning
@example(header=b"t,re,im", rows=[((b"", []), b"\n"), ((b"", []), b"\n")], tail=b"\n")
def test_bulk_reader_matches_csv_module_reader(tmp_path_factory, header, rows, tail):
    parts = [header]
    for k, (row, ending) in enumerate(rows):
        time, cells = row
        parts.append(ending)
        parts.append(b",".join([str(k).encode() if time is None else time] + cells))
    path = tmp_path_factory.mktemp("parity") / "traj.csv"
    path.write_bytes(b"".join(parts) + tail)
    assert _read_outcome(read_trajectory_csv, path) == _read_outcome(
        _csv_module_reader, path
    )


def test_cell_longer_than_csv_field_limit_parses(tmp_path):
    # csv.reader raised an uncaught _csv.Error on cells over 131072 characters
    cell = "0." + "0" * 200_000 + "1"
    path = tmp_path / "traj.csv"
    path.write_text(f"t,re,im\n0,{cell},0\n1,0.1,0\n")
    traj = read_trajectory_csv(path)
    assert traj.points.tobytes() == np.array([float(cell), 0.1], dtype=complex).tobytes()


def test_accepted_file_is_validated_once(tmp_path, monkeypatch):
    # Trajectory applies the validity rule; the reader applies it again only
    # to cite the row of a file that fails it
    path = tmp_path / "traj.csv"
    write_trajectory_csv(integrate_ode(monomial(1), 0.2, 1.0, 0.1), path)
    calls = []
    rule = occupation._first_invalid_sample

    def counted(times, points):
        calls.append(times.size)
        return rule(times, points)

    monkeypatch.setattr(occupation, "_first_invalid_sample", counted)
    assert read_trajectory_csv(path).times.size == 11
    assert calls == [11]
    path.write_text("t,re,im\n0,0.1,0\n1,0.2,0\n1,0.3,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == f"{path}: row 4 breaks strict time ordering"
    assert calls == [11, 3, 3]


def _write_ode_csv(path):
    write_trajectory_csv(integrate_ode(monomial(1), 0.2, 1.0, 1e-3), path)
    return path


@pytest.mark.parametrize("action", ["error", "always"])
def test_reader_lets_no_warning_escape(tmp_path, action):
    # an all-blank body makes NumPy's C reader warn "input contained no data"
    accepted = _write_ode_csv(tmp_path / "accepted.csv")
    refused = tmp_path / "refused.csv"
    refused.write_text("t,re,im\n0,0.1,0\n1,oops,0\n")
    blank = tmp_path / "blank.csv"
    blank.write_text("t,re,im\n\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert read_trajectory_csv(accepted).times.size == 1001
        with pytest.raises(TrajectoryIngestionError) as info:
            read_trajectory_csv(refused)
        assert str(info.value) == (
            f"{refused}: row 3: could not convert string to float: 'oops'"
        )
        with pytest.raises(TrajectoryIngestionError) as info:
            read_trajectory_csv(blank)
        assert str(info.value) == f"{blank}: row 2 must have 3 fields"
    assert caught == []


def test_plain_ascii_file_skips_the_float_rows_path(tmp_path, monkeypatch):
    # the fallback reads every row in one loop, which stops at the first bad one
    calls = []
    float_rows = occupation._float_rows

    def counted(rows):
        calls.append(len(rows))
        return float_rows(rows)

    monkeypatch.setattr(occupation, "_float_rows", counted)
    path = _write_ode_csv(tmp_path / "traj.csv")
    expected = path.read_bytes()
    traj = read_trajectory_csv(path)
    assert calls == []
    assert occupation._csv_bytes(traj) == expected
    # float() reads 0.001_0 as 0.001; the C reader refuses the underscore
    lines = expected.decode().splitlines()
    lines[2] = lines[2].replace("1", "1_0", 1)
    path.write_text("\n".join(lines) + "\n")
    underscored = read_trajectory_csv(path)
    assert calls == [1001]
    assert np.array_equal(underscored.times, traj.times)
    calls.clear()
    lines[2] = "1,oops,0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == f"{path}: row 3: could not convert string to float: 'oops'"
    assert calls == [1001]


def test_quoted_cells_exit_two_naming_the_row(tmp_path):
    def occupation_exit(text):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        config = tmp_path / "occupation.json"
        config.write_text(
            json.dumps({"N": 8, "f": [0.0, 1.0], "trajectories": [str(path)]})
        )
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = console_main(["occupation", "--config", str(config), "--out", str(tmp_path)])
        return code, path, err.getvalue()

    # the writer never quotes, so a quoted cell is a cell float() refuses
    code, path, err = occupation_exit('t,re,im\n0,0.1,0\n1,"0.1",0\n2,0.2,0\n')
    assert code == 2 and "Traceback" not in err
    assert err == f"error: {path}: row 3: could not convert string to float: '\"0.1\"'\n"

    code, path, err = occupation_exit('"t","re","im"\n0,0.1,0\n1,0.1,0\n2,0.2,0\n')
    assert code == 2 and "Traceback" not in err
    assert err == f"error: {path}: first row must be the header 't,re,im'\n"


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def test_integrate_linear_field_endpoint():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    assert complex(traj.points[-1]) == pytest.approx(0.2 * np.e, abs=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    # even interval count so Simpson applies directly
    assert (traj.times.size - 1) % 2 == 0
    assert traj.uniform


def test_integrate_convergence_order():
    # RK4: halving dt cuts the endpoint error by about 2^4
    exact = 0.2 * np.exp(1.0)
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_ode(monomial(1), 0.2, 1.0, dt)
        errs.append(abs(complex(traj.points[-1]) - exact))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_integrate_disk_exit():
    with pytest.raises(DiskExitError) as info:
        integrate_ode(monomial(1), 0.9, 2.0, 1e-3)
    assert info.value.exit_time is not None
    assert 0.0 < info.value.exit_time < 2.0


def test_integrate_nonfinite_state_names_symbol():
    # the state overflows to nan, for which |z| > limit is false
    with pytest.raises(SymbolOverflowError, match="symbol f .* t = 0.01"):
        integrate_ode(TaylorPolynomial([1e308, 1e308]), 0.2, 0.1, 0.01)


def test_integrate_overflowing_abs_names_symbol():
    # the first step lands on a finite state whose |z| overflows a float
    with pytest.raises(SymbolOverflowError, match="symbol f .* t = 4.4;"):
        integrate_ode(TaylorPolynomial([complex(2.9e307, 2.9e307)]), 0.0, 8.8, 4.4)


@pytest.mark.parametrize("t_final, dt", [(1e300, 1e-300), (1.0, 1e-7)])
def test_integrate_refuses_more_steps_than_the_budget(t_final, dt):
    # raised before round() overflows or the samples are allocated
    with pytest.raises(StepBudgetError, match="step budget"):
        integrate_ode(monomial(1), 0.2, t_final, dt)


def _rk4_from_zero(f, z0, t_final, dt):
    """The RK4 loop whose bytes ``integrate_ode`` keeps: a Horner loop from 0j,
    inline step constants and a preallocated sample array.  The oracle for
    inputs that pass ``integrate_ode``'s checks before the loop."""
    limit = 1.0 - occupation.DISK_MARGIN
    steps = max(2, round(t_final / dt))
    if steps % 2:
        steps += 1
    h = t_final / steps
    coeffs = [complex(c) for c in f.coeffs[::-1]]

    def field(z):
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc

    times = np.linspace(0.0, t_final, steps + 1)
    points = np.empty(steps + 1, dtype=np.complex128)
    points[0] = z = complex(z0)
    for k in range(steps):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(z) <= limit:
            if not np.isfinite(z):
                raise SymbolOverflowError(
                    f"symbol f overflows the RK4 state at t = {times[k + 1]:.6g}; "
                    "the state must stay finite"
                )
            raise DiskExitError(
                f"trajectory left |z| <= {limit:.6g} at t = {times[k + 1]:.6g}",
                exit_time=float(times[k + 1]),
            )
        points[k + 1] = z
    return times, points


def _rk4_outcome(integrate, f, z0, t_final, dt):
    try:
        out = integrate(f, z0, t_final, dt)
    except (DiskExitError, SymbolOverflowError, OverflowError) as exc:
        # abs() of a finite state with parts near 1e308 raises OverflowError
        # in the oracle, which integrate_ode turns into SymbolOverflowError
        if isinstance(exc, OverflowError) or isinstance(exc.__cause__, OverflowError):
            return SymbolOverflowError, "abs() overflow"
        return type(exc), str(exc), getattr(exc, "exit_time", None)
    times, points = (out.times, out.points) if isinstance(out, Trajectory) else out
    return times.tobytes(), points.tobytes()


# zeros of both signs, a few magnitudes, and parts that overflow the state
_RK4_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
# starting points on and off the axes, inside the disk
_Z0_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.65, 0.65))


@settings(deadline=None, max_examples=400)
@given(
    coeffs=st.lists(st.builds(complex, _RK4_PART, _RK4_PART), min_size=1, max_size=6),
    z0=st.builds(complex, _Z0_PART, _Z0_PART),
    t_final=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    intervals=st.integers(1, 60),
)
# a top coefficient with a -0.0 part: 0j * z + c_1 flips the sign of that zero
@example([complex(-0.5, -0.0), complex(0.5, -0.0)], complex(0.2, -0.0), 0.3, 6)
@example([complex(-0.0, 0.0), complex(0.5, -0.0)], complex(-0.0, 0.0), 0.3, 6)
@example([complex(-0.0, 0.5), complex(-0.0, -0.0)], complex(-0.0, -0.2), 0.3, 6)
def test_integrate_keeps_the_bytes_of_the_rk4_loop_from_zero(coeffs, z0, t_final, intervals):
    # same samples, or the same error at the same time, for degrees 0-5
    f = TaylorPolynomial(coeffs)
    dt = t_final / intervals
    assert _rk4_outcome(integrate_ode, f, z0, t_final, dt) == _rk4_outcome(
        _rk4_from_zero, f, z0, t_final, dt
    )


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate_ode(monomial(1), 0.2, -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_ode(monomial(1), 0.2, 1.0, 0.0)
    with pytest.raises(DiskDomainError):
        integrate_ode(monomial(1), 0.9999, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# occupation kernels
# ---------------------------------------------------------------------------


def test_occupation_kernel_constant_trajectory_frozen():
    # theta(t) = c: moments are conj(c)^n T, i.e. T times the point kernel
    c = 0.4 + 0.2j
    times = np.linspace(0.0, 2.0, 41)
    traj = Trajectory(times, np.full(41, c))
    gamma = occupation_kernel(traj, 24)
    expected = 2.0 * szego_kernel(c, 24).coeffs
    assert np.allclose(gamma.series.coeffs, expected, atol=1e-12)
    assert gamma.quadrature == "simpson"


def test_occupation_kernel_pairing_is_time_integral():
    # <g, Gamma> = integral of g(gamma(t)) dt; for g=z along 0.2 e^t the
    # integral is 0.2 (e - 1)
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    gamma = occupation_kernel(traj, 32)
    value = inner_product(monomial(1, order=32), gamma.series)
    assert value == pytest.approx(0.2 * (np.e - 1.0), abs=1e-10)


def test_running_product_moments_match_power_formula():
    # N = 1024 and T = 10001 samples: the running product must agree with
    # the T x (N+1) power matrix it replaces
    f = TaylorPolynomial([0.0, -0.5 + 1.0j])
    traj = integrate_ode(f, 0.6 + 0.1j, 10.0, 1e-3)
    assert traj.times.size == 10001
    order = 1024
    weights = occupation._quadrature_weights(traj)
    powers = np.conj(traj.points)[:, None] ** np.arange(order + 1)[None, :]
    expected = weights @ powers
    got = occupation_kernel(traj, order).series.coeffs
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_occupation_kernel_trapezoid_tag():
    times = np.array([0.0, 0.3, 1.0, 1.1])
    traj = Trajectory(times, np.full(4, 0.2))
    gamma = occupation_kernel(traj, 8)
    assert gamma.quadrature == "trapezoid"


@pytest.mark.parametrize("order", [-1, -2])
def test_occupation_kernel_rejects_negative_order(order):
    traj = Trajectory(np.linspace(0.0, 2.0, 5), np.full(5, 0.3))
    with pytest.raises(InvalidIndexError, match="order"):
        occupation_kernel(traj, order)
    # order 0 keeps the one moment, the duration
    assert occupation_kernel(traj, 0).series.coeffs == pytest.approx([2.0])


def test_occupation_kernel_needs_three_samples():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(InsufficientDataError):
        occupation_kernel(traj, 8)


def test_field_defect_detects_wrong_field():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    assert field_defect(monomial(1), traj) < 1e-5
    assert field_defect(TaylorPolynomial([0, 2.0]), traj) > 1e-2


# ---------------------------------------------------------------------------
# adjoint identities
# ---------------------------------------------------------------------------


def test_endpoint_kernel_difference():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    diff = endpoint_kernel_difference(traj, 16)
    expected = (
        szego_kernel(complex(traj.points[-1]), 16).coeffs
        - szego_kernel(complex(traj.points[0]), 16).coeffs
    )
    assert np.allclose(diff.coeffs, expected)


def test_liouville_occupation_residual_small():
    # A_f* Gamma = K_end - K_start, certified through the matrix route
    for coeffs, z0 in [([0, 1.0], 0.2), ([0.05, 0.5, 0.1], 0.1)]:
        f = TaylorPolynomial(coeffs)
        traj = integrate_ode(f, z0, 1.0, 1e-3)
        assert liouville_occupation_residual(f, traj, 64) < 1e-8


def test_weighted_occupation_residual_small():
    f = monomial(1)
    phi = monomial(2)
    traj = integrate_ode(f, 0.2, 1.0, 1e-3)
    assert weighted_occupation_residual(f, phi, traj, 64) < 1e-8


def test_weighted_occupation_residual_out_of_disk():
    f = monomial(1)
    traj = integrate_ode(f, 0.2, 1.0, 1e-2)
    phi = TaylorPolynomial([0, 2.0])  # pushes 0.54 out to 1.09
    with pytest.raises(CompositionOutOfDiskError):
        weighted_occupation_residual(f, phi, traj, 32)
