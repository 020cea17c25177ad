import numpy as np
import pytest

from plembed import MeshError, ParseError, PolyMesh, load_off, parse_off

from conftest import CUBE_OFF, TETRA_OFF


class TestParseOff:
    def test_cube_fan_triangulation(self, cube_mesh):
        assert cube_mesh.vertices.shape == (8, 3)
        # six quads split into two triangles each
        assert cube_mesh.faces.shape == (12, 3)

    def test_tetra(self, tetra_mesh):
        assert tetra_mesh.vertices.shape == (4, 3)
        assert tetra_mesh.faces.shape == (4, 3)

    def test_comments_and_blank_lines(self):
        text = "# a comment\nOFF\n\n3 1 3  # counts\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        m = parse_off(text)
        assert m.vertices.shape == (3, 3)
        assert m.faces.shape == (1, 3)

    def test_extra_vertex_fields_ignored(self):
        # some writers append colors after the coordinates
        text = "OFF\n3 1 3\n0 0 0 255 0 0\n1 0 0 255 0 0\n0 1 0 255 0 0\n3 0 1 2\n"
        m = parse_off(text)
        assert np.array_equal(m.vertices[1], [1.0, 0.0, 0.0])

    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_off("3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_off("# nothing\n\n")

    def test_bad_counts_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_off("OFF\n3 1\n")

    def test_truncated_body(self):
        with pytest.raises(ParseError):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n")

    def test_bad_vertex_coordinate(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_off("OFF\n3 1 3\n0 0 x\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_bad_face_line(self):
        with pytest.raises(ParseError, match="line 6"):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n")

    def test_face_index_out_of_range(self):
        with pytest.raises(MeshError):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")

    def test_load_off(self, cube_off_path):
        m = load_off(cube_off_path)
        assert m.faces.shape == (12, 3)


class TestPolyMesh:
    def test_repeated_vertex_in_face(self):
        v = np.eye(3)
        with pytest.raises(MeshError, match="repeats"):
            PolyMesh(v, np.array([[0, 1, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertex(self, bad):
        v = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        v[2, 1] = bad
        with pytest.raises(MeshError, match="vertex coordinates must be finite"):
            PolyMesh(v, np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))

    def test_nan_coordinate_in_off(self):
        with pytest.raises(MeshError, match="finite"):
            parse_off(TETRA_OFF.replace("-1 1 -1", "-1 nan -1"))

    def test_degenerate_face(self):
        v = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(MeshError, match="degenerate"):
            PolyMesh(v, np.array([[0, 1, 2]]))

    def test_arrays_frozen(self, cube_mesh):
        with pytest.raises(ValueError):
            cube_mesh.vertices[0, 0] = 5.0

    def test_closed_manifold_cube(self, cube_mesh):
        cube_mesh.require_closed_manifold()
        d, _ = cube_mesh.directed_edges
        assert len(d) == 36  # each edge once from either side
        assert len(np.unique(np.sort(d, axis=1), axis=0)) == 18  # 12 cube edges + 6 face diagonals

    def test_open_mesh_rejected(self):
        m = parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshError, match="closed manifold"):
            m.require_closed_manifold()

    def test_inconsistent_orientation_rejected(self, tetra_mesh):
        flipped = tetra_mesh.faces.copy()
        flipped[0] = flipped[0][::-1]
        m = PolyMesh(tetra_mesh.vertices, flipped)
        with pytest.raises(MeshError, match="same direction"):
            m.require_closed_manifold()

    def test_signed_volume_cube(self, cube_mesh):
        assert cube_mesh.signed_volume() == pytest.approx(8.0, rel=1e-14)
        # already outward, so normalization is the identity
        assert cube_mesh.oriented_outward() is cube_mesh

    def test_oriented_outward_flips_inward_mesh(self, cube_mesh):
        inward = PolyMesh(cube_mesh.vertices, cube_mesh.faces[:, ::-1])
        assert inward.signed_volume() == pytest.approx(-8.0, rel=1e-14)
        m = inward.oriented_outward()
        assert m.signed_volume() == pytest.approx(8.0, rel=1e-14)

    def test_tetra_volume(self, tetra_mesh):
        m = tetra_mesh.oriented_outward()
        # vertices (1,1,1),(1,-1,-1),(-1,1,-1),(-1,-1,1): volume 8/3
        assert m.signed_volume() == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_face_normal_unit(self, tetra_mesh):
        for k in range(4):
            assert np.linalg.norm(tetra_mesh.face_normals[k]) == pytest.approx(1.0, rel=1e-14)

    def test_vertex_faces_cube(self, cube_mesh):
        # each cube corner meets 3 quads; diagonals give 3 + 1..2 triangles
        for v in range(8):
            ks = cube_mesh.vertex_faces(v)
            assert len(ks) in (4, 5)
            assert all(v in cube_mesh.faces[k] for k in ks)

    def test_translation_leaves_volume(self, cube_mesh):
        m = PolyMesh(cube_mesh.vertices + np.array([10.0, -3.0, 2.0]), cube_mesh.faces)
        assert m.signed_volume() == pytest.approx(cube_mesh.signed_volume(), rel=1e-12)


def _tetra_on(offset):
    """Outward tetrahedron faces on vertices offset .. offset + 3 (TETRA_OFF's layout)."""
    return [[offset + a, offset + b, offset + c] for a, b, c in ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))]


_TETRA_V = [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
_TRIANGLE_V = [[5.0, 0, 0], [6, 0, 0], [5, 1, 0]]


class TestErrorOrder:
    """With several defects, the first one in face order is reported."""

    def test_first_bad_face_is_reported(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]])
        with pytest.raises(MeshError, match=r"^face 1 is degenerate \(zero area\)$"):
            PolyMesh(v, np.array([[0, 1, 2], [0, 1, 3], [0, 0, 1], [1, 3, 0]]))
        with pytest.raises(MeshError, match=r"^face 2 repeats a vertex$"):
            PolyMesh(v, np.array([[0, 1, 2], [2, 1, 0], [2, 2, 1], [0, 1, 3]]))

    def test_repeat_reported_before_degenerate(self):
        # a face with a repeated vertex also has zero area
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(MeshError, match=r"^face 1 repeats a vertex$"):
            PolyMesh(v, np.array([[0, 1, 2], [1, 0, 1], [0, 1, 2]]))

    def test_first_open_edge_in_face_order(self):
        # the lone triangle comes first; the sorted-first bad edge (0, 1) is a
        # same-direction edge of the tetrahedron behind it
        faces = [[4, 5, 6], [1, 2, 0], *_tetra_on(0)[1:]]
        m = PolyMesh(np.array(_TETRA_V + _TRIANGLE_V), np.array(faces))
        with pytest.raises(MeshError, match=r"^edge \(4, 5\) borders 1 faces; need a closed manifold$"):
            m.require_closed_manifold()

    def test_first_same_direction_edge_in_face_order(self):
        # a flipped tetrahedron face comes first; the lone triangle on 0, 1, 2
        # holds the sorted-first bad edges
        tetra = _tetra_on(3)
        faces = [tetra[0][::-1], *tetra[1:], [0, 1, 2]]
        m = PolyMesh(np.array(_TRIANGLE_V + _TETRA_V), np.array(faces))
        with pytest.raises(MeshError, match=r"^edge \(4, 5\) traversed twice in the same direction; inconsistent"):
            m.require_closed_manifold()

    def test_three_faces_on_an_edge(self):
        v = np.array(_TETRA_V + [[0.0, 0.0, -3.0]])
        faces = [[1, 3, 4], *_tetra_on(0)]
        with pytest.raises(MeshError, match=r"^edge \(1, 3\) borders 3 faces"):
            PolyMesh(v, np.array(faces)).require_closed_manifold()


def reference_parse_off(text: str) -> PolyMesh:
    """`parse_off` as first written: one Python step per line, per token and per triangle."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((ln, line))
    if not rows:
        raise ParseError("empty OFF document")
    ln, header = rows[0]
    if header != "OFF":
        raise ParseError("expected 'OFF' header", line=ln)
    if len(rows) < 2:
        raise ParseError("missing counts line", line=ln)
    ln, counts = rows[1]
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError("counts line must be 'nv nf ne'", line=ln)
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("bad counts", line=ln) from None
    body = rows[2:]
    if len(body) < nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} face lines")
    vertices = []
    for ln, line in body[:nv]:
        parts = line.split()
        if len(parts) < 3:
            raise ParseError("vertex line needs three coordinates", line=ln)
        try:
            vertices.append([float(x) for x in parts[:3]])
        except ValueError:
            raise ParseError("bad vertex coordinate", line=ln) from None
    faces = []
    for ln, line in body[nv : nv + nf]:
        parts = line.split()
        try:
            k = int(parts[0])
            idx = [int(x) for x in parts[1 : 1 + k]]
        except (ValueError, IndexError):
            raise ParseError("bad face line", line=ln) from None
        if len(idx) != k or k < 3:
            raise ParseError(f"face needs {k} indices", line=ln)
        for t in range(1, k - 1):
            faces.append([idx[0], idx[t], idx[t + 1]])
    return PolyMesh(np.array(vertices, dtype=float), np.array(faces, dtype=int))


# coordinate spellings that Python's float reads: signs, exponents, underscores, non-ASCII digits
_COORDS = ["0", "-0", "+1.5", "1e-3", "2.5E2", "1_0.25", "\u0663.5", "0.1", "-7", "3.0000000000000004"]
_GAPS = [" ", "  ", "\t", " \t "]
# one-token mutations: junk, empty, wrong type, wrong count, huge, comment, non-finite
_MUTATIONS = ["x", "", "1.5", "-1", "0", "2", "3", "7", "0_1", "99999999999999999999", "#", "nan", "inf", "1e400", "OFF"]


def _off_text(rng) -> str:
    """A seeded OFF text: comments, blank lines, mixed gaps, colour fields, triangles, quads and pentagons."""
    nv = int(rng.integers(5, 12))
    coords = [[str(c) for c in rng.normal(size=3)] for _ in range(nv)]
    for row in coords:
        if rng.random() < 0.3:
            row[int(rng.integers(3))] = str(rng.choice(_COORDS))
    faces = []
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.choice([3, 3, 4, 5]))
        faces.append([str(k), *map(str, rng.choice(nv, size=k, replace=False))])
    gap = lambda: str(rng.choice(_GAPS))  # noqa: E731
    lines = ["OFF", f"{nv}{gap()}{len(faces)}{gap()}0"]
    for row in coords + faces:
        extra = rng.choice(["", "255 0 0", "0.5 0.25 1 1"], p=[0.6, 0.2, 0.2])
        lines.append(gap().join([*row, *str(extra).split()]))
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append("" if rng.random() < 0.5 else "# a comment line")
        if rng.random() < 0.1:
            line += "  # trailing comment"
        out.append(gap() + line if rng.random() < 0.1 else line)
    return "\n".join(out) + "\n"


def _mutate(text: str, rng) -> str:
    """Replace, delete or double one token of one line."""
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if line.split()]
    i = at[int(rng.integers(len(at)))]
    parts = lines[i].split()
    j = int(rng.integers(len(parts)))
    op = rng.integers(3)
    if op == 0:
        parts[j] = str(rng.choice(_MUTATIONS))
    elif op == 1:
        del parts[j]
    else:
        parts.insert(j, parts[j])
    lines[i] = " ".join(parts)
    return "\n".join(lines)


def _counts(text: str):
    """(line number, nv, nf) of a counts line of three fields that starts with two ints, else None."""
    rows = [(ln, raw.split("#", 1)[0].split()) for ln, raw in enumerate(text.splitlines(), start=1)]
    rows = [(ln, parts) for ln, parts in rows if parts]
    if len(rows) < 2 or len(rows[1][1]) != 3:
        return None
    ln, parts = rows[1]
    try:
        return ln, int(parts[0]), int(parts[1])
    except ValueError:
        return None


def _outcome(parse, text):
    try:
        m = parse(text)
    except (ValueError, OverflowError) as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    return m.vertices.shape, m.vertices.tobytes(), m.faces.shape, m.faces.tolist()


class TestParseOffOracle:
    """`parse_off` against `reference_parse_off`: bit-equal arrays, and the same error and line."""

    @pytest.mark.parametrize("seed", range(8))
    def test_valid_texts_bit_equal(self, seed):
        rng = np.random.default_rng([seed, 8101])
        for _ in range(40):
            text = _off_text(rng)
            assert _outcome(parse_off, text) == _outcome(reference_parse_off, text), text

    @pytest.mark.parametrize("seed", range(8))
    def test_one_token_mutations(self, seed):
        rng = np.random.default_rng([seed, 8102])
        kinds = set()
        for _ in range(150):
            text = _mutate(_off_text(rng), rng)
            want = _outcome(reference_parse_off, text)
            if want[0] == "OverflowError":  # the reference's np.array overflows on an index beyond int64
                want = ("MeshError", "face index out of range", None)
            counts = _counts(text)
            if counts and min(counts[1:]) < 0 and not (want[0] == "ParseError" and (want[2] or 0) <= counts[0]):
                # the reference reads a negative count as a slice from the end; parse_off rejects it
                want = ("ParseError", f"line {counts[0]}: bad counts", counts[0])
            assert _outcome(parse_off, text) == want, text
            kinds.add(want[0] if isinstance(want[0], str) else "ok")
        assert {"ParseError", "ok"} <= kinds

    def test_mutations_reach_every_parse_error(self):
        rng = np.random.default_rng(8103)
        seen = set()
        for _ in range(3000):
            text = _mutate(_off_text(rng), rng)
            try:
                reference_parse_off(text)
            except ParseError as e:
                seen.add(str(e).split(": ", 1)[-1].split(" ")[0])
            except (ValueError, OverflowError):
                pass
        assert {"expected", "counts", "bad", "vertex", "face"} <= seen

    def test_index_beyond_int64_is_out_of_range(self):
        text = TETRA_OFF.replace("3 1 2 3", "3 1 2 99999999999999999999")
        with pytest.raises(MeshError, match="^face index out of range$"):
            parse_off(text)

    @pytest.mark.parametrize("counts", ["-4 12 0", "4 -1 0", "-1 -1 0"])
    def test_negative_counts_rejected(self, counts):
        # the line loop sliced from the end: "-4 12 0" read this tetrahedron
        with pytest.raises(ParseError, match="^line 2: bad counts$"):
            parse_off(TETRA_OFF.replace("4 4 6", counts))

    @pytest.mark.parametrize("seed", range(4))
    def test_any_whitespace(self, seed):
        # tokens joined by tabs, runs of spaces and no-break spaces, also before and after them,
        # where each block's lines are split once: the same arrays, or the same error and line
        rng = np.random.default_rng([seed, 8104])
        gaps = [" ", "   ", "\t", "\t\t ", "\xa0", " \xa0\t", "\u2003"]
        gap = lambda: str(rng.choice(gaps))  # noqa: E731
        for _ in range(60):
            text = _off_text(rng) if rng.random() < 0.5 else _mutate(_off_text(rng), rng)
            text = "\n".join(gap() + gap().join(line.split()) + gap() for line in text.split("\n"))
            want = _outcome(reference_parse_off, text)
            counts = _counts(text)
            if want[0] != "OverflowError" and not (counts and min(counts[1:]) < 0):
                assert _outcome(parse_off, text) == want, text

    def test_empty_blocks_keep_their_errors(self):
        with pytest.raises(MeshError, match="vertices must be"):
            parse_off("OFF\n0 0 0\n")
        with pytest.raises(MeshError, match="faces must be"):
            parse_off("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
