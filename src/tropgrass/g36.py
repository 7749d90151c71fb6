"""The explicit tropical Grassmannian of 3-planes in 6-space.

The 65 vertices (E, F, G), the 550-edge graph, the flag complex Delta,
the pure 3-dimensional complex Delta-prime obtained by retriangulating
the 15 bipyramids, links, S6 orbits, Betti numbers, and interior sample
vectors for the seven facet-cone classes.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .complexes import SimplicialComplex
from .pvector import PlueckerVector, basis_vector

N = 6


class G36Vertex:
    """A vertex of kind E (3-subset), F (4-subset) or G (tripartition
    into pairs with a cyclic order, stored rotation-canonically)."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        if kind == "e":
            data = tuple(sorted(data))
            if len(data) != 3:
                raise ValueError("E-vertex needs a 3-subset")
        elif kind == "f":
            data = tuple(sorted(data))
            if len(data) != 4:
                raise ValueError("F-vertex needs a 4-subset")
        elif kind == "g":
            pairs = tuple(tuple(sorted(p)) for p in data)
            if len(pairs) != 3 or sorted(i for p in pairs for i in p) != list(
                range(1, 7)
            ):
                raise ValueError("G-vertex needs a tripartition into pairs")
            rotations = [pairs[r:] + pairs[:r] for r in range(3)]
            data = min(rotations)
        else:
            raise ValueError(f"unknown vertex kind {kind!r}")
        self.data = data

    @classmethod
    def parse(cls, name: str):
        kind, digits = name.split("_")
        idx = [int(c) for c in digits]
        if kind == "g":
            return cls("g", [(idx[0], idx[1]), (idx[2], idx[3]), (idx[4], idx[5])])
        return cls(kind, idx)

    def permuted(self, perm):
        """Apply an index permutation (dict or list, 1-based)."""
        if not isinstance(perm, dict):
            perm = {i + 1: v for i, v in enumerate(perm)}
        if self.kind == "g":
            return G36Vertex("g", [tuple(perm[i] for i in p) for p in self.data])
        return G36Vertex(self.kind, [perm[i] for i in self.data])

    def raw_vector(self) -> PlueckerVector:
        """The 0/1/2 representative in R^20 (not phi-reduced)."""
        if self.kind == "e":
            return basis_vector(3, N, self.data)
        if self.kind == "f":
            return basis_vector(3, N, *combinations(self.data, 3))
        p1, p2, p3 = self.data
        return basis_vector(3, N, *combinations(p1 + p2, 3),
                            p2 + (p3[0],), p2 + (p3[1],))

    def __eq__(self, other):
        return (
            isinstance(other, G36Vertex)
            and other.kind == self.kind
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.kind, self.data))

    def __lt__(self, other):
        return str(self) < str(other)

    def __str__(self):
        if self.kind == "g":
            digits = "".join(str(i) for p in self.data for i in p)
        else:
            digits = "".join(str(i) for i in self.data)
        return f"{self.kind}_{digits}"

    __repr__ = __str__


def E(*idx):
    return G36Vertex("e", idx)


def F(*idx):
    return G36Vertex("f", idx)


def G(*pairs):
    return G36Vertex("g", pairs)


def gv(name):
    return G36Vertex.parse(name)


def vertices():
    """All 65 vertices: 20 E + 15 F + 30 G."""
    out = [G36Vertex("e", S) for S in combinations(range(1, 7), 3)]
    out += [G36Vertex("f", S) for S in combinations(range(1, 7), 4)]
    # the two cyclic orders of each tripartition
    out += sorted((G36Vertex("g", cyc) for p1, p2, p3 in _tripartitions()
                   for cyc in ((p1, p2, p3), (p1, p3, p2))), key=str)
    return out


# -- the edge rules -------------------------------------------------------


def is_edge(u: G36Vertex, v: G36Vertex) -> bool:
    if u == v:
        raise ValueError("edge endpoints must differ")
    if v.kind < u.kind:
        u, v = v, u  # kinds now ordered e < f < g
    ku, kv = u.kind, v.kind
    if ku == "e" and kv == "e":
        return len(set(u.data) & set(v.data)) <= 1
    if ku == "f" and kv == "f":
        return len(set(u.data) & set(v.data)) == 2
    if ku == "g" and kv == "g":
        return frozenset(u.data) == frozenset(v.data)
    if ku == "e" and kv == "f":
        m = len(set(u.data) & set(v.data))
        return m == 3 or m == 1
    if ku == "e" and kv == "g":
        T = set(u.data)
        pairs = v.data
        for r in range(3):
            sizes = tuple(len(T & set(pairs[(r + s) % 3])) for s in range(3))
            if sizes == (2, 1, 0):
                return True
        return False
    if ku == "f" and kv == "g":
        quad = set(u.data)
        pairs = [set(p) for p in v.data]
        return any(
            pairs[a] | pairs[b] == quad
            for a, b in ((0, 1), (0, 2), (1, 2))
        )
    raise AssertionError


def edges():
    verts = vertices()
    out = []
    for u, v in combinations(verts, 2):
        if is_edge(u, v):
            out.append((u, v))
    return out


def edge_class_census():
    census = {}
    for u, v in edges():
        key = "".join(sorted(u.kind + v.kind)).upper()
        census[key] = census.get(key, 0) + 1
    return census


# -- the complexes --------------------------------------------------------


def build_delta() -> SimplicialComplex:
    """The flag complex of the 550-edge graph: f-vector (65, 550, 1410,
    1065, 15)."""
    return SimplicialComplex.flag(vertices(), edges())


def build_g36() -> SimplicialComplex:
    """Delta-prime: each 5-vertex bipyramid facet FFFGG of Delta is
    replaced by its three FFGG tetrahedra around the GG edge; f-vector
    (65, 550, 1395, 1035)."""
    delta = build_delta()
    maximal = []
    for facet in map(delta.labels, delta.masks):
        if len(facet) == 5:
            fs = sorted(v for v in facet if v.kind == "f")
            gs = [v for v in facet if v.kind == "g"]
            if len(fs) != 3 or len(gs) != 2:
                raise AssertionError("unexpected 4-simplex class")
            for fa, fb in combinations(fs, 2):
                maximal.append([fa, fb] + gs)
        else:
            maximal.append(facet)
    return SimplicialComplex(delta.vertices, maximal)


def facet_class(face) -> str:
    """Class name of a Delta-prime facet: EEEE, EEFF1, EEFF2, EFFG,
    EEEG, EEFG or FFGG."""
    vs = sorted(face, key=str)
    kinds = "".join(sorted(v.kind for v in vs)).upper()
    if kinds == "EEFF":
        es = [set(v.data) for v in vs if v.kind == "e"]
        return "EEFF1" if not (es[0] & es[1]) else "EEFF2"
    return kinds


def facet_census(complex_=None):
    complex_ = complex_ or build_g36()
    census = {}
    for facet in map(complex_.labels, complex_.masks):
        cls = facet_class(facet)
        census[cls] = census.get(cls, 0) + 1
    return census


def missing_fff_triangles():
    """The 15 edge-complete FFF triangles that are not faces of
    Delta-prime (the not-flag witnesses)."""
    out = []
    for p1, p2, p3 in _tripartitions():
        out.append(
            frozenset(
                [
                    G36Vertex("f", p1 + p2),
                    G36Vertex("f", p1 + p3),
                    G36Vertex("f", p2 + p3),
                ]
            )
        )
    return out


def _tripartitions():
    """The 15 pairings of [6] as sorted pair triples, in lex order: leaf 1
    pairs with one of the five others, then the least leaf left pairs
    with one of the three remaining."""
    out = []
    for j in range(2, 7):
        a, *others = [i for i in range(2, 7) if i != j]
        for b in others:
            out.append(((1, j), (a, b), tuple(i for i in others if i != b)))
    return out


def bipyramid_identity_holds():
    """g_{P1P2P3} + g_{P1P3P2} = f_{P1P2} + f_{P1P3} + f_{P2P3}, exactly
    in R^20, for all 15 tripartitions."""
    for p1, p2, p3 in _tripartitions():
        lhs = G36Vertex("g", (p1, p2, p3)).raw_vector() + G36Vertex(
            "g", (p1, p3, p2)
        ).raw_vector()
        rhs = (
            G36Vertex("f", p1 + p2).raw_vector()
            + G36Vertex("f", p1 + p3).raw_vector()
            + G36Vertex("f", p2 + p3).raw_vector()
        )
        if lhs != rhs:
            return False
    return True


# -- orbits ---------------------------------------------------------------


def orbit_of(face):
    """The S6 orbit of a vertex or a face (set of vertices)."""
    single = isinstance(face, G36Vertex)
    vs = [face] if single else list(face)
    orbit = set()
    for perm in permutations(range(1, 7)):
        image = [v.permuted(perm) for v in vs]
        orbit.add(image[0] if single else frozenset(image))
    return orbit


# -- facet-cone samples ---------------------------------------------------


FACET_SAMPLES = {
    "EEEE": ("e_123", "e_145", "e_246", "e_356"),
    "EEFF1": ("e_123", "e_456", "f_1234", "f_3456"),
    "EEFF2": ("e_125", "e_345", "f_3456", "f_1256"),
    "EFFG": ("e_345", "f_1256", "f_3456", "g_123456"),
    "EEEG": ("e_126", "e_134", "e_356", "g_125634"),
    "EEFG": ("e_234", "e_125", "f_1256", "g_125634"),
    "FFGG": ("f_1256", "f_3456", "g_123456", "g_125634"),
}


def facet_cone_sample(class_name: str) -> PlueckerVector:
    """An interior point of a representative facet cone: the sum of the
    raw ambient vectors of the facet's vertices."""
    if class_name not in FACET_SAMPLES:
        raise ValueError(f"unknown facet class {class_name!r}")
    names = FACET_SAMPLES[class_name]
    total = gv(names[0]).raw_vector()
    for name in names[1:]:
        total = total + gv(name).raw_vector()
    return total


# the seven triangle-link assertions of the classification
TRIANGLE_LINKS = {
    "EEE": (("e_146", "e_256", "e_345"), ("e_123", "g_163425", "g_142635")),
    "EEF": (("e_256", "e_346", "f_1346"), ("f_1256", "g_132546", "g_142536")),
    "EEG": (("e_156", "e_236", "g_142356"), ("e_124", "e_134", "f_1456")),
    "EFF": (("e_135", "f_1345", "f_2346"), ("e_236", "e_246", "g_153426")),
    "EFG": (("e_235", "f_2356", "g_143526"), ("e_145", "f_1246", "e_134")),
    "FFG": (("f_1236", "f_1345", "g_134526"), ("e_126", "e_236", "g_132645")),
    "FGG": (("f_1456", "g_142356", "g_145623"), ("f_2356", "f_1234")),
}


def triangle_links_match(complex_=None):
    """Check the seven printed triangle links; returns (ok, failures)."""
    complex_ = complex_ or build_g36()
    failures = []
    for cls, (tri, expected) in TRIANGLE_LINKS.items():
        lk = complex_.link([gv(x) for x in tri])
        got = set(lk.vertices)
        want = {gv(x) for x in expected}
        if got != want:
            failures.append((cls, sorted(map(str, got)), sorted(map(str, want))))
    return (not failures), failures
