"""Finite presentations of profree dgl's and their homology on truncation
windows.

A presentation is a generator list with degrees plus differential images;
the differential extends to the whole truncated algebra as the right
derivation  d(ab) = (-1)^{deg b} (da).b + a.(db),  which restricts on
brackets to  d[x,y] = (-1)^{deg y} [dx,y] + [x,dy].

Homology is computed degreewise on the weight-<=N quotient, which is an
honest finite-dimensional nilpotent dgl because differentials never lower
weight.  The top degree of the window is omitted from homology tables: its
incoming boundaries are not fully visible.

Boundaries are assembled in bracket coordinates over the chain basis (the
left-normed bracket bases of the window's slices): each basis tree [g, b]
is factored as its slice recorded on accepting it, and its boundary is the
derivation rule as two chain brackets, [g, db] and [dg, b].  Every bracket
of basis elements comes from one routine: a unit vector where [g, b] is
itself a basis tree, else computed in its target slice by the Lyndon-basis
rewriting of module freelie (LieSlice.bracket) and memoised; the same
coordinate bracket serves the boundaries, the ideal saturation of module
attach, the indecomposables here, and the structure constants of
sullivan.truncation_lie_data.  Only the generators'
differential images pass through tensor words, once each; derive works on
tensor words and remains for d^2 checks and tensor-given inputs.

Chain coordinates are integers wherever they are integral.  A
ChainComplex eliminates each boundary map untracked for its image, the
echelon that ranks, stage ranks, representatives and attach verdicts all
read; the cycles of a degree are qlinalg.kernel_basis of its boundary's
columns, computed on first read and kept.  So a boundary is eliminated at
most twice, and twice only where a degree's cycles are read; qlinalg is
read only through its public names.  Homology dimensions are read off the
ranks; representatives are built per degree when first read, none where
the homology is zero, stay coordinate vectors over the chain basis and
print from them; Lie elements are built only when a library caller asks.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from .freelie import (
    Generator,
    LieElement,
    LieSlice,
    TensorElement,
    Window,
    Word,
    certify_lie,
    format_trees,
    lie_slice,
    merge_windows,
    slice_dim,
)
from .qlinalg import Echelon, SparseMatrix, SubspaceBasis, Vector, add_scaled, kernel_basis

ZERO = Fraction(0)
ONE = Fraction(1)


class GeneratorError(ValueError):
    """Invalid input about one generator, whose name it carries: its
    differential, or for a cell its target."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name


class DglPresentation:
    """A profree dgl given by generators, degrees, and differential images.

    Immutable after construction.  diff maps generators to certified Lie
    elements of degree one less, with all terms of weight >= 1; degree-0
    generators always map to 0.
    """

    def __init__(
        self,
        generators,
        diff: dict[Generator, LieElement | TensorElement],
        window: Window,
        validate_d_squared: bool = True,
    ):
        self.generators: tuple[Generator, ...] = tuple(generators)
        self.window = window
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        gen_set = set(self.generators)

        self.diff: dict[Generator, LieElement] = {}
        for g, img in diff.items():
            if g not in gen_set:
                raise ValueError(f"diff given for unknown generator {g.name}")
            if isinstance(img, LieElement):
                img = img.value
            img = img.rewindow(window)
            if img.is_zero():
                continue
            if g.degree == 0:
                raise GeneratorError(f"degree-0 generator {g.name} must have zero diff", g.name)
            if img.degree() != g.degree - 1:
                raise GeneratorError(
                    f"diff of {g.name} must be homogeneous of degree {g.degree - 1}", g.name
                )
            if (img.min_weight() or 1) < 1:
                raise GeneratorError(f"diff of {g.name} has a weight-0 term", g.name)
            lie = certify_lie(img, self.generators)
            if lie is None:
                raise GeneratorError(f"diff of {g.name} is not in the free Lie subalgebra", g.name)
            self.diff[g] = lie
        self._homology: "HomologyTable | None" = None
        if validate_d_squared:
            bad = self.check_d_squared()
            if bad:
                bad_names = ", ".join(g.name for g, _ in bad)
                raise GeneratorError(f"d^2 != 0 on generators: {bad_names}", bad[0][0].name)

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def diff_of(self, g: Generator) -> TensorElement:
        img = self.diff.get(g)
        if img is None:
            return TensorElement.zero(self.window)
        return img.value

    def derive(self, x: LieElement | TensorElement):
        """Apply the differential, extended to the tensor algebra as a right
        derivation; restricts to the bracket rule on Lie elements."""
        lie_in = isinstance(x, LieElement)
        t = x.value if lie_in else x
        unknown = t.letters() - set(self.generators)
        if unknown:
            names = ", ".join(sorted(g.name for g in unknown))
            raise ValueError(f"element mentions unknown generators: {names}")
        window = self.window
        out: dict[Word, Fraction] = {}
        for word, coeff in t.terms.items():
            suffix_degree = 0
            # differentiate letters right to left so the suffix degree accumulates
            for i in range(len(word) - 1, -1, -1):
                g = word[i]
                img = self.diff.get(g)
                if img is not None:
                    sign = -ONE if suffix_degree % 2 else ONE
                    c = coeff * sign
                    head, tail = word[:i], word[i + 1 :]
                    for v, cv in img.value.terms.items():
                        new_word = head + v + tail
                        if not window.admits(new_word):
                            continue
                        s = out.get(new_word, ZERO) + c * cv
                        if s:
                            out[new_word] = s
                        else:
                            out.pop(new_word, None)
                suffix_degree += g.degree
        result = TensorElement(window, out)
        return LieElement(result) if lie_in else result

    def check_d_squared(self) -> list[tuple[Generator, TensorElement]]:
        """d(d(g)) for every generator; violations are data, not exceptions."""
        bad = []
        for g in self.generators:
            img = self.diff.get(g)
            if img is None:
                continue
            residual = self.derive(img.value)
            if not residual.is_zero():
                bad.append((g, residual))
        return bad

    def is_minimal(self) -> bool:
        """True iff every diff image is decomposable (all word lengths >= 2)."""
        return all((img.value.min_length() or 2) >= 2 for img in self.diff.values())

    def rewindow(self, window: Window) -> "DglPresentation":
        """The same presentation truncated/extended to another window."""
        if window == self.window:
            return self
        return DglPresentation(
            self.generators,
            {g: img.value.rewindow(window) for g, img in self.diff.items()},
            window,
            validate_d_squared=False,
        )

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"DglPresentation({gens}; window={self.window})"


def free_presentation(generators, window: Window) -> DglPresentation:
    return DglPresentation(generators, {}, window)


class HomologyTable:
    """Per-degree homology of the weight-truncated quotient.

    Degrees run from 0 to max_degree - 1; the top window degree is omitted.
    dims and stabilized come from the ranks of the untracked image
    eliminations.  cycles[d] holds the canonical representatives over the
    degree-d chain basis of `complex`, the kernel reduced against the
    boundaries; it is built on first access, degree by degree, so a caller
    that reads only dims never builds a cycle basis, and it is [] with no
    elimination where dims[d] is 0.  The CLI prints them with format_vector;
    `representatives` builds Lie elements for library callers only.
    stabilized[d] records whether the dimension is unchanged between the
    (N-1) and N weight stages; it is a report, never a convergence claim.
    A table is safe for concurrent readers: each degree's list is the one
    stored first, whichever reader built it.
    """

    def __init__(self, window: Window, dims: dict[int, int], stabilized: dict[int, bool],
                 complex: "ChainComplex"):
        self.window, self.dims = window, dims
        self.stabilized, self.complex = stabilized, complex
        self.cycles: Mapping[int, list[Vector]] = LazyMapping(
            dims, lambda d: _canonical_cycles(complex, d) if dims[d] else [])

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    @cached_property
    def representatives(self) -> dict[int, list[LieElement]]:
        return {d: [self.complex.element(v, d) for v in vs] for d, vs in self.cycles.items()}


class LazyMapping(Mapping):
    """A mapping over fixed keys whose value for a key is built by
    build(key) on first read and kept.  Safe for concurrent readers: a key
    keeps the value stored first, whichever reader built it."""

    def __init__(self, keys, build):
        self._keys, self._build = keys, build
        self._built: dict = {}

    def __getitem__(self, key):
        out = self._built.get(key)
        if out is None:
            if key not in self._keys:
                raise KeyError(key)
            out = self._built.setdefault(key, self._build(key))
        return out

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _canonical_cycles(cx: "ChainComplex", d: int) -> list[Vector]:
    """The kernel basis in degree d reduced against the boundary space, each
    vector that survives kept in the span and scaled to lead with 1."""
    image = cx.image(d).copy()
    return [v for v in map(image.keep, cx.cycles(d).rows) if v is not None]


class _Layouts(dict):
    """degree -> (slots by weight, slots by chain index), built on first
    read.  A slot is a slice and the chain index of its first tree; weight w
    is entry w - 1 of the first list, zero slices included, and the second
    names the slot of every chain index."""

    def __init__(self, gens: tuple[Generator, ...], max_weight: int):
        super().__init__()
        self.gens, self.max_weight = gens, max_weight

    def __missing__(self, degree: int) -> tuple[list[tuple[LieSlice, int]], list[tuple[LieSlice, int]]]:
        by_weight, by_index = [], []
        for w in range(1, self.max_weight + 1):
            slot = (lie_slice(self.gens, w, degree), len(by_index))
            by_weight.append(slot)
            by_index.extend([slot] * slot[0].dim)
        return self.setdefault(degree, (by_weight, by_index))


class ChainBasis:
    """Coordinates of a presentation's truncated free Lie algebra over its
    chain basis, with brackets and boundaries computed in them.

    Degree-d chains are the direct sum of the (w, d) Lie slices, w <= N, in
    ascending weight; chain index j of degree d names a left-normed basis
    tree of its slice.  [e_a, e_b] is LieSlice.bracket in the target slice,
    of e_a's super-Lyndon coordinates with e_b's tree, or a unit vector
    where e_a is a generator g_i and the slice accepted the tree [g_i, e_b];
    bracket extends it bilinearly, and boundaries follow
    d[g_i, b] = [g_i, db] + (-1)^{|b|} [dg_i, b].
    Only the generators' diffs pass through tensor words, once each.
    Brackets beyond the window are dropped, as in word space.  Columns are
    memoised on the object; returned vectors must not be mutated.
    """

    def __init__(self, p: DglPresentation):
        self.p = p
        self.window = p.window
        self._layouts = _Layouts(p.generators, p.window.max_weight)
        # degree -> per chain index (i, None, None) for the generator g_i, or
        # (i, d_b, b) for the tree [g_i, e_b], e_b of degree d_b
        self._factors: dict[int, list[tuple[int, int | None, int | None]]] = {}
        self._brackets: dict[tuple[int, int, int, int], Vector] = {}  # the solves of _basis_bracket
        self._columns: dict[tuple[int, int], Vector] = {}

    def slices(self, degree: int) -> list[LieSlice]:
        """The nonzero degree-d slices, in ascending weight."""
        return [slc for slc, _ in self._layouts[degree][0] if slc.dim]

    def _slot(self, degree: int, weight: int) -> tuple[LieSlice, int] | None:
        """The (weight, degree) slice and its offset, or None if it is zero
        or outside the window."""
        if not (0 <= degree <= self.window.max_degree and 1 <= weight <= self.window.max_weight):
            return None
        slot = self._layouts[degree][0][weight - 1]
        return slot if slot[0].trees else None

    def _locate(self, degree: int, j: int) -> tuple[LieSlice, int]:
        """The slice holding degree-d chain index j, and its offset."""
        return self._layouts[degree][1][j]

    def weights(self, degree: int) -> list[int]:
        """The weight of every degree-d chain-basis element."""
        return [slc.weight for slc, _ in self._layouts[degree][1]]

    def dim(self, degree: int, max_weight: int | None = None) -> int:
        by_weight, by_index = self._layouts[degree]
        return len(by_index) if max_weight is None else sum(slc.dim for slc, _ in by_weight[:max_weight])

    def coordinates(self, t: TensorElement, degree: int) -> Vector:
        """Coordinates of a degree-d Lie tensor element over the chain basis."""
        out: Vector = {}
        for (w, d), terms in t.bislices().items():
            if d != degree:
                raise ValueError(f"component of degree {d} in degree-{degree} chains")
            slot = self._slot(degree, w)
            coords = None if slot is None else slot[0].coordinates(terms)
            if coords is None:
                raise ValueError("component is not in the Lie subspace")
            for i, c in coords.items():
                out[slot[1] + i] = c
        return out

    def element(self, coords: Vector, degree: int) -> LieElement:
        """The Lie element with these coordinates over the degree-d chain basis."""
        terms: dict[Word, Fraction] = {}
        for j in sorted(coords):
            slc, off = self._locate(degree, j)
            add_scaled(terms, slc.kept_terms[j - off], coords[j])
        return LieElement(TensorElement(self.window, terms))

    def format_vector(self, coords: Vector, degree: int) -> str:
        """format_lie's text for element(coords, degree), without building it."""
        parts = []
        for j in sorted(coords):
            slc, off = self._locate(degree, j)
            parts.append((coords[j], slc.trees[j - off]))
        return format_trees(parts, self.p.generators)

    def _matched(self, degree: int) -> list[tuple[int, int | None, int | None]]:
        """The factors of every degree-d basis tree, read off the slices:
        LieSlice.accepted names, in tree order, the generator g_i or the
        candidate [g_i, b_k] that each tree is, and b_k is chain index k past
        the offset of its slice in degree d - |g_i|."""
        factors = self._factors.get(degree)
        if factors is None:
            factors = []
            gens = self.p.generators
            for slc in self.slices(degree):
                for i, k in slc.accepted:
                    if k is None:
                        factors.append((i, None, None))
                    else:
                        ds = degree - gens[i].degree
                        factors.append((i, ds, self._slot(ds, slc.weight - gens[i].weight)[1] + k))
            self._factors[degree] = factors
        return factors

    def generator(self, i: int) -> Vector:
        """g_i over the chain basis of its degree; {} when g_i has no slot
        in the window."""
        g = self.p.generators[i]
        slot = self._slot(g.degree, g.weight)
        return {} if slot is None else {slot[1] + slot[0].accepted[(i, None)]: 1}

    def _basis_bracket(self, da: int, a: int, db: int, b: int) -> Vector:
        """[e_a, e_b] over the chain basis of degree da + db, for e_a of
        degree da and e_b of degree db; {} beyond the window.  Where e_a is
        a generator g_i and the target slice accepted the tree [g_i, e_b], a
        unit vector; else e_a's super-Lyndon coordinates bracketed with e_b
        in the target slice (LieSlice.bracket).  Only the solves are
        memoised."""
        key = (da, a, db, b)
        out = self._brackets.get(key)
        if out is not None:
            return out
        (sa, a_off), (sb, b_off) = self._locate(da, a), self._locate(db, b)
        slot = self._slot(da + db, sa.weight + sb.weight)
        if slot is None:
            return {}
        slc, off = slot
        # accepted keys the tree [g_i, b_k] by (i, k), and e_a's tree is i exactly when e_a is g_i
        k = slc.accepted.get((sa.trees[a - a_off], b - b_off))
        if k is not None:
            return {off + k: 1}
        x = {sa.lead[t]: c for t, c in sa.coords[a - a_off].items()}
        out = self._brackets[key] = {off + c: v for c, v in slc.bracket(x, sb, b - b_off).items()}
        return out

    def bracket(self, x: Vector, dx: int, y: Vector, dy: int) -> Vector:
        """[x, y] for chains x of degree dx and y of degree dy, over the chain
        basis of degree dx + dy."""
        out: Vector = {}
        for a, ca in x.items():
            for b, cb in y.items():
                br = self._basis_bracket(dx, a, dy, b)
                if br:
                    add_scaled(out, br, ca * cb)
        return out

    def boundary_column(self, degree: int, j: int) -> Vector:
        """d e_j for e_j of degree `degree` >= 1, over the chain basis of
        degree - 1: the diff image of a generator, the derivation rule on a
        tree [g_i, e_s]."""
        key = (degree, j)
        col = self._columns.get(key)
        if col is None:
            i, ds, s = self._matched(degree)[j]
            g = self.p.generators[i]
            if ds is None:
                img = self.p.diff.get(g)
                col = {} if img is None else self.coordinates(img.value, degree - 1)
            else:
                # d[g_i, e_s] = [g_i, d e_s] + (-1)^{|e_s|} [dg_i, e_s]; x is one unit vector
                x = self.generator(i)
                col = self.bracket(x, g.degree, self.boundary_column(ds, s), ds - 1) if ds else {}
                dx = self.boundary_column(g.degree, *x) if g.degree else {}
                add_scaled(col, self.bracket(dx, g.degree - 1, {s: 1}, ds), -1 if ds % 2 else 1)
            self._columns[key] = col
        return col


class ChainComplex(ChainBasis):
    """Chain data of a presentation on its window, assembled degree by degree.

    The boundary matrices are those of the chain basis, in ascending weight,
    so ranks of the (N-1)-stage are read off the same elimination as the
    full ranks.  Images are eliminated untracked; a kernel is eliminated,
    tracked, on its first read.
    """

    def __init__(self, p: DglPresentation):
        super().__init__(p)
        self._images: dict[int, Echelon] = {}
        self._kernels: dict[int, SubspaceBasis] = {}

    def boundary(self, degree: int) -> SparseMatrix:
        """The matrix of d: C_degree -> C_{degree-1}; homology never builds it."""
        cols = self.dim(degree)
        rows = self.dim(degree - 1) if degree >= 1 else 0
        entries: dict[tuple[int, int], Fraction] = {}
        if degree >= 1:
            for j in range(cols):
                for i, c in self.boundary_column(degree, j).items():
                    entries[(i, j)] = c
        return SparseMatrix(rows, cols, entries)

    def image(self, degree: int) -> Echelon:
        """Echelon of the boundary space in degree d: the columns of
        d: C_{d+1} -> C_d inserted into an untracked Echelon, which keeps no
        kernel.  Consumers that grow it take a copy."""
        ech = self._images.get(degree)
        if ech is None:
            ech = Echelon(self.dim(degree))
            for j in range(self.dim(degree + 1)):
                ech.insert(self.boundary_column(degree + 1, j))
            self._images[degree] = ech
        return ech

    def cycles(self, degree: int) -> SubspaceBasis:
        """Leftmost-pivot reduced echelon basis of the kernel of
        d: C_d -> C_{d-1} (all of C_0 in degree 0): kernel_basis of its
        columns, run on the first read and kept."""
        basis = self._kernels.get(degree)
        if basis is None:
            n = self.dim(degree)
            if degree == 0:
                basis = SubspaceBasis(n, [{j: 1} for j in range(n)], list(range(n)))
            else:
                cols = (self.boundary_column(degree, j) for j in range(n))
                basis = kernel_basis(cols, self.dim(degree - 1))
            basis = self._kernels.setdefault(degree, basis)
        return basis

    def stage_rank(self, degree: int) -> int:
        """Rank of d: C_{d+1} -> C_d on the weight-<=(N-1) stage, for a d
        that never lowers weight: the image's pivots in (N-1)-stage rows.
        Rows run in ascending weight, so a weight-N column leaves none there."""
        rows = self.dim(degree, self.window.max_weight - 1)
        return sum(1 for p in self.image(degree).pivots if p < rows)

    def inclusion(self, sub: "ChainComplex", degree: int) -> list[int]:
        """Index here of each degree-d chain-basis element of sub.

        sub's generators must be a prefix of ours, on the same window.  The
        free Lie algebra is multigraded by letters, so every slice accepts
        the bracket trees on sub's letters exactly as sub's slice does: each
        basis element of sub is a basis element here, with coefficient 1.
        """
        n = len(sub.p.generators)
        if sub.p.generators != self.p.generators[:n] or sub.window != self.window:
            raise ValueError("sub-complex must have a prefix of the generators and the same window")
        here = {
            slc.weight: (off, {tree: k for k, tree in enumerate(slc.trees)})
            for slc, off in self._layouts[degree][0]
        }
        out: list[int] = []
        for slc in sub.slices(degree):
            off, index = here[slc.weight]
            out.extend(off + index[tree] for tree in slc.trees)
        return out


def homology(p: DglPresentation) -> HomologyTable:
    """Homology table of the weight-truncated quotient dgl.

    Reports degrees 0 .. max_degree-1 with dims and stabilization flags
    comparing the (N-1) and N weight stages, both read off the ranks, and
    canonical representatives (kernel vectors reduced against the boundary
    space), built when a degree's cycles are first read.  Computed once per
    presentation.
    """
    if p._homology is not None:
        return p._homology
    for g in p.generators:
        img = p.diff.get(g)
        if img is not None and (img.value.min_weight() or g.weight) < g.weight:
            raise ValueError(f"weight-decreasing differential on {g.name}")
    cx = ChainComplex(p)
    N, D = p.window.max_weight, p.window.max_degree
    dims: dict[int, int] = {}
    stab: dict[int, bool] = {}
    for d in range(0, D):
        # ranks of the incoming and outgoing boundaries, full and (N-1)-stage
        rank_in, stage_in = cx.image(d).rank, cx.stage_rank(d)
        rank_out, stage_out = (cx.image(d - 1).rank, cx.stage_rank(d - 1)) if d else (0, 0)
        dims[d] = cx.dim(d) - rank_out - rank_in
        stab[d] = dims[d] == cx.dim(d, N - 1) - stage_out - stage_in
    p._homology = HomologyTable(p.window, dims, stab, cx)
    return p._homology


def indecomposable_dims(p: DglPresentation) -> dict[int, int]:
    """Per-degree dims of H/[H,H].

    [H,H]_d is spanned by classes of brackets of representatives; each
    bracket is reduced against the boundary space before counting.
    """
    table = homology(p)
    cx = table.complex
    out: dict[int, int] = {}
    for d in table.degrees:
        ech = cx.image(d).copy()
        base_rank = ech.rank
        for p_deg in range(0, d + 1):
            q_deg = d - p_deg
            if p_deg not in table.cycles or q_deg not in table.cycles:
                continue
            for r1 in table.cycles[p_deg]:
                for r2 in table.cycles[q_deg]:
                    br = cx.bracket(r1, p_deg, r2, q_deg)
                    if br:
                        ech.insert(br)
        out[d] = table.dims[d] - (ech.rank - base_rank)
    return out


def lcs_dims(p: DglPresentation, k_max: int) -> dict[int, dict[int, int]]:
    """Lower-central-series slice dimensions of a differential-zero
    presentation: k -> degree -> dim of the weight-k slice, counted as
    super-Lyndon words (freelie.slice_dim); no slice is built."""
    if p.diff:
        raise ValueError("lcs_dims requires a presentation with zero differential")
    if k_max > p.window.max_weight:
        raise ValueError(f"k_max={k_max} exceeds window weight {p.window.max_weight}")
    out: dict[int, dict[int, int]] = {}
    for k in range(1, k_max + 1):
        per_degree: dict[int, int] = {}
        for d in range(0, p.window.max_degree + 1):
            dim = slice_dim(p.generators, k, d)
            if dim:
                per_degree[d] = dim
        out[k] = per_degree
    return out


def free_product(p1: DglPresentation, p2: DglPresentation) -> DglPresentation:
    """Presentation on the disjoint union of generators; windows merged by max.

    Name collisions on the right are renamed (primes appended) and reported
    with a warning.
    """
    window = merge_windows(p1.window, p2.window)
    taken = {g.name for g in p1.generators}
    rename: dict[Generator, Generator] = {}
    new_right = []
    for g in p2.generators:
        name = g.name
        while name in taken:
            name += "'"
        taken.add(name)
        ng = Generator(name, g.degree, g.weight) if name != g.name else g
        if ng is not g:
            rename[g] = ng
        new_right.append(ng)
    if rename:
        renamed = ", ".join(f"{old.name}->{new.name}" for old, new in rename.items())
        warnings.warn(f"free_product renamed colliding generators: {renamed}")

    def rewrite(t: TensorElement) -> TensorElement:
        if not rename:
            return t.rewindow(window)
        terms = {}
        for word, c in t.terms.items():
            terms[tuple(rename.get(g, g) for g in word)] = c
        return TensorElement(window, terms)

    gens = tuple(p1.generators) + tuple(new_right)
    diff: dict[Generator, TensorElement] = {}
    for g, img in p1.diff.items():
        diff[g] = img.value.rewindow(window)
    for g, img in p2.diff.items():
        diff[rename.get(g, g)] = rewrite(img.value)
    return DglPresentation(gens, diff, window, validate_d_squared=False)


def regrade(p: DglPresentation, new_degrees: dict[Generator, int]) -> DglPresentation:
    """Re-declare generator degrees, keeping brackets and diffs as tensor data.

    Requires every diff image to stay homogeneous of the correct new degree
    and to remain in the free Lie subalgebra under the new Koszul signs
    (re-certification is the authoritative check).  A generator whose parity
    changes while it is repeated inside some diff-image word is rejected
    outright: the self-bracket sign semantics would change.
    """
    mapping: dict[Generator, Generator] = {}
    for g in p.generators:
        nd = new_degrees.get(g, g.degree)
        if nd < 0:
            raise ValueError(f"new degree of {g.name} must be >= 0")
        mapping[g] = Generator(g.name, nd, g.weight) if nd != g.degree else g

    for g, img in p.diff.items():
        for word in img.value.terms:
            seen: dict[Generator, int] = {}
            for letter in word:
                seen[letter] = seen.get(letter, 0) + 1
            for letter, count in seen.items():
                if count >= 2 and (mapping[letter].degree - letter.degree) % 2 != 0:
                    raise ValueError(
                        f"parity change of {letter.name} in self-bracket pair "
                        f"({letter.name},{letter.name}) within diff of {g.name}"
                    )

    max_deg = max((mapping[g].degree for g in p.generators), default=0)
    window = Window(
        p.window.max_weight,
        max(p.window.max_degree, p.window.max_weight * max_deg),
    )
    gens = tuple(mapping[g] for g in p.generators)
    diff: dict[Generator, TensorElement] = {}
    for g, img in p.diff.items():
        terms = {
            tuple(mapping[letter] for letter in word): c
            for word, c in img.value.terms.items()
        }
        t = TensorElement(window, terms)
        ng = mapping[g]
        if not t.is_zero() and t.degree() != ng.degree - 1:
            raise ValueError(
                f"diff of {g.name} is not homogeneous of degree {ng.degree - 1} "
                "under the new degrees"
            )
        if certify_lie(t, gens) is None:
            raise ValueError(
                f"diff of {g.name} leaves the free Lie subalgebra under the new degrees"
            )
        diff[ng] = t
    return DglPresentation(gens, diff, window, validate_d_squared=False)
