"""dgl models of cell attachments and the three inertness tests.

The tests are independent:

* inert_homological -- surjectivity of H(base) -> H(attached) on the window,
  with witness cycles for failures;
* quotient_consistency -- dimension comparison of H(attached) against
  H(base)/I, the ideal generated by the targets, computed by breadth-first
  bracket saturation;
* inert_anick -- the combinatorial leading-monomial certificate (no
  submonomial containment, no overlaps); a pass is a sufficient certificate
  of inertness, a fail is not a refutation.

Truncated inertness is only ever reported as "inert-up-to-window"; not-inert
requires a witness in a degree whose homology dimension has stabilized, or a
linear dependency among the target classes (inert maps have independent ones).

The verdicts read the boundary-space echelons that the homology tables'
chain complexes already hold, growing copies of them, and work on chain
vectors throughout.  Base cycles enter the attached complex by re-indexing
bracket trees, with no tensor round trip.  A degree whose attached chains
are all base chains is onto by construction; the rest are decided by a rank
count, so the attached cycle basis is built only in a degree where it fails.
Witnesses stay chain vectors; they are built as Lie elements only when a
library caller reads InertnessVerdict.failing.
"""

from __future__ import annotations

from functools import cached_property

from .dgl import ChainComplex, DglPresentation, GeneratorError, HomologyTable, homology
from .freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    Word,
)
from .qlinalg import Echelon, Vector

INERT_UP_TO_WINDOW = "inert-up-to-window"
NOT_INERT = "not-inert"
INCONCLUSIVE = "inconclusive"


class AttachingMap:
    """Cells to attach: fresh names with homogeneous cycle targets."""

    def __init__(self, cells: list[tuple[str, LieElement]]):
        names = [name for name, _ in cells]
        if len(set(names)) != len(names):
            raise ValueError("duplicate cell names in attaching map")
        self.cells = cells


class InertnessVerdict:
    """A verdict with its witnesses: (degree, canonical vector) pairs over the
    chain basis of `complex`, the attached model's; `failing` gives them as
    Lie elements."""

    def __init__(self, window: Window, status: str, witnesses: list[tuple[int, Vector]],
                 injective: bool, complex: ChainComplex):
        self.window, self.status, self.injective = window, status, injective
        self.witnesses, self.complex = witnesses, complex

    @cached_property
    def failing(self) -> list[tuple[int, LieElement]]:
        return [(d, self.complex.element(v, d)) for d, v in self.witnesses]


def attach_cells(base: DglPresentation, amap: AttachingMap) -> DglPresentation:
    """free_product(base, free on cells) with diff extended by cell -> target.

    Cell generators inherit the minimum weight of their target (computed
    before any re-truncation), so the attached differential never lowers
    weight and the window stages stay complete.
    """
    window = base.window
    taken = {g.name for g in base.generators}
    gens = list(base.generators)
    diff: dict[Generator, TensorElement] = {g: img.value for g, img in base.diff.items()}
    for name, target in amap.cells:
        if name in taken:
            raise GeneratorError(f"cell name {name} collides with an existing generator", name)
        taken.add(name)
        t = target.value
        if not t.is_zero() and not t.is_homogeneous():
            raise GeneratorError(f"target of cell {name} is not degree-homogeneous", name)
        weight = t.min_weight() or 1
        t = t.rewindow(window)
        residual = base.derive(t)
        if not residual.is_zero():
            raise GeneratorError(f"target of cell {name} is not a cycle", name)
        degree = (t.degree() if not t.is_zero() else target.value.degree()) or 0
        cell = Generator(name, degree + 1, weight=weight)
        gens.append(cell)
        diff[cell] = t
    return DglPresentation(gens, diff, window)


def targets_injective(base_table: HomologyTable, amap: AttachingMap) -> bool:
    """Whether the cell-target classes are linearly independent in H(base).

    Targets that are invisible at this window (nonzero, but of weight or
    degree beyond it) are skipped: their classes cannot be assessed here.
    A genuinely zero target always fails.
    """
    echelons: dict[int, Echelon] = {}
    cx = base_table.complex
    for name, target in amap.cells:
        if target.value.is_zero():
            return False
        t = target.value.rewindow(base_table.window)
        if t.is_zero():
            continue
        d = t.degree()
        if d not in base_table.dims:
            continue
        if d not in echelons:
            echelons[d] = cx.image(d).copy()
        if not echelons[d].insert(cx.coordinates(t, d)):
            return False
    return True


def surjectivity_verdict(
    base_table: HomologyTable,
    att_table: HomologyTable,
    injective: bool,
) -> InertnessVerdict:
    """Is H(base) -> H(attached) surjective in every reportable degree?

    A degree whose attached chains are all base chains is onto by
    construction: there the inclusion is a bijective chain map, injective
    one degree down, so every attached cycle is a base cycle.  Elsewhere the
    included base cycles and the attached boundaries span a subspace of
    the attached cycles; the map is onto in degree d exactly when its rank
    is the boundary rank plus dim H_d.  Only a degree where it falls short
    builds the attached cycle basis, and each of its cycles outside the span
    gives a witness: that cycle reduced against the span so far, which it
    then joins, and scaled to lead with 1 (canonical under the monomial
    order; the span contains the boundary space).
    """
    window = att_table.window
    cx_att, cx_base = att_table.complex, base_table.complex
    witnesses: list[tuple[int, Vector]] = []
    for d in att_table.degrees:
        if att_table.dims[d] == 0 or cx_att.dim(d) == cx_base.dim(d):
            continue
        boundaries = cx_att.image(d)
        hit = boundaries.copy()
        into = cx_att.inclusion(cx_base, d)
        for vec in cx_base.cycles(d).rows:
            hit.insert({into[j]: c for j, c in vec.items()})
        if hit.rank == boundaries.rank + att_table.dims[d]:
            continue
        for vec in att_table.cycles[d]:
            canon = hit.keep(vec)
            if canon is not None:
                witnesses.append((d, canon))
    if not injective:
        # inert maps have injective H(gamma) on the cells; failure is exact
        status = NOT_INERT
    elif not witnesses:
        status = INERT_UP_TO_WINDOW
    elif any(att_table.stabilized[d] for d, _ in witnesses):
        status = NOT_INERT
    else:
        status = INCONCLUSIVE
    return InertnessVerdict(window, status, witnesses, injective, cx_att)


def inert_homological(base: DglPresentation, amap: AttachingMap) -> InertnessVerdict:
    """Homological inertness test on the base's window (surjectivity of H(j))."""
    att = attach_cells(base, amap)
    base_table = homology(base)
    att_table = homology(att)
    injective = targets_injective(base_table, amap)
    return surjectivity_verdict(base_table, att_table, injective)


def saturate_ideal(base: DglPresentation, elements: list[LieElement],
                   cx: ChainComplex) -> dict[int, Echelon]:
    """Per-degree echelons of the closed ideal generated by the elements.

    Breadth-first: bracket every accepted spanning vector with each
    generator in the coordinates of cx, the base's chain complex;
    every round raises weight, so the window bound terminates the
    saturation.  Jacobi makes generator brackets sufficient.
    """
    window = base.window
    echelons: dict[int, Echelon] = {}
    frontier: list[tuple[int, Vector]] = []
    for element in elements:
        t = element.value.rewindow(window)
        if t.is_zero():
            continue
        d = t.degree()
        if d is None:
            raise ValueError("ideal generators must be degree-homogeneous")
        v = cx.coordinates(t, d)
        if echelons.setdefault(d, Echelon(cx.dim(d))).insert(v):
            frontier.append((d, v))
    letters = [(cx.generator(i), g) for i, g in enumerate(base.generators)]
    while frontier:
        new_frontier: list[tuple[int, Vector]] = []
        for d, v in frontier:
            for x, g in letters:
                br = cx.bracket(x, g.degree, v, d)
                if not br:
                    continue
                ech = echelons.setdefault(d + g.degree, Echelon(cx.dim(d + g.degree)))
                if ech.insert(br):
                    new_frontier.append((d + g.degree, br))
        frontier = new_frontier
    return echelons


class QuotientReport:
    """Per-degree comparison of dim H(attached) with dim H(base)/I."""

    def __init__(self, window: Window, attached_dims: dict[int, int], quotient_dims: dict[int, int]):
        self.window, self.attached_dims, self.quotient_dims = window, attached_dims, quotient_dims

    @property
    def degrees(self) -> list[int]:
        return sorted(self.attached_dims)

    def agree(self, degree: int) -> bool:
        return self.attached_dims[degree] == self.quotient_dims[degree]

    @property
    def consistent(self) -> bool:
        return all(self.agree(d) for d in self.degrees)

    def mismatches(self) -> list[int]:
        return [d for d in self.degrees if not self.agree(d)]


def quotient_consistency(base: DglPresentation, amap: AttachingMap) -> QuotientReport:
    """Compare dim H(attached) against dim(H(base)/I) per degree.

    Requires a zero differential on the base, so H(base) is the truncated
    algebra itself.  I is the closed ideal generated by the targets,
    saturated breadth-first by bracketing with the generators; termination
    is forced by the base window's weight bound.
    """
    if base.diff:
        raise ValueError("quotient_consistency requires a zero differential on the base")
    att = attach_cells(base, amap)
    att_table = homology(att)

    cx = ChainComplex(base)
    echelons = saturate_ideal(base, [t for _, t in amap.cells], cx)

    attached_dims: dict[int, int] = {}
    quotient: dict[int, int] = {}
    for d in att_table.degrees:
        attached_dims[d] = att_table.dims[d]
        ideal_dim = echelons[d].rank if d in echelons else 0
        quotient[d] = cx.dim(d) - ideal_dim
    return QuotientReport(base.window, attached_dims, quotient)


class AnickCertificate:
    def __init__(self, passed: bool, leading: list[Word], violation: str | None = None):
        self.passed, self.leading, self.violation = passed, leading, violation


def leading_word(t: TensorElement, order: list[Generator]) -> Word:
    """The relator's leading word: highest in deg-lex for the given order.

    Words compare by length first, then letter by letter with earlier
    generators in `order` counting as larger.
    """
    if t.is_zero():
        raise ValueError("zero relator has no leading word")
    rank = {g: i for i, g in enumerate(order)}
    missing = t.letters() - set(order)
    if missing:
        names = ", ".join(sorted(g.name for g in missing))
        raise ValueError(f"relator mentions generators outside the order: {names}")
    return max(t.terms, key=lambda w: (len(w), tuple(-rank[g] for g in w)))


def inert_anick(
    relators: list[TensorElement],
    order: list[Generator],
) -> AnickCertificate:
    """Leading-monomial certificate: pass iff no leading word is a contiguous
    subword of another and no nonempty proper suffix of any w_i equals a
    proper prefix of any w_j.

    Self-overlap (i = j) is included; the cited source requires it even
    though "any other" could be read as excluding it.
    """
    leading = [leading_word(t, order) for t in relators]

    def fmt(w: Word) -> str:
        return ".".join(g.name for g in w)

    for i, wi in enumerate(leading):
        for j, wj in enumerate(leading):
            if i == j:
                continue
            n, m = len(wi), len(wj)
            if n <= m and any(wj[k : k + n] == wi for k in range(m - n + 1)):
                return AnickCertificate(
                    False, leading,
                    f"submonomial: leading word {fmt(wi)} of relator {i} occurs in "
                    f"{fmt(wj)} of relator {j}",
                )
    for i, wi in enumerate(leading):
        for j, wj in enumerate(leading):
            for k in range(1, len(wi)):
                suffix = wi[k:]
                if len(suffix) < len(wj) and wj[: len(suffix)] == suffix:
                    return AnickCertificate(
                        False, leading,
                        f"overlap: suffix {fmt(suffix)} of {fmt(wi)} (relator {i}) is "
                        f"a prefix of {fmt(wj)} (relator {j})",
                    )
    return AnickCertificate(True, leading)


def sequential_attach(
    base: DglPresentation, g1: AttachingMap, g2: AttachingMap,
) -> tuple[DglPresentation, InertnessVerdict, InertnessVerdict, InertnessVerdict]:
    """Attach g1 then g2; returns the doubly-attached presentation plus the
    two partial verdicts and the combined one, so the sequential-splitting
    equivalence (combined inert iff both partial) can be asserted."""
    p1 = attach_cells(base, g1)
    p2 = attach_cells(p1, g2)
    base_table = homology(base)
    t1 = homology(p1)
    t2 = homology(p2)
    inj1 = targets_injective(base_table, g1)
    inj2 = targets_injective(t1, g2)
    v1 = surjectivity_verdict(base_table, t1, inj1)
    v2 = surjectivity_verdict(t1, t2, inj2)
    combined = surjectivity_verdict(base_table, t2, inj1 and inj2)
    return p2, v1, v2, combined
