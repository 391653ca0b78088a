"""Independent oracles for benchmark outputs.

Nothing here imports lietop: every expected value is derived from first
principles, so a defect in the package cannot also corrupt its check.
"""

from __future__ import annotations

from fractions import Fraction


def mobius(n: int) -> int:
    """The Möbius function, by trial division."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def one_relator_dims(generators: int, relator_weight: int | None, max_weight: int) -> list[int]:
    """Per-weight dims 1..max_weight of the free Lie algebra on `generators`
    degree-0 generators modulo one inert relator of the given lowest weight
    (None: no relator, which is Witt's formula).

    The enveloping algebra has Hilbert series 1/P(t) with
    P(t) = 1 - g t + t^k (Labute), so with s_d the power sums of the inverse
    roots of P, dim_n = (1/n) sum_{d | n} mu(n/d) s_d.  The power sums come
    from Newton's identities, in exact integers.
    """
    poly = [0] * (max_weight + 1)
    poly[0] = 1
    if max_weight >= 1:
        poly[1] -= generators
    if relator_weight is not None and relator_weight <= max_weight:
        poly[relator_weight] += 1
    sums = [0] * (max_weight + 1)
    for d in range(1, max_weight + 1):
        sums[d] = -d * poly[d] - sum(poly[i] * sums[d - i] for i in range(1, d))
    dims = []
    for n in range(1, max_weight + 1):
        total = sum(mobius(n // d) * sums[d] for d in range(1, n + 1) if n % d == 0)
        if total % n:
            raise ArithmeticError(f"non-integral dimension at weight {n}")
        dims.append(total // n)
    return dims


def parse_records(text: str) -> dict[str, str]:
    """`key: value` lines as a dict; duplicate keys are an error."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed record line {line!r}")
        if key in out:
            raise ValueError(f"duplicate record key {key!r}")
        out[key] = value
    return out


def parse_lie_terms(expr: str) -> dict[str, Fraction]:
    """A printed Lie expression as {bracket body: coefficient}.

    The printed form joins terms with " + " / " - "; a term is a body or
    "magnitude body", and bodies contain no spaces.
    """
    if expr == "0":
        return {}
    tokens = expr.split(" ")
    terms: dict[str, Fraction] = {}
    sign = 1
    if tokens[0].startswith("-"):
        sign = -1
        tokens[0] = tokens[0][1:]
    i = 0
    while i < len(tokens):
        coeff = Fraction(1)
        if tokens[i][:1].isdigit():
            coeff = Fraction(tokens[i])
            i += 1
        body = tokens[i]
        i += 1
        if body in terms:
            raise ValueError(f"repeated term {body!r} in {expr!r}")
        terms[body] = sign * coeff
        if i < len(tokens):
            if tokens[i] not in ("+", "-"):
                raise ValueError(f"expected a sign at token {i} of {expr!r}")
            sign = 1 if tokens[i] == "+" else -1
            i += 1
    return terms


def invert_group_word(word: str) -> str:
    """The inverse group word: letters reversed, exponents flipped."""
    out = []
    for piece in reversed(word.split()):
        out.append(piece[:-3] if piece.endswith("^-1") else piece + "^-1")
    return " ".join(out)
