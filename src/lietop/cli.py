"""Command-line front end: parse presentation files, run the computations,
emit deterministic reports.

File grammar (line oriented, # starts a comment):

    generator <name> degree <nat>
    diff <name> = <lie-expr>
    cell <name> degree <nat> attach <lie-expr>
    word <name> = <group-word>
    window weight <nat> degree <nat>
    order <name> > <name> > ...

    lie-expr   ::= '-'? rational? term (('+'|'-') rational? term)*
    term       ::= name | '[' lie-expr ',' lie-expr ']'
                 | 'ad^' nat '(' name ')' '(' lie-expr ')'
    rational   ::= nat ('/' nat)?
    group-word ::= (name | name'^-1')+

A name in a lie-expr resolves to a generator, or to a previously declared
word (standing for the log of that group word).  Exit codes: 0 success, 1
computation-level findings (an --expect mismatch), 2 input errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Mapping
from fractions import Fraction
from importlib import resources

from . import attach as attach_mod
from . import dgl as dgl_mod
from . import freelie, sullivan
from .freelie import (
    Generator,
    LieElement,
    TensorElement,
    TermBudgetExceeded,
    Window,
    bracket,
    check_group_word,
    format_lie,
    generator_element,
    log_group_word,
)

DEFAULT_WINDOW = Window(6, 6)

BUILTIN_EXAMPLES = ["cp2", "torus", "genus2", "lemaire28", "anick29", "wedge-circles"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

SYMBOLS = "[](),+-/=>^"


class Token:
    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name" | "int" | one of SYMBOLS | "end"
        self.text, self.line, self.col = text, line, col


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(Token("name", text[i:j], line_no, col))
            i = j
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line_no, col))
            i = j
        elif ch in SYMBOLS:
            out.append(Token(ch, ch, line_no, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line_no, col)
    out.append(Token("end", "", line_no, len(text) + 1))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            want = what or kind
            got = tok.text or "end of line"
            raise ParseError(f"expected {want}, got {got!r}", tok.line, tok.col)
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "name" or tok.text != word:
            got = tok.text or "end of line"
            raise ParseError(f"expected {word!r}, got {got!r}", tok.line, tok.col)

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def end_of_line(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Expression AST (evaluated after the window is known)
# ---------------------------------------------------------------------------

# Expr = ("name", token) | ("bracket", e1, e2) | ("ad", n, token, e)
#      | ("sum", [(Fraction, Expr), ...])


def _parse_rational(cur: _Cursor) -> Fraction:
    num = int(cur.expect("int").text)
    if cur.peek().kind == "/":
        cur.next()
        den = int(cur.expect("int").text)
        if den == 0:
            tok = cur.tokens[cur.pos - 1]
            raise ParseError("zero denominator", tok.line, tok.col)
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(cur: _Cursor):
    tok = cur.peek()
    if tok.kind == "name":
        if tok.text == "ad" and cur.tokens[cur.pos + 1].kind == "^":
            cur.next()
            cur.next()
            n = int(cur.expect("int").text)
            cur.expect("(")
            name = cur.expect("name")
            cur.expect(")")
            cur.expect("(")
            inner = _parse_expr(cur)
            cur.expect(")")
            return ("ad", n, name, inner)
        cur.next()
        return ("name", tok)
    if tok.kind == "[":
        cur.next()
        left = _parse_expr(cur)
        cur.expect(",")
        right = _parse_expr(cur)
        cur.expect("]")
        return ("bracket", left, right)
    got = tok.text or "end of line"
    raise ParseError(f"expected a term, got {got!r}", tok.line, tok.col)


def _parse_signed_term(cur: _Cursor, sign: int):
    coeff = Fraction(sign)
    if cur.peek().kind == "int":
        coeff *= _parse_rational(cur)
    return coeff, _parse_term(cur)


def _parse_expr(cur: _Cursor):
    terms = []
    sign = 1
    if cur.peek().kind == "-":
        cur.next()
        sign = -1
    terms.append(_parse_signed_term(cur, sign))
    while cur.peek().kind in ("+", "-"):
        sign = 1 if cur.next().kind == "+" else -1
        terms.append(_parse_signed_term(cur, sign))
    return ("sum", terms)


def _parse_group_word(cur: _Cursor, start: Token) -> list[tuple[Token, int]]:
    """The group word that fills the rest of the line, as (letter, exponent)
    pairs; an empty word is reported at `start`."""
    letters: list[tuple[Token, int]] = []
    while not cur.at_end():
        letter = cur.expect("name")
        exponent = 1
        if cur.peek().kind == "^":
            cur.next()
            cur.expect("-")
            one = cur.expect("int")
            if one.text != "1":
                raise ParseError("only exponent -1 is supported", one.line, one.col)
            exponent = -1
        letters.append((letter, exponent))
    if not letters:
        raise ParseError("empty group word", start.line, start.col)
    return letters


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------


class PresentationFile:
    """Parsed directives; expressions stay as ASTs until a window is fixed."""

    def __init__(self):
        self.generators: list[Generator] = []
        self.diffs: dict[str, object] = {}  # generator name -> expr
        self.cells: list[tuple[str, int, object, int, int]] = []  # name, degree, expr, line, col of the name
        self.words: dict[str, list[tuple[str, int]]] = {}  # name -> (letter, exponent) pairs
        self.order: list[str] | None = None
        self.window: Window | None = None


def parse(text: str) -> PresentationFile:
    pf = PresentationFile()
    names: set[str] = set()
    # the generators that diff, word and order directives name, with the
    # message for each; they are checked after the loop, as generators may
    # come later
    refs: list[tuple[Token, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw.partition("#")[0], line_no)
        cur = _Cursor(tokens)
        if cur.at_end():
            continue
        head = cur.expect("name", "a directive")
        if head.text == "generator":
            tok = cur.expect("name")
            name = tok.text
            cur.expect_keyword("degree")
            degree = int(cur.expect("int").text)
            cur.end_of_line()
            if name in names:
                raise ParseError(f"name {name!r} already declared", tok.line, tok.col)
            names.add(name)
            pf.generators.append(Generator(name, degree))
        elif head.text == "diff":
            tok = cur.expect("name")
            cur.expect("=")
            expr = _parse_expr(cur)
            cur.end_of_line()
            if tok.text in pf.diffs:
                raise ParseError(f"second diff for generator {tok.text!r}", tok.line, tok.col)
            pf.diffs[tok.text] = expr
            refs.append((tok, f"diff for unknown generator {tok.text!r}"))
        elif head.text == "cell":
            tok = cur.expect("name")
            name = tok.text
            cur.expect_keyword("degree")
            degree = int(cur.expect("int").text)
            cur.expect_keyword("attach")
            expr = _parse_expr(cur)
            cur.end_of_line()
            if name in names:
                raise ParseError(f"name {name!r} already declared", tok.line, tok.col)
            names.add(name)
            pf.cells.append((name, degree, expr, tok.line, tok.col))
        elif head.text == "word":
            tok = cur.expect("name")
            name = tok.text
            cur.expect("=")
            letters = _parse_group_word(cur, head)
            if name in names:
                raise ParseError(f"name {name!r} already declared", tok.line, tok.col)
            names.add(name)
            pf.words[name] = [(tok.text, exponent) for tok, exponent in letters]
            refs.extend((tok, f"word {name}: unknown generator {tok.text!r}") for tok, _ in letters)
        elif head.text == "window":
            cur.expect_keyword("weight")
            w = int(cur.expect("int").text)
            cur.expect_keyword("degree")
            d = int(cur.expect("int").text)
            cur.end_of_line()
            if pf.window is not None:
                raise ParseError("second window directive", head.line, head.col)
            try:
                pf.window = Window(w, d)
            except ValueError as exc:
                raise ParseError(str(exc), head.line, head.col) from None
        elif head.text == "order":
            order = [cur.expect("name")]
            while cur.peek().kind == ">":
                cur.next()
                order.append(cur.expect("name"))
            cur.end_of_line()
            if pf.order is not None:
                raise ParseError("second order directive", head.line, head.col)
            pf.order = [tok.text for tok in order]
            for i, tok in enumerate(order):
                if tok.text in pf.order[:i]:
                    raise ParseError(f"order repeats generator {tok.text!r}", tok.line, tok.col)
            refs.extend((tok, f"order mentions unknown generator {tok.text!r}") for tok in order)
        else:
            raise ParseError(f"unknown directive {head.text!r}", head.line, head.col)
    if not pf.generators:
        raise ParseError("no generators", 1, 1)
    generators = {g.name for g in pf.generators}
    for tok, message in refs:
        if tok.text not in generators:
            raise ParseError(message, tok.line, tok.col)
    return pf


# ---------------------------------------------------------------------------
# Semantic build
# ---------------------------------------------------------------------------


class BuiltModel:
    def __init__(self, base: dgl_mod.DglPresentation, amap: attach_mod.AttachingMap,
                 attached: dgl_mod.DglPresentation, logs: Mapping[str, LieElement],
                 order: list[Generator] | None, window: Window):
        self.base, self.amap, self.attached = base, amap, attached
        self.logs, self.order, self.window = logs, order, window


def _make_evaluator(gens: tuple[Generator, ...], words: dict[str, list[tuple[Generator, int]]],
                    window: Window):
    """Returns (eval_expr, logs) for one window; logs maps each word name to
    its log, taken when eval_expr or a caller first reads the name."""
    by_name = {g.name: g for g in gens}
    logs = dgl_mod.LazyMapping(words, lambda name: log_group_word(words[name], gens, window))

    def eval_expr(expr) -> LieElement:
        kind = expr[0]
        if kind == "sum":
            out = LieElement(TensorElement.zero(window))
            for coeff, term in expr[1]:
                out = out + coeff * eval_expr(term)
            return out
        if kind == "name":
            tok = expr[1]
            g = by_name.get(tok.text)
            if g is not None:
                return generator_element(g, window)
            if tok.text in logs:
                return logs[tok.text]
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
        if kind == "bracket":
            return bracket(eval_expr(expr[1]), eval_expr(expr[2]))
        if kind == "ad":
            _, n, tok, inner = expr
            g = by_name.get(tok.text)
            if g is None:
                raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
            return freelie.ad_power(generator_element(g, window), n, eval_expr(inner))
        raise AssertionError(kind)

    return eval_expr, logs


def _expr_bounds(by_name: dict[str, Generator], expr, window: Window) -> tuple[int, int]:
    """Syntactic (weight, degree) bound of an expression; word names are
    unbounded series and are capped by the model window."""
    kind = expr[0]
    if kind == "sum":
        w = d = 0
        for _, term in expr[1]:
            tw, td = _expr_bounds(by_name, term, window)
            w, d = max(w, tw), max(d, td)
        return w, d
    if kind == "name":
        g = by_name.get(expr[1].text)
        if g is not None:
            return g.weight, g.degree
        return window.max_weight, window.max_degree
    if kind == "bracket":
        w1, d1 = _expr_bounds(by_name, expr[1], window)
        w2, d2 = _expr_bounds(by_name, expr[2], window)
        return w1 + w2, d1 + d2
    if kind == "ad":
        _, n, tok, inner = expr
        g = by_name.get(tok.text)
        gw, gd = (g.weight, g.degree) if g is not None else (1, 0)
        wi, di = _expr_bounds(by_name, inner, window)
        return n * gw + wi, n * gd + di
    raise AssertionError(kind)


def build(pf: PresentationFile, window: Window | None = None) -> BuiltModel:
    """The model of a parsed file at a window (default: the file's); parse
    has checked every name a directive gives, and each word is checked here,
    once, whether or not anything reads it."""
    if window is None:
        window = pf.window or DEFAULT_WINDOW
    gens = tuple(pf.generators)
    by_name = {g.name: g for g in gens}
    words: dict[str, list[tuple[Generator, int]]] = {}
    for wname, letters in pf.words.items():
        words[wname] = [(by_name[letter], exponent) for letter, exponent in letters]
        check_group_word(words[wname], gens)
    eval_expr, logs = _make_evaluator(gens, words, window)

    diffs = {by_name[name]: eval_expr(expr) for name, expr in pf.diffs.items()}
    base = dgl_mod.DglPresentation(gens, diffs, window)

    cells = []
    for name, degree, expr, line_no, col in pf.cells:
        # evaluate at a window wide enough for the full expression, so the
        # cell inherits the true weight of its target even when the model
        # window truncates the target away
        bw, bd = _expr_bounds(by_name, expr, window)
        if (bw, bd) == (window.max_weight, window.max_degree):
            target = eval_expr(expr)
        else:
            wide = Window(max(bw, window.max_weight), max(bd, window.max_degree))
            target = _make_evaluator(gens, words, wide)[0](expr)
        t = target.value
        if t.is_zero() and degree != 1:
            raise ParseError(f"cell {name} has degree {degree} but its target is zero, "
                             "which attaches in degree 1", line_no, col)
        if not t.is_zero() and t.degree() != degree - 1:
            raise ParseError(
                f"cell {name} has degree {degree} but its target has degree {t.degree()}",
                line_no, col,
            )
        cells.append((name, target))
    amap = attach_mod.AttachingMap(cells)
    attached = attach_mod.attach_cells(base, amap)
    order = None if pf.order is None else [by_name[name] for name in pf.order]
    return BuiltModel(base, amap, attached, logs, order, window)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report:
    """Accumulates (key, value) pairs; renders as text or records."""

    def __init__(self):
        self.pairs: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.pairs.append((key, str(value)))

    def records(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.pairs)

    def text(self) -> str:
        width = max((len(k) for k, _ in self.pairs), default=0)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in self.pairs)


def _report_homology(rep: Report, table: dgl_mod.HomologyTable) -> None:
    for d in table.degrees:
        rep.add(f"homology.{d}.dim", table.dims[d])
        rep.add(f"homology.{d}.stabilized", table.stabilized[d])
        for i, v in enumerate(table.cycles[d]):
            rep.add(f"homology.{d}.rep.{i}", table.complex.format_vector(v, d))


def _report_verdict(rep: Report, prefix: str, v: attach_mod.InertnessVerdict) -> None:
    rep.add(f"{prefix}.status", v.status)
    rep.add(f"{prefix}.injective", v.injective)
    for i, (d, witness) in enumerate(v.witnesses):
        rep.add(f"{prefix}.failing.{i}.degree", d)
        rep.add(f"{prefix}.failing.{i}.witness", v.complex.format_vector(witness, d))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_source(name: str | None) -> tuple[str, str]:
    if name is None:
        raise ValueError("this command needs --file")
    if name in BUILTIN_EXAMPLES:
        data = resources.files("lietop").joinpath(f"examples/{name}.lt").read_text()
        return name, data
    with open(name, "r", encoding="utf-8") as fh:
        return name, fh.read()


def run(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, output text)."""
    parser = argparse.ArgumentParser(
        prog="lietop",
        description="homology and inertness of dgl cell-attachment models",
    )
    parser.add_argument(
        "command",
        choices=["homology", "lcs", "inert", "bch", "logword", "sullivan", "examples"],
    )
    parser.add_argument("args", nargs="*", help="command arguments (bch: two group words; logword: a word name)")
    parser.add_argument("--file", help="presentation file, or a built-in example name")
    parser.add_argument("--window", nargs=2, type=int, metavar=("W", "D"))
    parser.add_argument("--order", nargs="+", help="generator order for the Anick certificate")
    parser.add_argument("--expect", choices=["inert", "not-inert", "inconclusive"])
    parser.add_argument("--format", choices=["text", "records"], default="text")
    parser.add_argument("--kmax", type=int, help="lcs: largest bracket length (default: window weight)")
    parser.add_argument("--max-wedge", type=int, default=3, help="sullivan: wedge-degree cap for tables")
    ns = parser.parse_args(argv)
    if ns.kmax is not None and ns.kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {ns.kmax}")
    if ns.max_wedge < 0:
        raise ValueError(f"--max-wedge must be at least 0, got {ns.max_wedge}")
    for i, name in enumerate(ns.order or ()):
        if name in ns.order[:i]:
            raise ValueError(f"--order repeats generator {name}")

    rep = Report()
    freelie._reset_term_limit_cache()
    freelie.term_limit()  # an invalid LIETOP_MAX_TERMS fails every command

    if ns.command == "examples":
        return 0, "".join(f"# ==== {name} ====\n{_load_source(name)[1]}" for name in BUILTIN_EXAMPLES)

    fname, text = _load_source(ns.file)
    pf = parse(text)
    try:
        window = Window(*ns.window) if ns.window else None
    except ValueError as exc:
        raise ValueError(f"--window {ns.window[0]} {ns.window[1]}: {exc}") from None
    model = build(pf, window)
    window = model.window
    rep.add("command", ns.command)
    rep.add("file", fname)
    rep.add("window.weight", window.max_weight)
    rep.add("window.degree", window.max_degree)

    code = 0
    if ns.command == "homology":
        table = dgl_mod.homology(model.attached)
        _report_homology(rep, table)
    elif ns.command == "lcs":
        if model.amap.cells or model.base.diff:
            raise ValueError("lcs requires a free presentation (no diffs, no cells)")
        k_max = ns.kmax if ns.kmax is not None else window.max_weight
        table = dgl_mod.lcs_dims(model.base, k_max)
        for k in sorted(table):
            for d in sorted(table[k]):
                rep.add(f"lcs.{k}.degree.{d}", table[k][d])
            rep.add(f"lcs.{k}.total", sum(table[k].values()))
    elif ns.command == "inert":
        if not model.amap.cells:
            raise ValueError("inert requires at least one cell directive")
        order = model.order
        if ns.order:
            by_name = {g.name: g for g in model.base.generators}
            missing = [n for n in ns.order if n not in by_name]
            if missing:
                raise ValueError(f"--order mentions unknown generators: {', '.join(missing)}")
            order = [by_name[n] for n in ns.order]
        verdict = attach_mod.inert_homological(model.base, model.amap)
        _report_verdict(rep, "inert", verdict)
        if order is not None:
            # targets were evaluated at expression-wide windows, so the
            # certificate sees the full relators, not their truncations
            relators = [t.value for _, t in model.amap.cells]
            cert = attach_mod.inert_anick(relators, order)
            rep.add("anick.passed", cert.passed)
            for i, w in enumerate(cert.leading):
                rep.add(f"anick.leading.{i}", ".".join(g.name for g in w))
            if cert.violation:
                rep.add("anick.violation", cert.violation)
        if ns.expect:
            expected = {
                "inert": attach_mod.INERT_UP_TO_WINDOW,
                "not-inert": attach_mod.NOT_INERT,
                "inconclusive": attach_mod.INCONCLUSIVE,
            }[ns.expect]
            rep.add("expect", ns.expect)
            if verdict.status != expected:
                rep.add("expect.met", False)
                code = 1
            else:
                rep.add("expect.met", True)
    elif ns.command == "bch":
        if len(ns.args) != 2:
            raise ValueError("bch takes exactly two group words")
        x = _group_word_element(ns.args[0], model, window)
        y = _group_word_element(ns.args[1], model, window)
        rep.add("bch", format_lie(freelie.bch(x, y), model.base.generators))
    elif ns.command == "logword":
        if len(ns.args) != 1:
            raise ValueError("logword takes exactly one word name")
        name = ns.args[0]
        if name not in model.logs:
            raise ValueError(f"no word directive named {name!r}")
        rep.add(f"logword.{name}", format_lie(model.logs[name], model.base.generators))
    elif ns.command == "sullivan":
        data = sullivan.truncation_lie_data(model.attached)
        sd = sullivan.cochains(data)
        for i, (name, deg) in enumerate(sd.basis):
            rep.add(f"sullivan.v.{i}", f"{name}^ degree {deg}")
        for k in sorted(sd.d0):
            img = " + ".join(
                _coeff_name(c, f"{sd.basis[j][0]}^") for j, c in sorted(sd.d0[k].items())
            )
            rep.add(f"sullivan.d0.{sd.basis[k][0]}^", img)
        for k in sorted(sd.d1):
            img = " + ".join(
                _coeff_name(c, f"{sd.basis[i][0]}^*{sd.basis[j][0]}^")
                for (i, j), c in sorted(sd.d1[k].items())
            )
            rep.add(f"sullivan.d1.{sd.basis[k][0]}^", img)
        # cochains decided both through check_sullivan and raises unless both hold
        rep.add("sullivan.d_squared", True)
        rep.add("sullivan.filtration", True)
        left, right = sullivan.semiquadratic_homology(sd, window.max_degree + 1)
        for d in sorted(left):
            rep.add(f"sullivan.h_lambda.{d}", left[d])
        for d in sorted(right):
            rep.add(f"sullivan.h_ker_d1.{d}", right[d])
        if not any(sd.d0.values()):
            wedge = sullivan.wedge_homology(sd, ns.max_wedge)
            for k in sorted(wedge):
                for d in sorted(wedge[k]):
                    rep.add(f"sullivan.wedge.{k}.degree.{d}", wedge[k][d])
    out = rep.records() if ns.format == "records" else rep.text()
    return code, out


def _coeff_name(c: Fraction, body: str) -> str:
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c} {body}"


def _group_word_element(arg: str, model: BuiltModel, window: Window) -> LieElement:
    """The log of a command-line group word, read as line 1 of a word directive."""
    by_name = {g.name: g for g in model.base.generators}
    cur = _Cursor(_tokenize_line(arg, 1))
    letters: list[tuple[Generator, int]] = []
    for tok, exponent in _parse_group_word(cur, cur.peek()):
        g = by_name.get(tok.text)
        if g is None:
            raise ParseError(f"unknown generator {tok.text!r} in group word {arg!r}", tok.line, tok.col)
        letters.append((g, exponent))
    return log_group_word(letters, model.base.generators, window)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, out = run(argv)
    except (ValueError, OSError, TermBudgetExceeded) as exc:
        sys.stderr.write(f"lietop: {exc}\n")
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
