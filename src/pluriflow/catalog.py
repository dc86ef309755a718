"""Built-in catalog of the reference Hermitian structures.

Entries are embedded in code so the command-line tool is self-contained.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import numpy as np

from .almostabelian import AlmostAbelianData
from .brackets import LieBracket
from .hermitian import HermitianFrame

__all__ = ["CatalogEntry", "catalog_names", "get_entry", "s_ab_data", "kodaira_bracket"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "almost_abelian" | "nilpotent"
    data: object  # AlmostAbelianData or (LieBracket, HermitianFrame)
    expected: dict


def s_ab_data(a: float, b: float) -> AlmostAbelianData:
    """6-dimensional almost-abelian solvable family; SKT with k = 1 for a, b != 0."""
    A = np.array(
        [
            [-a / 2, 0.0, 0.0, 0.0],
            [0.0, 0.0, b, 0.0],
            [0.0, -b, 0.0, 0.0],
            [0.0, 0.0, 0.0, -a / 2],
        ]
    )
    return AlmostAbelianData.with_standard_j1(a, np.zeros(4), A)


def kodaira_bracket():
    """Heisenberg x R bracket mu(e1, e2) = e3 with block complex structure."""
    mu = LieBracket.from_entries(4, [(0, 1, 2, 1.0)])
    frame = HermitianFrame.pairwise(4)
    return mu, frame


def _ten_dim(v_tail: float) -> AlmostAbelianData:
    A = np.diag([-1.0] * 6 + [0.0] * 2)
    v = np.zeros(8)
    v[6] = v[7] = v_tail
    return AlmostAbelianData(2.0, v, A, HermitianFrame.pairwise(8).J)


def _entries():
    yield CatalogEntry(
        name="kodaira",
        kind="nilpotent",
        data=kodaira_bracket(),
        expected={"terminal": "FIXED_POINT", "tr_P_limit": -0.5},
    )
    yield CatalogEntry(
        name="shrink10",
        kind="almost_abelian",
        data=_ten_dim(0.0),
        expected={"case": "vi", "kind": "SHRINKING", "alpha": 1.0, "T": 0.5, "k": 3},
    )
    yield CatalogEntry(
        name="steady10",
        kind="almost_abelian",
        data=_ten_dim(1.0),
        expected={"case": "v", "kind": "STEADY", "alpha": 0.0, "k": 3},
    )
    yield CatalogEntry(
        name="s_ab(1, pi/2)",
        kind="almost_abelian",
        data=s_ab_data(1.0, np.pi / 2),
        expected={"case": "iii", "unimodular": True, "kind": "EXPANDING", "alpha": -0.25, "k": 1},
    )


_CATALOG = {e.name: e for e in _entries()}
_SAB_RE = re.compile(r"s_ab\(([^,]+),(.+)\)")


_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _num(tok: str) -> float:
    """Value of an arithmetic token: numbers, pi, unary +-, binary + - * / and parentheses."""
    tok = tok.strip()

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name) and node.id == "pi":
            return np.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](value(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](value(node.left), value(node.right))
        raise ValueError(f"cannot parse numeric token {tok!r}")

    # CPython reports over-deep nesting as MemoryError or RecursionError
    try:
        x = float(value(ast.parse(tok, mode="eval").body))
    except (SyntaxError, ZeroDivisionError, OverflowError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot parse numeric token {tok!r}") from exc
    if not np.isfinite(x):
        raise ValueError(f"numeric token {tok!r} is not finite")
    return x


def catalog_names():
    return sorted(_CATALOG)


def get_entry(name: str) -> CatalogEntry:
    name = name.strip()
    if name in _CATALOG:
        return _CATALOG[name]
    m = _SAB_RE.fullmatch(name)
    if m:
        a, b = _num(m.group(1)), _num(m.group(2))
        return CatalogEntry(
            name=name,
            kind="almost_abelian",
            data=s_ab_data(a, b),
            expected={"case": "iii", "kind": "EXPANDING", "alpha": -a * a / 4},
        )
    raise KeyError(f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}")
