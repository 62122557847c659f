"""Text formats: cycle notation, group-spec files, multiset files.

Group-spec files carry one permutation per line in disjoint-cycle notation
over 1-based points, e.g. ``(1 2 3)(4 5)``.  Blank lines are ignored and
``#`` starts a comment.  Multiset files use the same cycle notation with an
optional ``* multiplicity`` suffix per line.  Both kinds of file take their
degree by one rule: the largest point mentioned, raised to a ``degree N``
header line (which may not be smaller) and to the caller's floor.
"""

from __future__ import annotations

import re

from .permutations import Permutation

_CYCLE_RE = re.compile(r"\(([0-9\s,]*)\)")
_DEGREE_RE = re.compile(r"^degree\s+(\d+)$", re.IGNORECASE)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_cycle_text(text: str) -> list[list[int]]:
    """Parse ``(1 2 3)(4 5)`` into 0-based cycles; ``()`` is the identity."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    matched = "".join(m.group(0) for m in _CYCLE_RE.finditer(text))
    if matched.replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        points = [int(tok) for tok in body]
        if any(p < 1 for p in points):
            raise ValueError(f"points are 1-based, got {points} in {text!r}")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point inside a cycle: {text!r}")
        if points:
            cycles.append([p - 1 for p in points])
    return cycles


def permutation_from_text(text: str, degree: int | None = None) -> Permutation:
    cycles = parse_cycle_text(text)
    needed = max((max(c) + 1 for c in cycles), default=1)
    if degree is None:
        degree = needed
    elif degree < needed:
        raise ValueError(f"degree {degree} too small for {text!r}")
    return Permutation.from_cycles(cycles, degree)


def permutation_to_text(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt + 1) for pt in c) + ")" for c in cycles)


def _parse_lines(text: str) -> tuple[list[str], int | None]:
    header_degree = None
    lines = []
    for raw in text.splitlines():
        line = _strip_comment(raw)
        if not line:
            continue
        m = _DEGREE_RE.match(line)
        if m:
            header_degree = int(m.group(1))
            continue
        lines.append(line)
    return lines, header_degree


def _degree(cycle_lists: list[list[list[int]]], header: int | None, floor: int | None) -> int:
    """The degree of a file's permutations: the largest point used, raised
    to the ``degree N`` header and to the caller's floor.  A header below
    the largest point is refused."""
    needed = max((max(c) + 1 for cycles in cycle_lists for c in cycles), default=1)
    if header is not None and header < needed:
        raise ValueError(f"declared degree {header} too small for the points used")
    return max(needed, header or 1, floor or 1)


def parse_group_text(text: str, degree: int | None = None) -> list[Permutation]:
    """Parse a group-spec file body into its generator list.

    A caller-supplied ``degree`` acts as a floor, so a subgroup file can be
    read in the context of a larger parent group; a ``degree N`` header in
    the file still wins when larger.
    """
    lines, header_degree = _parse_lines(text)
    if not lines:
        raise ValueError("no permutations found in group spec")
    cycle_lists = [parse_cycle_text(line) for line in lines]
    degree = _degree(cycle_lists, header_degree, degree)
    return [Permutation.from_cycles(cycles, degree) for cycles in cycle_lists]


def parse_multiset_text(text: str, degree: int | None = None) -> list[tuple[Permutation, int]]:
    """Parse a multiset file into (permutation, multiplicity) entries, with
    the degree rule of ``parse_group_text``."""
    lines, header_degree = _parse_lines(text)
    if not lines:
        raise ValueError("no entries found in multiset spec")
    cycle_lists, mults = [], []
    for line in lines:
        body, _, mult_text = line.rpartition("*") if "*" in line else (line, "", "1")
        mult_text = mult_text.strip()
        if not (mult_text.isascii() and mult_text.isdigit() and int(mult_text) > 0):
            raise ValueError(f"multiplicity must be a positive integer: {line!r}")
        cycle_lists.append(parse_cycle_text(body))
        mults.append(int(mult_text))
    degree = _degree(cycle_lists, header_degree, degree)
    return [(Permutation.from_cycles(c, degree), m) for c, m in zip(cycle_lists, mults)]


def multiset_to_text(entries) -> str:
    lines = []
    for p, mult in entries:
        suffix = f" * {mult}" if mult != 1 else ""
        lines.append(permutation_to_text(p) + suffix)
    return "\n".join(lines) + "\n"
