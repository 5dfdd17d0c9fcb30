"""Free-loop variation tables and the numeric dual pairing on a punctured plane.

The fiber topology is modeled by four punctures on the real axis; the
fundamental-group generators are non-crossing lassos from a common base
point.  A one-form with one logarithmic prefactor pairs with words in the
generators; the value is computed by contour integration with the log
branch continued along the path.  The commutator of the first two lassos is
null-homologous yet pairs to -4 pi^2, which is the computable obstruction
to expressing the associated generating function through cycle integrals.
"""
from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np


class WordError(ValueError):
    pass


class PairingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LoopWord:
    """Freely reduced word over named generators with integer exponents."""
    letters: tuple    # ((name, exp), ...) with exp in {-1, +1} after expansion

    @classmethod
    def from_syllables(cls, syllables):
        out = []
        for name, exp in syllables:
            if exp == 0:
                continue
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                out.append((name, step))
        return cls(tuple(_free_reduce(out)))

    @classmethod
    def parse(cls, text: str) -> "LoopWord":
        """Grammar: letters d g1 g2 g3, each with an optional ' (inverse) or
        ^n / ^-n (n digits), commutator [a,b]; whitespace or * may separate
        tokens."""
        return _parse_word(text)

    def __mul__(self, other: "LoopWord") -> "LoopWord":
        return LoopWord(tuple(_free_reduce(list(self.letters) + list(other.letters))))

    def inverse(self) -> "LoopWord":
        return LoopWord(tuple((n, -e) for n, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> "LoopWord":
        w = list(self.letters)
        while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
            w = w[1:-1]
        return LoopWord(tuple(w))

    def conjugate_equal(self, other: "LoopWord") -> bool:
        a = self.cyclic_reduce().letters
        b = other.cyclic_reduce().letters
        if len(a) != len(b):
            return False
        if not a:
            return True
        for s in range(len(a)):
            if a[s:] + a[:s] == b:
                return True
        return False

    def exponent_sums(self, names) -> tuple:
        sums = {n: 0 for n in names}
        for n, e in self.letters:
            if n not in sums:
                raise WordError(f"unknown generator {n!r}")
            sums[n] += e
        return tuple(sums[n] for n in names)

    def display(self) -> str:
        if not self.letters:
            return "1"
        runs = ((n, e * len(list(run))) for (n, e), run in itertools.groupby(self.letters))
        return " ".join(n if tot == 1 else f"{n}^{tot}" for n, tot in runs)


def _free_reduce(letters):
    out = []
    for item in letters:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    return out


# A generator name with an optional inverse mark or exponent, or one other
# character ([ , ] or an error); whitespace and * between tokens are skipped.
_TOKEN = re.compile(r"(\w+)('|\^-?\d+)?|([^\s*])")


def _parse_word(text: str):
    tokens = [m.groups() for m in _TOKEN.finditer(text)]
    word, i = _parse_product(tokens, 0)
    if i < len(tokens):
        raise WordError(f"unexpected {tokens[i][2]!r} in word")
    return word


def _parse_product(tokens, i):
    """The product of the generators and commutators from tokens[i] up to
    the first token that is neither; returns it and that token's index."""
    out = LoopWord(())
    while i < len(tokens):
        name, power, char = tokens[i]
        if char == "[":
            a, i = _parse_product(tokens, i + 1)
            b, i = _parse_product(tokens, _expect(tokens, i, ","))
            i = _expect(tokens, i, "]")
            out = out * a * b * a.inverse() * b.inverse()
            continue
        if char:
            break
        if name not in GENERATORS:
            raise WordError(f"unknown generator {name!r}")
        exp = -1 if power == "'" else int(power[1:]) if power else 1
        out = out * LoopWord.from_syllables([(name, exp)])
        i += 1
    return out, i


def _expect(tokens, i, char):
    if i == len(tokens) or tokens[i][2] != char:
        raise WordError(f"commutator needs [a,b], missing {char!r}")
    return i + 1


GENERATORS = ("d", "g1", "g2", "g3")

W = LoopWord.parse

# Variation tables: the action (monodromy - id) on stored free-homotopy
# classes, transcribed from the geometric computation of the degenerations.
# A word maps through the table entry whose class it matches up to
# conjugacy; classes in the kernel return the empty word.
_VAR_TABLES = {
    "d4_l0": [
        (W("d"), W("g1 g2 g3")),
        (W("g1 g2 g3"), W("[g1,g2]")),
        (W("[g1,g2]"), W("")),
    ],
    # Quartic tables, transcribed from the pictures of the two
    # degenerations; not pinned by displayed formulas, so used only for
    # structural checks (provenance note in the repository ledger).
    "a3_l0": [
        (W("g1"), W("")),            # the two vanishing cycles at the inner level
        (W("g2"), W("")),
        (W("g3"), W("g1 g2")),       # the connecting cycle gains both vanishing ones
        (W("g1 g2"), W("")),
    ],
    "a3_l14": [
        (W("g1"), W("g3")),          # each center cycle gains the saddle cycle
        (W("g2"), W("g3")),
        (W("g3"), W("")),
    ],
}


def var(word: LoopWord, twist: str) -> LoopWord:
    """Variation of a stored free-homotopy class under the named twist."""
    table = _VAR_TABLES.get(twist)
    if table is None:
        raise WordError(f"unknown twist {twist!r}")
    for src, img in table:
        if word.conjugate_equal(src):
            return img
    if word.is_identity():
        return word
    raise WordError(f"no stored variation for {word.display()!r} under {twist!r}")


def homology_class(word: LoopWord) -> tuple:
    """Exponent sums per generator (the image in first homology)."""
    return word.exponent_sums(GENERATORS)


# ---------------------------------------------------------------------------
# The punctured-plane model and the pairing
# ---------------------------------------------------------------------------

@dataclass
class PuncturedModel:
    """Punctures on the real axis with lasso representatives from below."""
    punctures: tuple = (-3.0 + 0j, -1.0 + 0j, 1.0 + 0j, 3.0 + 0j)
    base: complex = -5j
    radius: float = 0.35
    approach_jitter: tuple = (0.0, 0.0, 0.0, 0.0)
    radius_scale: tuple = (1.0, 1.0, 1.0, 1.0)

    def lasso(self, index: int, sign: int):
        """Piecewise path for one generator: stem, circle, stem back."""
        z = self.punctures[index]
        r = self.radius * self.radius_scale[index]
        start_angle = -math.pi / 2
        anchor = z + r * cmath.exp(1j * start_angle) + self.approach_jitter[index]
        segs = [("line", self.base, anchor)]
        segs.append(("arc", z, r, start_angle, start_angle + 2 * math.pi * sign))
        segs.append(("line", anchor, self.base))
        return segs

    def word_path(self, word: LoopWord):
        segs = []
        for name, exp in word.letters:
            idx = GENERATORS.index(name)
            segs.extend(self.lasso(idx, exp))
        return segs


def _subdivide(segs, max_len=0.25, max_turn=math.pi / 8):
    """Flatten to short straight pieces with bounded length and turning."""
    pts = []
    for seg in segs:
        if seg[0] == "line":
            _, a, b = seg
            n = max(2, int(abs(b - a) / max_len) + 1)
            chunk = [a + (b - a) * i / n for i in range(n + 1)]
        else:
            _, z, r, a0, a1 = seg
            n = max(4, int(abs(a1 - a0) / max_turn) + 1)
            chunk = [z + r * cmath.exp(1j * (a0 + (a1 - a0) * i / n))
                     for i in range(n + 1)]
        if pts and chunk and abs(pts[-1] - chunk[0]) < 1e-12:
            pts.extend(chunk[1:])
        else:
            pts.extend(chunk)
    return pts


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def pair_with_form(word: LoopWord, model: PuncturedModel = None,
                   branch_offset: int = 0) -> complex:
    """Contour integral of ln((z-z1)/(z-z3)) (1/(z-z2) - 1/(z-z1)) dz.

    The word must satisfy the two classical well-definedness conditions:
    the residue part must integrate to zero along it (equal windings about
    the second and first punctures) and the logarithm must return to its
    branch (equal windings about the first and third).  Violations raise
    PairingError naming the failed condition.
    """
    model = model or PuncturedModel()
    n = homology_class(word)
    if n[2] != n[1]:
        raise PairingError(
            "residue one-form does not close along the word (winding g2 != g1)")
    if n[1] != n[3]:
        raise PairingError(
            "logarithm is not single-valued along the word (winding g1 != g3)")
    if word.is_identity():
        return 0.0 + 0.0j
    z1, z2, z3 = model.punctures[1], model.punctures[2], model.punctures[3]
    pts = _subdivide(model.word_path(word))
    # continuous branch of w = ln((z - z1)/(z - z3)) along the path
    w0 = cmath.log((pts[0] - z1) / (pts[0] - z3)) + 2j * math.pi * branch_offset
    total = 0.0 + 0.0j
    w_run = w0
    for a, b in zip(pts[:-1], pts[1:]):
        # branch increment over the short segment (principal on the ratio)
        step = cmath.log(((b - z1) * (a - z3)) / ((a - z1) * (b - z3)))
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        acc = 0.0 + 0.0j
        for xi, wt in zip(_GL_NODES, _GL_WEIGHTS):
            z = mid + half * xi
            wz = w_run + cmath.log(((z - z1) * (a - z3)) / ((a - z1) * (z - z3)))
            acc += wt * wz * (1.0 / (z - z2) - 1.0 / (z - z1))
        total += acc * half
        w_run += step
    return total
