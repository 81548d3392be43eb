"""Independent ground truth for checking the solver's verdicts.

The oracles share no code paths with the hierarchy solver: normal-closure
membership is certified by explicit products of conjugates, metabelian
Baumslag-Solitar groups by exact affine maps, the modular group by integer
matrices, and primitivity by Whitehead moves.  All arithmetic is exact.
The desk-scale check suites at the end are the one part that drives the
solver: they ask it for verdicts and test them against classical theorems
(the conjugacy theorem for roots, commutator roots, the Freiheitssatz).
"""

import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import words
from .errors import ResourceExhausted
from .presentations import make_presentation
from .solver import Solver, Verdict
from .words import (
    Alphabet,
    concat,
    cyclic_reduce,
    cyclically_equal_up_to_inversion,
    exponent_vector,
    invert,
    multiply,
    reduce,
    substitute,
)


# ---------------------------------------------------------------------------
# normal closure enumeration

@dataclass(frozen=True)
class NclCertificate:
    """Product of conjugates of the relator equal to the target word."""

    factors: tuple  # sequence of (conjugator word, +-1)

    def expand(self, relator):
        """The product the factors name, freely reduced; total on any
        conjugator words."""
        pieces = []
        for conj, eps in self.factors:
            pieces += (conj, relator if eps == 1 else invert(relator),
                       invert(conj))
        return concat(pieces)


def _all_reduced_words(num_gens, max_len):
    """Every freely reduced word of length <= max_len, shortest first."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in range(num_gens):
                for s in (1, -1):
                    lt = s * (g + 1)
                    if w and w[-1] == -lt:
                        continue
                    nxt.append(w + (lt,))
        out.extend(nxt)
        frontier = nxt
    return out


#: ``_products`` keeps tables holding at most this many products in all,
#: evicting the least recently used table first; the newest table always
#: stays
PRODUCT_TABLES = 2**17

_tables = {}
_tables_lock = threading.Lock()


def _products(size, relator, conj_len, factors):
    """Every product of at most ``factors`` conjugates ``g r^+-1 g^-1``
    (``|g| <= conj_len``) of ``relator`` over ``size`` generators, mapped to
    the factor tags of a fewest-factor product, fewest factors first, and
    the inverse of each product in the same order.

    The table is closed under inversion, so each inverse is the table's own
    key object.  Both are shared by every caller with the same arguments:
    read them, never mutate them.  The cache is safe to share between
    threads: one lock covers its lookup, the build of a missing table, its
    insert and the evictions.
    """
    key = (size, relator, conj_len, factors)
    with _tables_lock:
        if key in _tables:
            out = _tables[key] = _tables.pop(key)
            return out
        out = _tables[key] = _build_products(*key)
        held = sum(len(tags) for tags, _ in _tables.values())
        while held > PRODUCT_TABLES and len(_tables) > 1:
            held -= len(_tables.pop(next(iter(_tables)))[0])
        return out


def _build_products(size, relator, conj_len, factors):
    conjugates = []
    seen = set()
    for g in _all_reduced_words(size, conj_len):
        for eps in (1, -1):
            r = relator if eps == 1 else invert(relator)
            c = multiply(g, multiply(r, invert(g)))
            if c not in seen:
                seen.add(c)
                conjugates.append((c, (g, eps)))
    tags = {(): ()}
    layer = [()]
    for _ in range(factors):
        nxt = []
        for cur in layer:
            for c, tag in conjugates:
                new = multiply(cur, c)
                if new not in tags:
                    tags[new] = tags[cur] + (tag,)
                    nxt.append(new)
        layer = nxt
    own = {q: q for q in tags}
    return tags, [own[invert(q)] for q in tags]


def ncl_semidecide(pres, w, conj_len, max_factors):
    """Search for ``w`` as a product of <= max_factors conjugates of r.

    The conjugates are ``g r^+-1 g^-1`` with ``|g| <= conj_len``.  The search
    meets in the middle: it looks for a split ``w = p q`` with both halves
    among the products of at most ``ceil(max_factors/2)`` conjugates, one
    product ``w q^-1`` and one lookup per ``q``.  That table does not
    depend on ``w``; it is built once per (rank, relator, conj_len, half)
    and stores each product's inverse beside it, so the scan inverts
    nothing.  Tables are kept in an LRU cache bounded at
    :data:`PRODUCT_TABLES` products held in all.  The search is exhaustive
    within its budget, and a hit returns a certificate with the fewest
    factors any product of conjugates within budget has (always re-verified
    by the caller via :meth:`NclCertificate.expand`); a miss returns None,
    which only means "not found within budget".  A negative budget raises
    ``ValueError``, and a letter outside the alphabet ``UnknownGenerator``,
    as :meth:`.Solver.word_problem` does.
    """
    if conj_len < 0 or max_factors < 0:
        raise ValueError(f"search budgets must be nonnegative: conj_len "
                         f"{conj_len}, max_factors {max_factors}")
    w = words.validate_word(pres.alphabet, w)
    if not w:
        return NclCertificate(())
    half = (max_factors + 1) // 2
    tags, inverses = _products(pres.alphabet.size, pres.relator, conj_len,
                               half)
    # w = p q with q fewest factors first: a fewest-factor product of k
    # conjugates splits into its first min(k, half) and the rest, and p
    # never has more than half, so the first split found has k factors
    most = max_factors - half
    for q_inv, q_tags in zip(inverses, tags.values()):
        if len(q_tags) > most:
            break
        p_tags = tags.get(multiply(w, q_inv))
        if p_tags is not None:
            return NclCertificate(p_tags + q_tags)
    return None


# ---------------------------------------------------------------------------
# modular group

@dataclass(frozen=True)
class ProjectiveMatrix:
    """2x2 integer matrix of determinant 1 modulo +-I.

    The stored representative has its first nonzero entry (reading a, b,
    c, d) positive.
    """

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def of(cls, a, b, c, d):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1")
        for x in (a, b, c, d):
            if x != 0:
                if x < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        return cls(a, b, c, d)

    @classmethod
    def identity(cls):
        return cls.of(1, 0, 0, 1)

    def __mul__(self, other):
        return ProjectiveMatrix.of(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def inverse(self):
        return ProjectiveMatrix.of(self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)


#: order-2 and order-3 generators of PSL2(Z); with these the commutator
#: [a,b] evaluates to (2,1;1,1), the corrected beta_0 transformation
#: (2z+1)/(z+1).
MAT_A = ProjectiveMatrix.of(0, -1, 1, 0)
MAT_B = ProjectiveMatrix.of(0, -1, 1, 1)


def _images(m1, m2):
    """Letter images for a two-letter alphabet with a -> m1, b -> m2."""
    return {1: m1, -1: m1.inverse(), 2: m2, -2: m2.inverse()}


def _product(w, images, identity):
    """The product of the images of w's letters; letters multiply like the
    group elements they name, so the first letter is the outermost map."""
    out = identity
    for lt in w:
        out = out * images[lt]
    return out


_PSL2_IMAGES = _images(MAT_A, MAT_B)


def psl2_eval(w):
    """Evaluate a word over a two-letter alphabet in PSL2(Z) with a -> MAT_A,
    b -> MAT_B."""
    return _product(w, _PSL2_IMAGES, ProjectiveMatrix.identity())


def free_at_length(m1, m2, max_len):
    """True iff no nonempty reduced word of length <= max_len in m1, m2
    evaluates to the projective identity.

    Meets in the middle: a relation of length L is two distinct reduced
    words of lengths <= ceil(L/2) with one value, and two such words u, w
    give the nonempty relation u w^-1, of length <= |u| + |w|.
    """
    images = _images(m1, m2)
    first = {}
    for w in _all_reduced_words(2, (max_len + 1) // 2):
        m = _product(w, images, ProjectiveMatrix.identity())
        u = first.setdefault(m, w)
        if u is not w and len(u) + len(w) <= max_len:
            return False
    return True


# ---------------------------------------------------------------------------
# rank-2 primitivity

#: the rank-2 Whitehead automorphisms that move one generator, as the
#: letter tables :func:`.words.substitute` takes
_WHITEHEAD_AUTOS = [
    {g: image, -g: invert(image)}
    for g, x in ((1, 2), (2, 1)) for eps in (1, -1)
    for image in ((g, eps * x), (-eps * x, g), (-eps * x, g, eps * x))]


def is_primitive_rank2(w):
    """Is ``w`` part of some free basis of the rank-2 free group?

    Greedy Whitehead reduction on the cyclic word: primitives of cyclic
    length > 1 always admit a strictly shortening Whitehead move, so the
    greedy minimum has length 1 exactly for primitive inputs.
    """
    core = cyclic_reduce(reduce(w))
    p, q = exponent_vector(core, 2)
    if gcd(abs(p), abs(q)) != 1:
        return False
    while len(core) > 1:
        for auto in _WHITEHEAD_AUTOS:
            cand = cyclic_reduce(substitute(core, auto))
            if len(cand) < len(core):
                core = cand
                break
        else:
            return False
    return len(core) == 1


# ---------------------------------------------------------------------------
# affine representation of BS(1, n)

@dataclass(frozen=True)
class AffineMap:
    """Exact rational map x -> scale * x + offset."""

    scale: Fraction
    offset: Fraction

    @classmethod
    def identity(cls):
        return cls(Fraction(1), Fraction(0))

    def __mul__(self, other):
        """self after other: x -> self(other(x))."""
        return AffineMap(self.scale * other.scale,
                         self.scale * other.offset + self.offset)

    def inverse(self):
        return AffineMap(1 / self.scale, -self.offset / self.scale)

    def is_identity(self):
        return self.scale == 1 and self.offset == 0


def affine_eval_bs1n(w, n):
    """Evaluate a two-letter word with a -> (x -> n*x), b -> (x -> x+1).

    Faithful on BS(1, n) = <a, b | a b a^-1 b^-n>, so the result is the
    identity map exactly for trivial words.  Letters multiply like the
    group elements they name: the first letter is the outermost map.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    images = _images(AffineMap(Fraction(n), Fraction(0)),
                     AffineMap(Fraction(1), Fraction(1)))
    return _product(w, images, AffineMap.identity())


# ---------------------------------------------------------------------------
# enumeration helpers and desk-scale check suites

def cyclically_reduced_words(num_gens, max_len):
    """All nonempty cyclically reduced words of length <= max_len."""
    out = []
    for w in _all_reduced_words(num_gens, max_len):
        if w and words.is_cyclically_reduced(w):
            out.append(w)
    return out


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    hits: int = 0
    violations: list = field(default_factory=list)
    exhausted: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def lines(self):
        out = [f"{self.name}: {self.checked} cases, {self.hits} hits,"
               f" {len(self.violations)} violations,"
               f" {len(self.exhausted)} resource-exhausted"]
        out.extend(f"  VIOLATION: {v}" for v in self.violations)
        out.extend(f"  EXHAUSTED: {e}" for e in self.exhausted)
        out.append("PASS" if self.passed else "FAIL")
        return out


def check_conjugacy_theorem(max_len, solver=None):
    """Mutually-rooted word pairs must be cyclically equal up to inversion."""
    if max_len > 5:
        raise ValueError("desk-scale check: max_len <= 5")
    solver = solver or Solver()
    alphabet = Alphabet(("a", "b"))
    pool = cyclically_reduced_words(2, max_len)
    report = CheckReport(name=f"conjugacy-theorem max_len={max_len}")
    root = {}
    for s in pool:
        for r in pool:
            try:
                root[(s, r)] = solver.is_root(s, r, alphabet)
            except ResourceExhausted:
                report.exhausted.append((s, r))
                root[(s, r)] = None
    for r1 in pool:
        for r2 in pool:
            report.checked += 1
            if root.get((r1, r2)) and root.get((r2, r1)):
                report.hits += 1
                if not cyclically_equal_up_to_inversion(r1, r2):
                    report.violations.append((r1, r2))
    return report


def check_commutator_roots(max_len, solver=None):
    """Roots of the commutator are primitive or the commutator itself."""
    if max_len > 5:
        raise ValueError("desk-scale check: max_len <= 5")
    solver = solver or Solver()
    alphabet = Alphabet(("a", "b"))
    comm = (1, 2, -1, -2)
    report = CheckReport(name=f"commutator-roots max_len={max_len}")
    for s in cyclically_reduced_words(2, max_len):
        report.checked += 1
        try:
            if not solver.is_root(s, comm, alphabet):
                continue
        except ResourceExhausted:
            report.exhausted.append(s)
            continue
        report.hits += 1
        if not (is_primitive_rank2(s)
                or cyclically_equal_up_to_inversion(s, comm)):
            report.violations.append(s)
    return report


def random_reduced_word(rng, num_gens, length):
    """Uniformly random freely reduced word of the exact given length."""
    out = []
    letters = [s * (g + 1) for g in range(num_gens) for s in (1, -1)]
    for _ in range(length):
        choices = [lt for lt in letters if not out or lt != -out[-1]]
        out.append(rng.choice(choices))
    return tuple(out)


def random_cyclically_reduced_word(rng, num_gens, length):
    """Rejection-sampled cyclically reduced word of the given length."""
    while True:
        w = random_reduced_word(rng, num_gens, length)
        if words.is_cyclically_reduced(w):
            return w


def check_freiheitssatz(relators=200, words_per_relator=50, relator_len=6,
                        seed=0, solver=None):
    """Nontrivial elements of the subgroup on a, b stay nontrivial.

    Relators ``r`` are random cyclically reduced words of length
    6..``relator_len`` in which each of a, b, c occurs at least twice, so
    no Tietze move decides the top node (``ValueError`` below length 6).
    A probe is a nontrivial commutator of random reduced words over a, b of
    length 1..10 with ``g r^+-1 g^-1`` (``|g| <= 2``) spliced in: the same
    element, but holding c and with the exponent sums of ``r^+-1``, so
    neither the solver's Freiheitssatz exit nor its abelian test can answer
    it at the top node.
    """
    if relator_len < 6:
        raise ValueError(f"relator_len must be at least 6, got {relator_len}")
    rng = random.Random(seed)
    solver = solver or Solver()
    alphabet = Alphabet(("a", "b", "c"))
    report = CheckReport(name=f"freiheitssatz relators={relators} "
                              f"words={words_per_relator} seed={seed}")
    for _ in range(relators):
        r = ()
        while any(r.count(a) + r.count(-a) < 2 for a in (1, 2, 3)):
            r = random_cyclically_reduced_word(
                rng, 3, rng.randint(6, relator_len))
        pres = make_presentation(alphabet, r)
        for _ in range(words_per_relator):
            comm = ()
            while not comm:
                u = random_reduced_word(rng, 2, rng.randint(1, 10))
                v = random_reduced_word(rng, 2, rng.randint(1, 10))
                comm = concat((u, v, invert(u), invert(v)))
            g = random_reduced_word(rng, 3, rng.randint(0, 2))
            k = rng.randint(0, len(comm))
            w = concat((comm[:k], g, rng.choice((r, invert(r))), invert(g),
                        comm[k:]))
            report.checked += 1
            try:
                verdict = solver.word_problem(pres, w)
            except ResourceExhausted:
                report.exhausted.append((r, w))
                continue
            report.hits += 1
            if verdict is not Verdict.NONTRIVIAL:
                report.violations.append((r, w))
    return report


def check_modular_group():
    """Desk-scale validation of the modular-group matrix pair."""
    report = CheckReport(name="modular-group")

    def item(label, ok):
        report.checked += 1
        if ok:
            report.hits += 1
        else:
            report.violations.append(label)

    item("a^2 projectively trivial", (MAT_A * MAT_A).is_identity())
    item("b^3 projectively trivial",
         (MAT_B * MAT_B * MAT_B).is_identity())
    beta0 = psl2_eval((1, 2, -1, -2))
    beta0_rev = psl2_eval((2, 1, -2, -1))
    expected = {ProjectiveMatrix.of(2, 1, 1, 1),
                ProjectiveMatrix.of(1, -1, -1, 2)}
    item("commutator pair matches (2z+1)/(z+1) and (-z+1)/(z-2)",
         {beta0, beta0_rev} == expected)
    item("the two commutators are mutual inverses",
         beta0 * beta0_rev == ProjectiveMatrix.identity())
    # the commutator subgroup is free on beta0 = [a,b] and beta1 = [a,b^-1]
    # (beta0's own inverse obviously cannot be its free partner)
    beta1 = psl2_eval((1, -2, -1, 2))
    item("no relation among beta0, beta1 up to length 12",
         free_at_length(beta0, beta1, 12))
    return report
