"""Seeded query streams with independently computed expected answers.

Each workload is an endless stream of ``(query, expected)`` pairs drawn from
``random.Random(seed)``.  A query is a list of strings and small ints, the
only thing the worker process ever sees; the expected answer stays here.

No expected answer comes from the solver.  The sources are:

* trivial words built as products of conjugates of the relator;
* faithful maps: exponent vectors for Z^2, ``affine_eval_bs1n`` for
  ``BS(1, n)`` and the normal form ``a^m b^n`` of the Klein bottle group;
* a non-identity image in a finite quotient: ``psl2_eval`` for the trefoil
  ``a^2 = b^3`` and fixed permutation pairs for the other two-generator
  relators;
* the Freiheitssatz: a nonempty reduced word missing a generator of the
  relator is nontrivial;
* abelianization: a word whose exponent vector is not an integer multiple
  of the relator's is nontrivial, and a word whose exponents outside a
  subset ``S`` are not those of a power of the relator lies outside the
  Magnus subgroup ``<S>``;
* membership in ``<a>`` or ``<b>`` of ``BS(1, n)`` read off the affine map;
* members built from a reduced word ``v`` over ``S``: the Magnus subgroup is
  free on ``S``, so the witness must be ``v`` itself.

A draw is rejected only when none of these sources answers it.  Free-group
word algebra is implemented here, not imported, so that the expected
answers share no code with the program under test.
"""

import random

from onerelator.oracles import NclCertificate, affine_eval_bs1n, psl2_eval


# ---------------------------------------------------------------------------
# free-group words: tuples of nonzero ints, +(g+1) is generator g

def reduce(letters):
    out = []
    for lt in letters:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def invert(w):
    return tuple(-lt for lt in reversed(w))


def random_word(rng, gens, length):
    """Random freely reduced word of the given length over generator ids."""
    out = []
    while len(out) < length:
        lt = rng.choice(gens) + 1
        if rng.random() < 0.5:
            lt = -lt
        if not out or out[-1] != -lt:
            out.append(lt)
    return tuple(out)


def exponents(w, size):
    vec = [0] * size
    for lt in w:
        vec[abs(lt) - 1] += 1 if lt > 0 else -1
    return vec


def fmt(w, names):
    """Word in the program's text grammar, runs written as ``x^k``."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = names[abs(w[i]) - 1]
        if w[i] < 0:
            name = name.upper()
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "".join(parts)


def parse(text, names):
    """Inverse of :func:`fmt`, for words the worker sends back."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        i += 1
        if c == "1":
            continue
        lt = names.index(c.lower()) + 1
        if c.isupper():
            lt = -lt
        k = 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            while j < len(text) and (text[j].isdigit() or text[j] == "-"):
                j += 1
            k = int(text[i + 1:j])
            i = j
        if k < 0:
            lt, k = -lt, -k
        out.extend([lt] * k)
    return reduce(out)


def conjugate_product(rng, relator, gens, factors, conj_len):
    """Reduced product of ``factors`` conjugates ``c r^e c^-1``, each with
    ``|c| <= conj_len``: trivial by construction."""
    out = []
    for _ in range(factors):
        c = random_word(rng, gens, rng.randint(0, conj_len))
        r = relator if rng.random() < 0.5 else invert(relator)
        out.extend(c + r + invert(c))
    return reduce(out)


def commutator(rng, gens, max_len):
    u = random_word(rng, gens, rng.randint(1, max_len))
    v = random_word(rng, gens, rng.randint(1, max_len))
    return reduce(u + v + invert(u) + invert(v))


def is_cyclic_conjugate(u, r):
    """True iff ``u`` is a cyclic permutation of ``r`` or of ``r^-1``."""
    if len(u) != len(r):
        return False
    for cand in (r, invert(r)):
        doubled = cand + cand
        if any(doubled[i:i + len(cand)] == u for i in range(len(cand))):
            return True
    return False


# ---------------------------------------------------------------------------
# independent oracles: each returns True (trivial), False (nontrivial) or
# None (no answer)

def _perm_image(w, images):
    n = len(images[0])
    inverses = []
    for p in images:
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        inverses.append(tuple(inv))
    cur = tuple(range(n))
    for lt in w:
        p = images[abs(lt) - 1] if lt > 0 else inverses[abs(lt) - 1]
        cur = tuple(p[x] for x in cur)
    return cur


def _identity(images):
    return tuple(range(len(images[0])))


def _klein_normal_form(w):
    """``(m, n)`` with ``w = a^m b^n`` in ``<a, b | a b a b^-1>``, where
    ``b a = a^-1 b``; faithful because the group is ``Z x| Z``."""
    m = n = 0
    for lt in w:
        if abs(lt) == 1:
            m += (1 if lt > 0 else -1) * (-1 if n % 2 else 1)
        else:
            n += 1 if lt > 0 else -1
    return m, n


class Entry:
    """A catalogue presentation with the oracles that answer for it."""

    def __init__(self, text, oracle=None, data=None):
        left, right = text.split("|")
        self.text = text
        self.names = tuple(x.strip() for x in left.split(","))
        self.size = len(self.names)
        self.relator = parse(right.strip(), self.names)
        self.oracle = oracle
        self.data = data
        self.rvec = exponents(self.relator, self.size)
        if not self._kills_relator():
            raise ValueError(f"oracle {oracle} rejects the relator of {text}")

    def _kills_relator(self):
        if self.oracle == "psl2":
            return psl2_eval(self.relator).is_identity()
        if self.oracle == "perm":
            return _perm_image(self.relator, self.data) == _identity(
                self.data)
        return self.faithful(self.relator) in (None, True)

    def faithful(self, w):
        """Exact answer from a faithful map, or None."""
        if self.oracle == "z2":
            return not any(exponents(w, 2))
        if self.oracle == "bs":
            return affine_eval_bs1n(w, self.data).is_identity()
        if self.oracle == "klein":
            return _klein_normal_form(w) == (0, 0)
        return None

    def decide(self, w):
        if not w:
            return True
        exact = self.faithful(w)
        if exact is not None:
            return exact
        if self.abelian_nontrivial(w):
            return False
        if self.oracle == "psl2" and not psl2_eval(w).is_identity():
            return False
        if (self.oracle == "perm"
                and _perm_image(w, self.data) != _identity(self.data)):
            return False
        if {abs(lt) for lt in self.relator} - {abs(lt) for lt in w}:
            return False  # Freiheitssatz: w misses a relator generator
        return None

    def abelian_nontrivial(self, w):
        """Exponent vector of ``w`` is no integer multiple of the relator's."""
        return outside_abelian_image(self.rvec, exponents(w, self.size),
                                     range(self.size))


def outside_abelian_image(rvec, wvec, coords):
    """True iff no integer ``k`` has ``wvec[j] == k * rvec[j]`` for every
    ``j`` in ``coords``.  With ``coords`` the generators outside a subset
    ``S`` this certifies that ``w`` is not in ``<S>``: the abelianization of
    ``<S>`` lies in the span of ``S`` plus multiples of the relator."""
    k = None
    for j in coords:
        if rvec[j] == 0:
            if wvec[j] != 0:
                return True
            continue
        if wvec[j] % rvec[j] != 0:
            return True
        if k is not None and wvec[j] // rvec[j] != k:
            return True
        k = wvec[j] // rvec[j]
    return False


# ---------------------------------------------------------------------------
# catalogues

# Finite quotients: pairs of permutations of {0..5} satisfying the relator
# and generating a nonabelian group of the order noted.
_PERM_QUOTIENTS = {
    "a,b | abABabaB": ((3, 2, 1, 0, 5, 4), (4, 3, 0, 2, 5, 1)),       # 120
    "a,b | a^2bAb^2AB^2": ((2, 5, 4, 1, 3, 0), (2, 5, 1, 0, 4, 3)),   # 720
    "a,b | abaBAbAB": ((3, 2, 1, 0, 5, 4), (4, 3, 0, 2, 5, 1)),       # 120
    "a,b | a^2b^3AB^3": ((1, 5, 3, 4, 2, 0), (4, 5, 1, 2, 3, 0)),     # 120
}

WP_CATALOGUE = (
    Entry("a,b | abAB", "z2"),
    Entry("a,b | abAB^2", "bs", 2),
    Entry("a,b | abAB^3", "bs", 3),
    Entry("a,b | abaB", "klein"),
    Entry("a,b | a^2B^3", "psl2"),
) + tuple(Entry(t, "perm", q) for t, q in _PERM_QUOTIENTS.items()) + (
    Entry("a,b,c | abcABC"),
    Entry("a,b,c | a^2b^2c^2"),
    Entry("a,b,c | abAcBC"),
)

# (presentation, subset) pairs reaching every branch of Solver._member; the
# comment names the branch taken at the top of the recursion.
MEMBER_CATALOGUE = tuple((Entry(t, o, d), s) for t, o, d, s in (
    ("a,b,c | abAB^2", None, None, "b,c"),      # free split
    ("a,b,c | abAB^2", None, None, "a"),        # free split
    ("a,b | abAB^2", "bs", 2, "a"),             # zero case, t in subset
    ("a,b | abAB^2", "bs", 2, "b"),             # zero case, t outside
    ("a,b | abAB^3", "bs", 3, "b"),             # zero case, t outside
    ("a,b,c | abcABC", None, None, "a,b"),      # zero case, t in subset
    ("a,b,c | abcABC", None, None, "b,c"),      # zero case, t outside
    ("a,b,c | abAcBC", None, None, "a,c"),      # zero case, t in subset
    ("a,b,c | a^2b^2c^2", None, None, "c"),     # nonzero, subset fixed
    ("a,b,c | a^2b^2c^2", None, None, "a,b"),   # nonzero, omit one
    ("a,b | a^2B^3", "psl2", None, "a"),        # nonzero, omit one
    ("a,b,c | ababc", None, None, "b,c"),       # nonzero, omit one: x
                                                # leaves the image relator,
                                                # so runs() is used
))

NCL_CATALOGUE = (
    Entry("a,b | abAB", "z2"),
    Entry("a,b | abAB^2", "bs", 2),
    Entry("a,b | abaB", "klein"),
    Entry("a,b | a^2B^3", "psl2"),
    Entry("a,b,c | abcABC"),
)

# (conj_len, factors) search budgets for the normal-closure oracle.
NCL_BUDGETS = ((1, 2), (1, 3), (2, 2))


def catalogue(workload):
    """Presentation texts a warm worker prepares during set-up."""
    if workload == "wp-warm":
        return [e.text for e in WP_CATALOGUE]
    if workload == "member-warm":
        return sorted({e.text for e, _ in MEMBER_CATALOGUE})
    return []


# ---------------------------------------------------------------------------
# query streams

def _wp_warm(rng):
    while True:
        e = rng.choice(WP_CATALOGUE)
        gens = list(range(e.size))
        if rng.random() < 0.5:
            w = conjugate_product(rng, e.relator, gens, rng.randint(3, 6), 8)
            answer = True
        else:
            if e.size == 3:
                gens = rng.sample(gens, 2)
            # |u|, |v| <= 5 keeps the BS(1,3) tail near 0.1 s per query;
            # at 6 single queries take seconds.
            w = commutator(rng, gens, 5)
            answer = e.decide(w)
            if answer is None:
                continue
        if answer and e.faithful(w) is False:
            raise AssertionError(f"generator built a nontrivial word in "
                                 f"{e.text}")
        yield (["wp", e.text, fmt(w, e.names)],
               "trivial" if answer else "nontrivial")


def _bs_nonmember(e, w, subset):
    """Affine certificate that ``w`` is not in ``<a>`` or ``<b>`` of
    ``BS(1, n)``: ``a^k`` maps to ``x -> n^k x``, ``b^k`` to ``x -> x + k``."""
    if e.oracle != "bs" or len(subset) != 1:
        return False
    m = affine_eval_bs1n(w, e.data)
    if subset == (0,):
        return m.offset != 0
    return m.scale != 1 or m.offset.denominator != 1


def _member_warm(rng):
    while True:
        e, subset_text = rng.choice(MEMBER_CATALOGUE)
        subset = tuple(e.names.index(x) for x in subset_text.split(","))
        gens = list(range(e.size))
        if rng.random() < 0.5:
            v = random_word(rng, list(subset), rng.randint(1, 8))
            w = list(v)
            for _ in range(rng.randint(1, 3)):
                c = random_word(rng, gens, rng.randint(0, 3))
                r = e.relator if rng.random() < 0.5 else invert(e.relator)
                pos = rng.randint(0, len(w))
                w[pos:pos] = c + r + invert(c)
            expected = ("member", v)
        else:
            w = random_word(rng, gens, rng.randint(3, 10))
            outside = [j for j in gens if j not in subset]
            if not (outside_abelian_image(e.rvec, exponents(w, e.size),
                                          outside)
                    or _bs_nonmember(e, w, subset)):
                continue
            expected = ("nonmember",)
        yield (["member", e.text, fmt(reduce(w), e.names), subset_text],
               expected)


def _wp_cold(rng):
    names = ("a", "b", "c")
    while True:
        # a fresh full-support cyclically reduced relator per query, with
        # every exponent sum in [-2, 2]: larger sums make the Magnus
        # embedding grow words geometrically, and single queries then run
        # for seconds to minutes (see NOTES.md)
        while True:
            r = random_word(rng, [0, 1, 2], rng.randint(4, 8))
            if (r[0] != -r[-1] and len({abs(lt) for lt in r}) == 3
                    and max(map(abs, exponents(r, 3))) <= 2):
                break
        if rng.random() < 0.5:
            w = conjugate_product(rng, r, [0, 1, 2], rng.randint(2, 4), 4)
            answer = "trivial"
        else:
            # zero exponent sums over {a, b}: no abelian shortcut, and
            # nontrivial by the Freiheitssatz since r involves c; with
            # |u|, |v| <= 5 some queries still ran for seconds
            w = commutator(rng, [0, 1], 3)
            answer = "nontrivial" if w else "trivial"
        yield (["wp", "a,b,c | " + fmt(r, names), fmt(w, names)], answer)


def _oracle_ncl(rng):
    while True:
        e = rng.choice(NCL_CATALOGUE)
        conj_len, factors = rng.choice(NCL_BUDGETS)
        gens = list(range(e.size))
        w = conjugate_product(rng, e.relator, gens, rng.randint(1, factors),
                              conj_len)
        if rng.random() < 0.5:
            expected = ("found", w)
        else:
            # one more letter: same length profile, but nontrivial, so the
            # search exhausts its budget
            w = reduce(w + random_word(rng, gens, 1))
            if e.decide(w) is not False:
                continue
            expected = ("none",)
        yield (["ncl", e.text, fmt(w, e.names), conj_len, factors], expected)


_STREAMS = {"wp-warm": _wp_warm, "member-warm": _member_warm,
            "wp-cold": _wp_cold, "oracle-ncl": _oracle_ncl}


def stream(workload, seed):
    """Endless deterministic stream of ``(query, expected)`` pairs."""
    return _STREAMS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# checking the worker's answers

def _names(query):
    return tuple(x.strip() for x in query[1].split("|")[0].split(","))


def check(query, expected, answer):
    """True iff the worker's rendered ``answer`` matches ``expected``."""
    kind = query[0]
    if kind == "wp":
        return answer == expected
    names = _names(query)
    if kind == "member":
        if expected[0] == "nonmember":
            return answer == "nonmember"
        return (isinstance(answer, str) and answer.startswith("member ")
                and parse(answer[len("member "):], names) == expected[1])
    if expected[0] == "none":
        return answer == "none"
    return _certificate_ok(query, expected[1], answer, names)


def _certificate_ok(query, target, answer, names):
    if not (isinstance(answer, list) and len(answer) == 3
            and answer[0] == "found"):
        return False
    relator = parse(answer[1], names)
    own = parse(query[1].split("|")[1].strip(), names)
    if not is_cyclic_conjugate(relator, own):
        return False
    cert = NclCertificate(tuple((parse(c, names), eps)
                                for c, eps in answer[2]))
    return cert.expand(relator) == target
