"""Test oracle for the zero-case rewriting: undo the subscripts."""

from onerelator import words


def substitute_back(word, pairs, t):
    """``word`` over base generators, ``pairs[k] = (g, i)`` naming base
    generator ``k``, with each ``g_i`` replaced by ``t^i g t^-i``."""
    out = []
    tlt = t + 1
    for lt in word:
        g, i = pairs[abs(lt) - 1]
        out.extend([tlt] * i if i >= 0 else [-tlt] * (-i))
        out.append(g + 1 if lt > 0 else -(g + 1))
        out.extend([-tlt] * i if i >= 0 else [tlt] * (-i))
    return words.reduce(out)
