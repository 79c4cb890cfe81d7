"""Finite bounded distributive lattices in the Birkhoff encoding.

Elements are dense integer ids into a name list.  Each element is also coded
as the bitmask of the join-irreducibles below it; by Birkhoff's
representation theorem these codes are the down-sets of the join-irreducibles,
so join, meet, medians and betweenness are set operations on codes.  The order
is kept as one up-set and one down-set bitmask per element.  Every
constructor validates the poset, bounds and distributivity in one O(m*|J|)
pass over the codes (|J| join-irreducibles) and raises a witness-carrying
error on a violation.
"""

from __future__ import annotations

from .errors import (
    InvalidSizeError,
    NotALatticeError,
    NotAPosetError,
    NotBoundedError,
    NotDistributiveError,
    TooLargeError,
)

DEFAULT_SIZE_CAP = 4096


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Valuation:
    """Integer valuation: v(x v y) = v(x) + v(y) - v(x ^ y), strictly increasing.

    On a distributive lattice these are exactly the valuations
    v(x) = v(bottom) + sum of w_j over the join-irreducibles j <= x, with every
    weight w_j = v(j) - v(lower cover of j) positive, so the check costs
    O(m*|J|).  Only when it fails are the pairs scanned for the first witness.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: "Lattice", values):
        values = tuple(int(v) for v in values)
        if len(values) != lattice.m:
            raise InvalidSizeError("valuation must assign a value to every element")
        weights = [values[j] - values[lattice.lower_covers(j)[0]]
                   for j in lattice._irreducibles]
        base = values[lattice.bottom]
        if not (all(w > 0 for w in weights) and all(
                values[x] == base + sum(weights[k] for k in _bits(code))
                for x, code in enumerate(lattice._code))):
            for a in range(lattice.m):
                for b in range(lattice.m):
                    j, m = lattice.join(a, b), lattice.meet(a, b)
                    if values[j] + values[m] != values[a] + values[b]:
                        raise NotALatticeError(
                            "valuation identity fails", witness=(a, b))
                    if lattice.lt(a, b) and not values[a] < values[b]:
                        raise NotALatticeError(
                            "valuation is not strictly increasing", witness=(a, b))
        self.lattice = lattice
        self.values = values

    def __getitem__(self, element: int) -> int:
        return self.values[element]

    def distance(self, x: int, y: int) -> int:
        """Metric induced by the valuation: v(x v y) - v(x ^ y)."""
        lat = self.lattice
        return self.values[lat.join(x, y)] - self.values[lat.meet(x, y)]


class Lattice:
    """A validated finite bounded distributive lattice.

    Element x is encoded as ``_code[x]``, the bitmask of the join-irreducibles
    below it (bit k is the k-th join-irreducible in id order), and ``_decode``
    maps each code back to its element.  By Birkhoff's theorem the codes are
    exactly the down-sets of the join-irreducibles, so join is ``|`` and meet
    is ``&`` on codes.  The order itself is kept as up-set and down-set
    bitmasks over element ids.  ``_interval_gains`` keeps Lemma 1's interval
    table once ``verify.interval_gains`` has built it, so it goes with the
    lattice.
    """

    __slots__ = ("names", "m", "covers", "bottom", "top", "atoms",
                 "join_irreducibles", "_index", "_up", "_down",
                 "_irreducibles", "_code", "_decode", "_interval_gains")

    def __init__(self, names, covers):
        names = list(names)
        if not names:
            raise InvalidSizeError("a lattice needs at least one element")
        if len(names) > DEFAULT_SIZE_CAP:
            raise TooLargeError(f"{len(names)} elements exceeds cap {DEFAULT_SIZE_CAP}")
        if len(set(names)) != len(names):
            raise NotAPosetError("duplicate element names")
        self.names = tuple(str(n) for n in names)
        self.m = len(names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._interval_gains = None

        cover_ids = []
        for lo, hi in covers:
            a = lo if isinstance(lo, int) else self._index.get(str(lo))
            b = hi if isinstance(hi, int) else self._index.get(str(hi))
            if a is None or b is None or not (0 <= a < self.m and 0 <= b < self.m):
                raise NotAPosetError(f"cover ({lo}, {hi}) names an unknown element")
            if a == b:
                raise NotAPosetError(f"cover ({lo}, {hi}) is a self-loop")
            cover_ids.append((a, b))
        if len(set(cover_ids)) != len(cover_ids):
            raise NotAPosetError("duplicate cover")
        self.covers = tuple(cover_ids)

        self._up = self._close(cover_ids)
        self._down = self._close([(b, a) for a, b in cover_ids])
        self._reject_redundant_covers()
        self._find_bounds()
        self._encode()

    # -- construction internals -------------------------------------------

    def _close(self, cover_ids):
        succ = [[] for _ in range(self.m)]
        indeg = [0] * self.m
        for a, b in cover_ids:
            succ[a].append(b)
            indeg[b] += 1
        order = [v for v in range(self.m) if indeg[v] == 0]
        queue = list(order)
        while queue:
            v = queue.pop()
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
                    queue.append(w)
        if len(order) != self.m:
            cyc = [self.names[v] for v in range(self.m) if indeg[v] > 0]
            raise NotAPosetError("cover relation has a cycle", witness=cyc)
        up = [1 << v for v in range(self.m)]
        for v in reversed(order):
            for w in succ[v]:
                up[v] |= up[w]
        return up

    def _reject_redundant_covers(self):
        for a, b in self.covers:
            between = self._up[a] & self._down[b] & ~(1 << a) & ~(1 << b)
            if between:
                raise NotAPosetError(
                    f"({self.names[a]}, {self.names[b]}) is not a cover: "
                    f"{self.names[next(_bits(between))]} lies strictly between",
                    witness=(a, b))

    def _find_bounds(self):
        full = (1 << self.m) - 1
        bottoms = [v for v in range(self.m) if self._up[v] == full]
        tops = [v for v in range(self.m) if self._down[v] == full]
        if not bottoms or not tops:
            raise NotBoundedError("no global bottom or no global top")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def _scan_irreducibles(self):
        """Elements with exactly one lower cover, in id order."""
        lower = [0] * self.m
        for _, b in self.covers:
            lower[b] += 1
        return [x for x in range(self.m) if lower[x] == 1]

    def _encode(self):
        """Code every element and prove the codes form the down-set lattice.

        The poset is a distributive lattice iff the code map is injective and,
        for every x and join-irreducible j not below x whose lower
        join-irreducibles all are, ``code[x] | bit(j)`` is the code of some
        y > x: the codes are then exactly the down-sets of the
        join-irreducibles, ordered by inclusion.  O(m*|J|) dict lookups.
        """
        irreducibles = self._scan_irreducibles()
        code = [0] * self.m
        for k, j in enumerate(irreducibles):
            for x in _bits(self._up[j]):
                code[x] |= 1 << k
        decode = {c: x for x, c in enumerate(code)}
        if len(decode) != self.m:
            # every element of a lattice is the join of the join-irreducibles
            # below it, so two equal codes mean a missing bound
            self._raise_missing_bound()
        self._irreducibles = tuple(irreducibles)
        self._code = code
        self._decode = decode
        lower = [code[j] & ~(1 << k) for k, j in enumerate(irreducibles)]
        for x, c in enumerate(code):
            for k, j in enumerate(irreducibles):
                grown = c | 1 << k
                if grown == c or lower[k] & ~c:
                    continue
                y = decode.get(grown)
                if y is None or not self._up[x] >> y & 1:
                    self._raise_missing_bound()
                    self._raise_not_distributive(x, j)
        self.join_irreducibles = frozenset(irreducibles)
        self.atoms = frozenset(
            x for x in irreducibles
            if self._down[x] == (1 << x) | (1 << self.bottom))

    def _raise_missing_bound(self):
        """Error path: raise at the first pair without a least upper bound or
        a greatest lower bound, if there is one."""
        up, down = self._up, self._down
        for a in range(self.m):
            for b in range(self.m):
                uppers = up[a] & up[b]
                if not any(uppers & ~up[u] == 0 for u in _bits(uppers)):
                    raise NotALatticeError(
                        f"({self.names[a]}, {self.names[b]}) has no least upper bound",
                        witness=(a, b))
                lowers = down[a] & down[b]
                if not any(lowers & ~down[u] == 0 for u in _bits(lowers)):
                    raise NotALatticeError(
                        f"({self.names[a]}, {self.names[b]}) has no greatest lower bound",
                        witness=(a, b))

    def _raise_not_distributive(self, x, j):
        """Error path for a lattice whose check failed at (x, j): some
        join-irreducible j' below x v j lies below neither x nor j, and then
        j' ^ (x v j) = j' while (j' ^ x) v (j' ^ j) lies below j'."""
        uppers = self._up[x] & self._up[j]
        lub = next(u for u in _bits(uppers) if uppers & ~self._up[u] == 0)
        code = self._code
        extra = code[lub] & ~code[x] & ~code[j]
        j2 = self._irreducibles[next(_bits(extra))]
        raise NotDistributiveError(
            "meet does not distribute over join at "
            f"({self.names[j2]}, {self.names[x]}, {self.names[j]})",
            witness=(j2, x, j))

    # -- names --------------------------------------------------------------

    def element(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown element name {name!r}") from None

    def __repr__(self):
        return f"Lattice({self.m} elements, bottom={self.names[self.bottom]}, top={self.names[self.top]})"

    # -- order and operations ------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and bool(self._up[a] >> b & 1)

    def comparable(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1 or self._up[b] >> a & 1)

    def join(self, a: int, b: int) -> int:
        return self._decode[self._code[a] | self._code[b]]

    def meet(self, a: int, b: int) -> int:
        return self._decode[self._code[a] & self._code[b]]

    def median(self, a: int, b: int, c: int) -> int:
        code = self._code
        a, b, c = code[a], code[b], code[c]
        return self._decode[a & b | b & c | a & c]

    def between(self, x: int, z: int, y: int) -> bool:
        """True iff z lies in the interval [x, y], i.e. x^y <= z <= xvy."""
        code = self._code
        x, z, y = code[x], code[z], code[y]
        return not (x & y & ~z or z & ~(x | y))

    def interval(self, x: int, y: int) -> tuple:
        return tuple(_bits(self.interval_mask(x, y)))

    def interval_mask(self, x: int, y: int) -> int:
        """The elements of [x ^ y, x v y], as a bitmask over element ids."""
        code, decode = self._code, self._decode
        x, y = code[x], code[y]
        return self._up[decode[x & y]] & self._down[decode[x | y]]

    # -- derived structure ----------------------------------------------------

    def is_chain(self) -> bool:
        return len(self.join_irreducibles) == self.m - 1

    def complement(self, x: int):
        """The complement of x if one exists, else None (unique if any)."""
        return self._decode.get(self._code[self.top] & ~self._code[x])

    def is_boolean(self) -> bool:
        return self.join_irreducibles == self.atoms

    def upper_covers(self, x: int) -> tuple:
        above = self._up[x] & ~(1 << x)
        return tuple(c for c in _bits(above) if self._down[c] & above == 1 << c)

    def lower_covers(self, x: int) -> tuple:
        below = self._down[x] & ~(1 << x)
        return tuple(c for c in _bits(below) if self._up[c] & below == 1 << c)

    def rank_valuation(self) -> Valuation:
        """Count of join-irreducibles below each element; always a valid valuation here."""
        return Valuation(self, [c.bit_count() for c in self._code])

    def sublattice(self, elements) -> "Lattice":
        """The induced lattice on a join/meet-closed subset, keeping names."""
        subset = sorted(elements)
        pos = {e: i for i, e in enumerate(subset)}
        for a in subset:
            for b in subset:
                if self.join(a, b) not in pos or self.meet(a, b) not in pos:
                    raise NotALatticeError(
                        "subset is not closed under join and meet", witness=(a, b))
        sub_covers = []
        for a in subset:
            for b in subset:
                if not self.lt(a, b):
                    continue
                if any(self.lt(a, c) and self.lt(c, b) for c in subset):
                    continue
                sub_covers.append((pos[a], pos[b]))
        return Lattice([self.names[e] for e in subset], sub_covers)


# -- constructors --------------------------------------------------------------


def build_from_covers(names, covers) -> Lattice:
    """Build and validate a lattice from its named cover (Hasse) relation."""
    return Lattice(names, covers)


def build_chain(m: int) -> Lattice:
    if m < 1:
        raise InvalidSizeError("a chain needs at least one element")
    names = [str(i) for i in range(m)]
    return Lattice(names, [(i, i + 1) for i in range(m - 1)])


def build_boolean_hypercube(k: int) -> Lattice:
    """All k-bit vectors under the componentwise order; names are bitstrings."""
    if k < 1:
        raise InvalidSizeError("dimension must be at least 1")
    if 2 ** k > DEFAULT_SIZE_CAP:
        raise TooLargeError(f"2^{k} elements exceeds cap {DEFAULT_SIZE_CAP}")
    names = [format(v, f"0{k}b") for v in range(2 ** k)]
    covers = [(v, v | 1 << i)
              for v in range(2 ** k) for i in range(k) if not v >> i & 1]
    return Lattice(names, covers)


def build_product(a: Lattice, b: Lattice) -> Lattice:
    """Componentwise-ordered product; element (i, j) gets id i*|b| + j."""
    if a.m * b.m > DEFAULT_SIZE_CAP:
        raise TooLargeError(f"{a.m * b.m} elements exceeds cap {DEFAULT_SIZE_CAP}")
    names = [f"{na}.{nb}" for na in a.names for nb in b.names]
    covers = []
    for i in range(a.m):
        for j in range(b.m):
            e = i * b.m + j
            for i2 in a.upper_covers(i):
                covers.append((e, i2 * b.m + j))
            for j2 in b.upper_covers(j):
                covers.append((e, i * b.m + j2))
    return Lattice(names, covers)


def build_ideal_lattice(poset_names, leq_pairs) -> Lattice:
    """Lattice of order ideals (downward-closed sets) of a finite poset.

    ``leq_pairs`` lists (lower, upper) name pairs generating the order; the
    reflexive-transitive closure is taken.  Join is union, meet intersection,
    so the result is distributive by construction (still validated).
    """
    poset_names = [str(n) for n in poset_names]
    if len(set(poset_names)) != len(poset_names):
        raise NotAPosetError("duplicate poset element names")
    p = len(poset_names)
    index = {n: i for i, n in enumerate(poset_names)}
    below = [1 << i for i in range(p)]  # below[i]: everything <= i, as a mask
    edges = []
    for lo, hi in leq_pairs:
        if str(lo) not in index or str(hi) not in index:
            raise NotAPosetError(f"pair ({lo}, {hi}) names an unknown element")
        edges.append((index[str(lo)], index[str(hi)]))
    changed = True
    while changed:
        changed = False
        for lo, hi in edges:
            merged = below[hi] | below[lo]
            if merged != below[hi]:
                below[hi] = merged
                changed = True
    for i in range(p):
        for j in range(p):
            if i != j and below[i] >> j & 1 and below[j] >> i & 1:
                raise NotAPosetError(
                    "relation is not antisymmetric",
                    witness=(poset_names[i], poset_names[j]))

    ideals = {0}
    frontier = [0]
    while frontier:
        ideal = frontier.pop()
        for i in range(p):
            if ideal >> i & 1:
                continue
            if below[i] & ~(ideal | 1 << i):
                continue  # some strict predecessor of i is missing
            grown = ideal | 1 << i
            if grown not in ideals:
                if len(ideals) >= DEFAULT_SIZE_CAP:
                    raise TooLargeError(f"more than {DEFAULT_SIZE_CAP} order ideals")
                ideals.add(grown)
                frontier.append(grown)

    ordered = sorted(ideals, key=lambda s: (s.bit_count(), s))
    pos = {s: i for i, s in enumerate(ordered)}

    def ideal_name(mask):
        return "{" + ",".join(poset_names[i] for i in _bits(mask)) + "}"

    covers = []
    for s in ordered:
        for i in range(p):
            if not s >> i & 1 and (s | 1 << i) in pos:
                covers.append((pos[s], pos[s | 1 << i]))
    return Lattice([ideal_name(s) for s in ordered], covers)
