"""Finite bounded distributive lattices in the Birkhoff encoding.

Elements are dense integer ids into a name list.  Each element is also coded
as the bitmask of the join-irreducibles below it; by Birkhoff's
representation theorem these codes are the down-sets of the join-irreducibles,
so join, meet, medians and betweenness are set operations on codes.  The order
is kept as one up-set and one down-set bitmask per element.  Every
constructor validates the poset, bounds and distributivity in one
topological pass along the covers, O(covers + |J|^2) big-int operations
(|J| join-irreducibles), and raises a witness-carrying error on a violation.
"""

from __future__ import annotations

from operator import itemgetter, xor

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
    weight w_j = v(j) - v(lower cover of j) positive: v(b) - v(a) = w_j on each
    cover (a, b) adding j, O(covers).  Only when that fails are the pairs
    scanned for the first witness.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: "Lattice", values):
        values = tuple(int(v) for v in values)
        if len(values) != lattice.m:
            raise InvalidSizeError("valuation must assign a value to every element")
        code, decode = lattice._code, lattice._decode
        weights = [values[j] - values[decode[code[j] ^ 1 << k]]
                   for k, j in enumerate(lattice._irreducibles)]
        if not (all(w > 0 for w in weights) and all(
                values[b] - values[a] == weights[(code[a] ^ code[b]).bit_length() - 1]
                for a, b in lattice.covers)):
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
    bitmasks over element ids; the constructor fills both, and the codes, in
    one topological pass (``_encode``).  ``_interval_gains`` keeps Lemma 1's
    interval table once ``verify.interval_gains`` has built it, so it goes
    with the lattice.
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
        self.names = tuple(str(n) for n in names)
        if len(set(self.names)) != len(names):
            raise NotAPosetError("duplicate element names")
        self.m = len(names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._interval_gains = None

        cover_ids = []
        for lo, hi in covers:
            if type(lo) is bool or type(hi) is bool:
                raise NotAPosetError(f"cover ({lo}, {hi}) has a bool endpoint")
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

        topology = self._close(cover_ids)
        self._find_bounds()
        self._encode(*topology)

    # -- construction internals -------------------------------------------

    def _close(self, cover_ids):
        """Fill the up-sets in reverse topological order and the down-sets in
        order; returns it, the upper covers and the join-irreducibles."""
        succ = [[] for _ in range(self.m)]
        indeg = [0] * self.m
        for a, b in cover_ids:
            succ[a].append(b)
            indeg[b] += 1
        irreducibles = [v for v in range(self.m) if indeg[v] == 1]
        order = [v for v in range(self.m) if indeg[v] == 0]
        for v in order:  # Kahn's algorithm; the order grows as it is read
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) != self.m:
            cyc = [self.names[v] for v in range(self.m) if indeg[v] > 0]
            raise NotAPosetError("cover relation has a cycle", witness=cyc)
        up = [1 << v for v in range(self.m)]
        down = up[:]
        for v in reversed(order):
            for w in succ[v]:
                up[v] |= up[w]
        for v in order:
            for w in succ[v]:
                down[w] |= down[v]
        self._up, self._down = up, down
        return order, succ, irreducibles

    def _reject_redundant_covers(self):
        up, down = self._up, self._down
        for a, b in self.covers:
            between = up[a] & down[b] ^ (1 << a | 1 << b)
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
            self._reject_redundant_covers()
            raise NotBoundedError("no global bottom or no global top")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def _encode(self, order, succ, irreducibles):
        """Code every element and prove the codes form the down-set lattice.

        Codes are ORed up the covers in topological order, each
        join-irreducible adding its own bit.  The poset is a distributive
        lattice iff the codes are injective and, for every x and
        join-irreducible j addable to x (not below x, its lower ones all
        below x), ``code[x] | bit(j)`` is the code of some y > x.  If each
        cover adds one bit, the covers map one-to-one into the addable pairs,
        so that holds iff both are as many: O(covers + |J|^2) big-int
        operations, and then no cover (a, b) is redundant: a c strictly between
        would give ``code[a] < code[c] < code[b]``.  Only on failure do
        ``_reject_redundant_covers`` and then ``_scan_addable`` run.
        """
        code = [0] * self.m
        for k, j in enumerate(irreducibles):
            code[j] = 1 << k
        for v in order:
            for w in succ[v]:
                code[w] |= code[v]
        decode = {c: x for x, c in enumerate(code)}
        if len(decode) != self.m:
            # every element of a lattice is the join of the join-irreducibles
            # below it, so two equal codes mean a missing bound
            self._reject_redundant_covers()
            self._raise_missing_bound()
        self._irreducibles = tuple(irreducibles)
        self._code = code
        self._decode = decode
        up, addable = self._up, 0
        for k, j in enumerate(irreducibles):
            above_lower = (1 << self.m) - 1
            for i in _bits(code[j] ^ 1 << k):
                above_lower &= up[irreducibles[i]]
            addable += (above_lower & ~up[j]).bit_count()
        # with injective codes, every cover adds at least one bit
        steps = map(xor, map(code.__getitem__, map(itemgetter(0), self.covers)),
                    map(code.__getitem__, map(itemgetter(1), self.covers)))
        if addable != len(self.covers) or sum(map(int.bit_count, steps)) != len(self.covers):
            self._reject_redundant_covers()
            self._scan_addable()
        self.join_irreducibles = frozenset(irreducibles)
        self.atoms = frozenset(
            x for x in irreducibles
            if self._down[x] == (1 << x) | (1 << self.bottom))

    def _scan_addable(self):
        """Error path: raise at the first x, in id order, and join-irreducible
        j addable to x whose grown code is not the code of some y > x."""
        code, decode, irreducibles = self._code, self._decode, self._irreducibles
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
    uppers_a, uppers_b = ([[] for _ in range(f.m)] for f in (a, b))
    for f, uppers in ((a, uppers_a), (b, uppers_b)):
        for x, y in sorted(f.covers):  # each list ascending, as upper_covers
            uppers[x].append(y)
    covers = []
    for i in range(a.m):
        for j in range(b.m):
            e = i * b.m + j
            covers += [(e, i2 * b.m + j) for i2 in uppers_a[i]]
            covers += [(e, i * b.m + j2) for j2 in uppers_b[j]]
    return Lattice(names, covers)


def build_ideal_lattice(poset_names, leq_pairs) -> Lattice:
    """Lattice of order ideals (downward-closed sets) of a finite poset.

    ``leq_pairs`` lists (lower, upper) name pairs generating the order; the
    reflexive-transitive closure is taken.  Ideals are listed by size, then
    mask, and named by their members in point order.  The search goes level
    by level; each step adds an addable point to an ideal: a cover, found in
    sorted order.  Join is union, meet intersection, so the result is
    distributive by construction (still validated).
    """
    poset_names = [str(n) for n in poset_names]
    if len(set(poset_names)) != len(poset_names):
        raise NotAPosetError("duplicate poset element names")
    p = len(poset_names)
    index = {n: i for i, n in enumerate(poset_names)}
    below = [1 << i for i in range(p)]  # below[i]: everything <= i, as a mask
    # upper[i] includes i's upper covers, the only points adding i can free
    upper = [set() for _ in range(p)]
    edges = []
    for lo, hi in leq_pairs:
        if str(lo) not in index or str(hi) not in index:
            raise NotAPosetError(f"pair ({lo}, {hi}) names an unknown element")
        lo, hi = index[str(lo)], index[str(hi)]
        edges.append((lo, hi))
        upper[lo].add(hi)
    changed = True
    while changed:
        changed = False
        for lo, hi in edges:
            merged = below[hi] | below[lo]
            if merged != below[hi]:
                below[hi] = merged
                changed = True
    if len(set(below)) < p:  # i <= j <= i iff both close to the same mask
        i, j = next((i, j) for i in range(p) for j in range(p)
                    if i != j and below[i] == below[j])
        raise NotAPosetError("relation is not antisymmetric",
                             witness=(poset_names[i], poset_names[j]))

    names, covers = ["{}"], []
    level = [0]  # the ideals of k points, ascending
    parts = {0: []}  # their members' names, in point order
    addable = {0: [i for i in range(p) if below[i] == 1 << i]}  # ascending
    while level:
        grown = {}  # ideal of k + 1 points -> (an ideal of k points, the point)
        for s in level:
            for i in addable[s]:
                grown.setdefault(s | 1 << i, (s, i))
            if len(names) + len(grown) > DEFAULT_SIZE_CAP:
                raise TooLargeError(f"more than {DEFAULT_SIZE_CAP} order ideals")
        nxt = sorted(grown)
        pos = {g: k for k, g in enumerate(nxt, len(names))}
        for k, s in enumerate(level, len(names) - len(level)):
            for i in addable[s]:
                covers.append((k, pos[s | 1 << i]))
        nxt_parts, nxt_addable = {}, {}
        for g in nxt:
            s, i = grown[g]
            nxt_parts[g] = members = parts[s].copy()
            members.insert((s & (1 << i) - 1).bit_count(), poset_names[i])
            names.append("{" + ",".join(members) + "}")
            nxt_addable[g] = add = addable[s].copy()
            add.remove(i)
            for j in upper[i]:
                if below[j] & ~g == 1 << j:
                    add.append(j)
            add.sort()
        level, parts, addable = nxt, nxt_parts, nxt_addable
    return Lattice(names, covers)
