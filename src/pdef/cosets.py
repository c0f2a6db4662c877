"""Coset tables: the one enumeration kernel and the table queries.

Tables are canonical: cosets are numbered 1..N in breadth-first discovery
order with coset 1 the subgroup, and columns run g1, g1^-1, ..., gn, gn^-1.

While enumerating, a table is one list per column, indexed by coset (index
0 unused, 0 = undefined).  ``_scan`` walks a relator rotation of
``_rotations``, which carries its letters' column lists, through them from
both ends; ``todd_coxeter`` and the low-index search (``lowindex``) both
deduce with them.  An inconsistent closure is a coincidence for the first
and a dead branch for the second.

``todd_coxeter`` is Felsch enumeration (Sims 1994, ch. 5): after filling
the subgroup words at coset 1, it defines one coset at a time at the first
gap, the lowest live coset's lowest undefined column.  Each entry written
is a deduction, scanned on the rotations that begin with its column at its
coset.  Coincidences merge through a union-find forest keeping the smaller
coset, the dead cosets processed first in, first out.  An involution x (a
relator x^2 or x^-2) has one column list, shared by x and x^-1, so one
write defines both, and x^2 is not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import Presentation
from .words import Word, _period, cyclic_reduce

DEFAULT_MAX_COSETS = 100000


class TableInvariantError(ValueError):
    pass


def _col(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def _cols(letters, involutions=frozenset()) -> tuple[int, ...]:
    """The letters' columns as ``_col`` gives them, but with x^-1 read as x
    for each involution x."""
    return tuple([2 * x - 2 if x > 0 else -2 * x - 2 if -x in involutions else -2 * x - 1 for x in letters])


def _columns(n_generators: int, involutions=frozenset()) -> list[list[int]]:
    """Coset 1 alone: a list [0, 0] per column, one for both of an involution's."""
    cols = [[0, 0] for _ in range(2 * n_generators)]
    return [cols[c - 1] if c & 1 and c // 2 + 1 in involutions else col for c, col in enumerate(cols)]


def _rows(cols: list[list[int]], p) -> list[tuple[int, ...] | None]:
    """Rows 1..len(p) - 1 of a table held as column lists, None for each coset
    c a merge killed (p[c] != c), so that zip reuses the dead row's tuple."""
    rows = zip(*cols) if cols else [()] * len(p)
    return [row if p[c] == c else None for c, row in enumerate(rows)][1:]


def _rotations(P: Presentation, cols: list[list[int]], involutions=frozenset()):
    """Per column c, the distinct cyclic rotations of each relator and its
    inverse that begin with c, as (lists, inverse lists, doubled columns,
    first, last) for ``_scan``: the rotation is doubled[first:last + 1],
    and lists[k] is the column list of doubled[k].  A relator u^m has only
    len(u) distinct rotations.  Letters are read by ``_cols``; the x^2
    relator of an involution is dropped, and so is an inverse that reads
    as a rotation of its relator (in a free group, none does)."""
    rots = [[] for _ in cols]
    for r in P.relators:
        core = cyclic_reduce(r)[1].letters
        if not core or (len(core) == 2 and core[0] == core[1] and abs(core[0]) in involutions):
            continue
        word = _cols(core, involutions)
        period, n = _period(word), len(word)
        inv = _cols([-ell for ell in reversed(core)], involutions)
        words = (word,) if any(word[k:] + word[:k] == inv for k in range(period)) else (word, inv)
        for w in words:
            doubled = w + w
            fw, bw = tuple([cols[c] for c in doubled]), tuple([cols[c ^ 1] for c in doubled])
            for k in range(period):
                rots[w[k]].append((fw, bw, doubled, k, k + n - 1))
    return rots


def _scan(fw, bw, f: int, b: int, i: int, j: int):
    """Scan a word forward from coset f through its column lists fw[i..j],
    then backward from b through their inverses bw[j..i]; returns (f, i, b, j).

    i > j: the cycle closed, consistently exactly when f == b.
    i == j: one entry is missing, and f.word[i] = b is forced.
    i < j: the gap word[i..j] is longer."""
    while i <= j:
        x = fw[i][f]
        if not x:
            break
        f = x
        i += 1
    else:
        return f, i, b, j
    while j >= i:
        x = bw[j][b]
        if not x:
            break
        b = x
        j -= 1
    return f, i, b, j


@dataclass(frozen=True)
class CosetTable:
    """Action of generators on cosets; rows[i-1][c] is the image of coset i
    under column c."""

    n_generators: int
    rows: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[Word, ...] = ()

    @property
    def n_cosets(self) -> int:
        return len(self.rows)

    def dump(self) -> str:
        head = f"cosets {self.n_cosets} gens {self.n_generators}"
        body = "\n".join(" ".join(str(x) for x in row) for row in self.rows)
        return head + "\n" + body + "\n" if body else head + "\n"


@dataclass(frozen=True)
class Exhausted:
    """Coset bound hit: the index is unknown or larger than the bound."""

    max_cosets: int


def trace(T: CosetTable, start: int, w: Word) -> int:
    """Image coset of ``start`` under the word ``w``."""
    c = start
    for ell in w.letters:
        c = T.rows[c - 1][_col(ell)]
    return c


def permutation_action(T: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator: images of cosets 1..N, as tuples."""
    return [tuple(row[2 * g] for row in T.rows) for g in range(T.n_generators)]


def power_survives(T: CosetTable, w: Word, r: int) -> bool:
    """True when the orbit of coset 1 under w has length exactly r, i.e.
    no proper power w^k (0 < k < r) lies in the subgroup while w^r does."""
    c, length = trace(T, 1, w), 1
    while c != 1:
        if length > T.n_cosets:
            raise TableInvariantError("orbit never returns to coset 1")
        c, length = trace(T, c, w), length + 1
    return length == r


def is_normal(T: CosetTable) -> bool:
    """True when the subgroup at coset 1 is normal, decided on the table
    alone by ``_normal_so_far``; subgroup words are ignored.  It is given
    the generator columns only: they reach every coset of a finite
    transitive table, and a map commuting with g commutes with g^-1."""
    return _normal_so_far([[0, *col] for col in zip(*T.rows)][::2])


def _normal_so_far(cols: list[list[int]]) -> bool:
    """False when no table of a normal subgroup extends the column lists
    (0 = undefined); on a complete table, True exactly when H is normal.

    For each defined coset beta = 1.c, grow the map 1 -> beta along the
    defined entries by one breadth-first pass, requiring (x.d)^phi =
    (x^phi).d wherever both sides are defined.  If H is normal, the map is
    an automorphism of its complete table, so a clash rules out every
    extension.  On a complete table the map is well defined exactly when
    H lies in Stab(beta) = c^-1 H c, which has the same index, so
    H = c^-1 H c; holding for every column, this is normality.  O(N ncols)
    per beta."""
    for beta in {col[1] for col in cols} - {0, 1}:
        phi = [0] * len(cols[0])
        phi[1], queue = beta, [1]
        for x in queue:
            y = phi[x]
            for col in cols:
                u, v = col[x], col[y]
                if u and v:
                    if not phi[u]:
                        phi[u] = v
                        queue.append(u)
                    elif phi[u] != v:
                        return False
    return True


def validate_table(P: Presentation, T: CosetTable) -> None:
    """Check every invariant of a complete table; raises TableInvariantError."""
    n, N = T.n_generators, T.n_cosets
    if n != P.n_generators:
        raise TableInvariantError("generator count mismatch")
    for i, row in enumerate(T.rows, start=1):
        if len(row) != 2 * n:
            raise TableInvariantError(f"row {i} has {len(row)} entries")
    # entries in 1..N and inverse consistency make columns c, c^1 mutually inverse permutations
    for i, row in enumerate(T.rows, start=1):
        for c, j in enumerate(row):
            if not 1 <= j <= N:
                raise TableInvariantError(f"entry ({i},{c}) out of range")
            if T.rows[j - 1][c ^ 1] != i:
                raise TableInvariantError(f"inverse consistency fails at ({i},{c})")
    if len(canonicalize_rows(n, T.rows)) != N:  # it renumbers the cosets reached
        raise TableInvariantError("cosets not all reachable from coset 1")
    for r in P.relators:
        for i in range(1, N + 1):
            if trace(T, i, r) != i:
                raise TableInvariantError(f"relator {r.letters} does not fix coset {i}")
    for s in T.subgroup_words:
        if trace(T, 1, s) != 1:
            raise TableInvariantError(f"subgroup word {s.letters} moves coset 1")


def canonicalize_rows(n_generators: int, rows) -> tuple[tuple[int, ...], ...]:
    """Renumber a complete 1-based table by BFS discovery from coset 1,
    reading only the rows it reaches."""
    new_of = [0] * (len(rows) + 1)  # old coset -> new number, 0 = unseen
    new_of[1] = 1
    order = [1]
    for c in order:
        for d in rows[c - 1]:
            if not new_of[d]:
                order.append(d)
                new_of[d] = len(order)
    return tuple(tuple(map(new_of.__getitem__, rows[c - 1])) for c in order)


def table_from_rows(n_generators: int, rows) -> CosetTable:
    """Build a table from serialized rows, checking basic shape."""
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    if not rows:
        raise ValueError("a table needs at least one coset")
    N = len(rows)
    for row in rows:
        if len(row) != 2 * n_generators or any(not 1 <= x <= N for x in row):
            raise ValueError("malformed table rows")
    return CosetTable(n_generators, rows)


def todd_coxeter(P: Presentation, subgroup_words, max_cosets: int = DEFAULT_MAX_COSETS):
    """Enumerate cosets of the subgroup generated by ``subgroup_words``
    (Felsch, see the module docstring).  Returns a complete canonical
    CosetTable, or Exhausted(max_cosets) when a coset is needed while
    max_cosets are live: every deduction is processed by then, so a
    lookahead pass would free none."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    subgroup_words = tuple(subgroup_words)
    for w in subgroup_words:
        if w.max_index() > P.n_generators:
            raise ValueError("subgroup word uses an undeclared generator")

    cores = [cyclic_reduce(r)[1].letters for r in P.relators]
    involutions = frozenset(abs(w[0]) for w in cores if len(w) == 2 and w[0] == w[1])
    cols = _columns(P.n_generators, involutions)
    ncols = len(cols)
    rots = _rotations(P, cols, involutions)
    subs = [_cols(w.letters, involutions) for w in subgroup_words]
    # (column, its list, its inverse's), one per distinct list: the ones a coincidence moves
    moved = [(c, cols[c], cols[c ^ 1]) for c in range(ncols) if not c & 1 or cols[c] is not cols[c - 1]]
    p = [0, 1]  # union-find parents; a merge keeps the smaller coset
    n_live = 1
    todo: list[tuple[int, int]] = []  # deductions (coset, column) not yet scanned

    def rep(k: int) -> int:
        while p[k] != k:  # path halving
            p[k] = k = p[p[k]]
        return k

    def write(a: int, c: int, b: int) -> None:
        cols[c][a], cols[c ^ 1][b] = b, a
        todo.append((a, c))

    def define(a: int, c: int) -> bool:
        """a.c = a new coset; False when max_cosets are live."""
        nonlocal n_live
        if n_live >= max_cosets:
            return False
        p.append(len(p))
        for _, col, _ in moved:
            col.append(0)
        n_live += 1
        write(a, c, len(p) - 1)
        return True

    def merge(a: int, b: int, dead: list[int]) -> None:
        nonlocal n_live
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            n_live -= 1
            dead.append(b)

    def coincidence(a: int, b: int) -> None:
        dead: list[int] = []
        merge(a, b, dead)
        for gamma in dead:  # grows while it is walked: FIFO
            for c, col, inv in moved:
                delta = col[gamma]
                if not delta:
                    continue
                inv[delta] = 0
                mu, nu = rep(gamma), rep(delta)
                if col[mu]:
                    merge(nu, col[mu], dead)
                elif inv[nu]:
                    merge(mu, inv[nu], dead)
                else:
                    write(mu, c, nu)

    def deduce() -> None:
        """Scan every pending deduction, forcing entries and merging."""
        while todo:
            alpha, c = todo.pop()
            if p[alpha] != alpha:
                continue  # its entries moved, and were pushed again if new
            for fw, bw, word, i, j in rots[c]:
                f, i, b, j = _scan(fw, bw, alpha, alpha, i, j)
                if i == j:
                    write(f, word[i], b)
                elif i > j and f != b:
                    coincidence(f, b)
                    if p[alpha] != alpha:
                        break

    for word in subs:
        fw, bw = [cols[c] for c in word], [cols[c ^ 1] for c in word]
        f, i, b, j = _scan(fw, bw, 1, 1, 0, len(word) - 1)
        while i <= j:  # fill the gap, one entry at a time
            if i == j:
                write(f, word[i], b)
            elif not define(f, word[i]):
                return Exhausted(max_cosets)
            deduce()  # merges keep the scanned paths, ending at rep(f), rep(b)
            f, i, b, j = _scan(fw, bw, rep(f), rep(b), i, j)
        if f != b:
            coincidence(f, b)
            deduce()

    # the first gap: live cosets before alpha, and alpha's columns before
    # c, are full, and merges keep them full
    alpha, c = 1, 0
    while alpha < len(p):
        if p[alpha] != alpha or c == ncols:
            alpha, c = alpha + 1, 0
        elif cols[c][alpha]:
            c += 1
        elif define(alpha, c):
            deduce()
        else:
            return Exhausted(max_cosets)

    # renumber from coset 1, which merges keep live: live rows point only
    # at live cosets, so the dead rows (None) are never read
    rows = canonicalize_rows(P.n_generators, _rows(cols, p))
    return CosetTable(P.n_generators, rows, subgroup_words=subgroup_words)
