"""Independent oracles for the outputs the benchmark checks.

Nothing here imports regcat: every expected value is computed from plain
tuples, by closed forms or by small constructive enumerations, so a wrong
answer from the program cannot also be a wrong expectation.
"""

from __future__ import annotations

from itertools import product
from math import prod


def fibres(table, cod_size):
    """Preimage sizes of a map given as a tuple of codomain indices."""
    sizes = [0] * cod_size
    for v in table:
        sizes[v] += 1
    return sizes


def inner_count(table, dom_size, cod_size):
    """Inner inverses g of f: ∏|fibre| · |X|^(|Y|−|im f|)."""
    im = [n for n in fibres(table, cod_size) if n]
    return prod(im) * dom_size ** (cod_size - len(im))


def generalized_count(table, cod_size):
    """Generalized inverses: ∏|fibre| · |im f|^(|Y|−|im f|)."""
    im = [n for n in fibres(table, cod_size) if n]
    return prod(im) * len(im) ** (cod_size - len(im))


def outer_count(table, cod_size):
    """Outer inverses g (g∘f∘g = g), counted by their image A.

    g is outer iff g∘f fixes im g pointwise, so f is injective on A = im g,
    g sends f(a) to a, and every other point of Y goes into A:
    Σ over nonempty T ⊆ im f of ∏_{t∈T}|fibre_t| · |T|^(|Y|−|T|).
    """
    im = [n for n in fibres(table, cod_size) if n]
    # elementary symmetric sums of the fibre sizes, by subset size
    e = [1] + [0] * len(im)
    for n in im:
        for k in range(len(im), 0, -1):
            e[k] += e[k - 1] * n
    return sum(e[k] * k ** (cod_size - k) for k in range(1, len(im) + 1))


def compose(g, f):
    """g∘f on index tuples, f applied first."""
    return tuple(g[v] for v in f)


def inner_inverses(table, dom_size, cod_size):
    """Every inner inverse of f, built directly instead of swept."""
    pre = [[] for _ in range(cod_size)]
    for x, y in enumerate(table):
        pre[y].append(x)
    choices = [p if p else range(dom_size) for p in pre]
    return [tuple(c) for c in product(*choices)]


def chain_count(table, x_size, y_size, n):
    """Number of valid order-n star towers over f (n ≤ 3).

    Order 1 wants s1 inner for f, order 2 wants s2 inner for s1, and order 3
    wants f∘s1∘s2∘s3∘f = f, which fixes s3 on im f to the fibres of
    f∘s1∘s2 and leaves it free elsewhere.
    """
    if not 1 <= n <= 3:
        raise ValueError("chain_count covers orders 1 to 3")
    total = 0
    for s1 in inner_inverses(table, x_size, y_size):
        if n == 1:
            total += 1
            continue
        if n == 2:
            total += inner_count(s1, y_size, x_size)
            continue
        for s2 in inner_inverses(s1, y_size, x_size):
            sizes = fibres(compose(table, compose(s1, s2)), y_size)
            count = 1
            for y in set(table):
                count *= sizes[y]
            total += count * x_size ** (y_size - len(set(table)))
    return total


def closure_holds(f, stars):
    """All prefix closure equations of a tower, as regcat defines them."""
    for k in range(1, len(stars) + 1):
        prefix = stars[:k]
        if k % 2 == 1:
            m = f
            for s in reversed(prefix):
                m = compose(s, m)
            if compose(f, m) != f:
                return False
        else:
            m = prefix[0]
            for s in reversed(prefix[1:]):
                m = compose(s, m)
            if compose(prefix[0], m) != prefix[0]:
                return False
    return True


def ybe_holds(s, braid, e, classical):
    """Regularized YBE B^R∘B^L∘B^R = B^L∘B^R∘B^L on X³, by whole maps.

    ``braid`` maps the rank of (a, b) in X⊗X to the rank of its image; B^L is
    e⊗B and B^R is B⊗e.
    """
    if classical and e != tuple(range(s)):
        return False
    if compose(e, e) != e:
        return False
    triples = list(product(range(s), repeat=3))

    def bl(t):
        x, y, z = t
        return (e[x], *divmod(braid[s * y + z], s))

    def br(t):
        x, y, z = t
        return (*divmod(braid[s * x + y], s), e[z])

    return all(br(bl(br(t))) == bl(br(bl(t))) for t in triples)


def simple_cycles(edges, objects, max_len):
    """Edge-simple cycles in regcat's order: by length, then base, then edge names.

    ``edges`` maps an edge name to (dom, cod, table).
    """
    out_edges = {o: sorted(n for n, (d, _, _) in edges.items() if d == o) for o in objects}
    cycles = []

    def walk(base, at, path, length):
        if len(path) == length:
            if at == base:
                cycles.append((base, tuple(path)))
            return
        for name in out_edges[at]:
            if name not in path:
                path.append(name)
                walk(base, edges[name][1], path, length)
                path.pop()

    for n in range(1, max_len + 1):
        for base in sorted(objects):
            walk(base, base, [], n)
    return cycles


def path_table(edges, path):
    m = edges[path[0]][2]
    for name in path[1:]:
        m = compose(edges[name][2], m)
    return m


def absorption_violations(edges, objects, max_len):
    """Number of (cycle, edge leaving its base) pairs with f∘e ≠ f."""
    count = 0
    for base, path in simple_cycles(edges, objects, max_len):
        e = path_table(edges, path)
        for name, (d, _, f) in edges.items():
            if d == base and compose(f, e) != f:
                count += 1
    return count


def obstruction_number(edges, objects, base, max_n):
    """Least cycle length at base whose obstructor is not the identity."""
    for base_, path in simple_cycles(edges, objects, max_n):
        e = path_table(edges, path)
        if base_ == base and e != tuple(range(len(e))):
            return len(path)
    return None


def three_cycle_classes(edges):
    """Directed 3-cycles of distinct edges, counted up to rotation."""
    names = sorted(edges)
    classes = set()
    for a, b, c in product(names, repeat=3):
        if len({a, b, c}) < 3:
            continue
        (da, ca, _), (db, cb, _), (dc, cc, _) = edges[a], edges[b], edges[c]
        if db == ca and dc == cb and cc == da:
            classes.add(min((a, b, c), (b, c, a), (c, a, b)))
    return len(classes)
