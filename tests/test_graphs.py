import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, small_graph
from vecchrom import graphs, identities
from vecchrom.errors import (
    CapacityError,
    DimensionError,
    DomainError,
    ParseError,
    ValidationError,
)
from vecchrom.graphs import (
    Graph,
    ProductKind,
    complement,
    generate,
    graph_from_edges,
    is_bipartite,
    is_homomorphism,
    parse_edge_list,
    product,
    union,
    write_edge_list,
)


# --- generators -------------------------------------------------------------

def test_omega_odd_is_empty():
    G = generate("omega", 3)
    assert G.n == 8
    assert G.edge_count == 0
    assert generate("omega", 5).edge_count == 0


def test_omega_matches_orthogonality_oracle():
    # oracle: enumerate the documented sign-vector encoding directly
    for n in (2, 3, 4):
        G = generate("omega", n)
        count = 1 << n
        vecs = {i: [(-1 if (i >> b) & 1 else 1) for b in range(n)] for i in range(count)}
        for i, j in itertools.combinations(range(count), 2):
            dot = sum(a * b for a, b in zip(vecs[i], vecs[j]))
            assert G.adj[i, j] == (dot == 0)
    G = generate("omega", 2)
    assert G.n == 4
    assert G.edge_count == 4
    flag, _ = is_bipartite(G)
    assert flag
    # isomorphic to the 4-cycle: same degree sequence and edge count
    assert list(G.degrees()) == [2, 2, 2, 2]


def test_omega_regularity_even():
    from math import comb

    for n in (2, 4, 6):
        G = generate("omega", n)
        assert set(G.degrees()) == {comb(n, n // 2)}


def test_omega_capacity():
    with pytest.raises(CapacityError):
        generate("omega", 11)


def test_complete_one_vertex():
    G = generate("complete", 1)
    assert (G.n, G.edge_count) == (1, 0)


def test_named_families():
    assert generate("cycle", 5).edge_count == 5
    assert generate("cycle", 2).edge_count == 1
    assert generate("path", 4).edge_count == 3
    assert generate("empty", 6).edge_count == 0
    P = generate("petersen")
    assert (P.n, P.edge_count) == (10, 15)
    assert set(P.degrees()) == {3}
    with pytest.raises(DomainError):
        generate("hypercube", 3)
    with pytest.raises(DomainError):
        generate("cycle", -1)


# --- complement -------------------------------------------------------------

def test_complement_complete_is_empty():
    assert complement(generate("complete", 4)).edge_count == 0
    assert complement(generate("empty", 3)).edge_count == 3


def test_complement_c5_self_complementary():
    # oracle: exhaustive search over all 5! vertex bijections
    C5 = generate("cycle", 5)
    co = complement(C5)
    assert co.edge_count == 5
    assert set(co.degrees()) == {2}
    found = any(
        all(co.adj[perm[u], perm[v]] for u, v in C5.edges())
        for perm in itertools.permutations(range(5))
    )
    assert found


@given(small_graph())
def test_complement_involution(G):
    assert np.array_equal(complement(complement(G)).adj, G.adj)


# --- products ---------------------------------------------------------------

def test_cartesian_k2_k2_is_square():
    G = product("cartesian", generate("complete", 2), generate("complete", 2))
    # vertex order 00, 01, 10, 11; the square visits them as 0, 1, 3, 2
    cycle_order = [0, 1, 3, 2]
    C4 = generate("cycle", 4)
    assert all(
        G.adj[cycle_order[i], cycle_order[(i + 1) % 4]] for i in range(4)
    )
    assert G.edge_count == C4.edge_count == 4


def test_categorical_k2_k2_two_disjoint_edges():
    K2 = generate("complete", 2)
    G = product("categorical", K2, K2)
    # oracle: scan the definition over all vertex pairs
    expected = set()
    for (u1, v1), (u2, v2) in itertools.combinations(
        itertools.product(range(2), range(2)), 2
    ):
        if K2.adj[u1, u2] and K2.adj[v1, v2]:
            expected.add((u1 * 2 + v1, u2 * 2 + v2))
    assert set(G.edges()) == expected
    assert G.edge_count == 2
    assert set(G.degrees()) == {1}


def _definition_adjacent(kind, G, H, a, b):
    u1, v1 = divmod(a, H.n)
    u2, v2 = divmod(b, H.n)
    gu = bool(G.adj[u1, u2])
    hv = bool(H.adj[v1, v2])
    if kind == "categorical":
        return gu and hv
    if kind == "cartesian":
        return (gu and v1 == v2) or (u1 == u2 and hv)
    if kind == "strong":
        return (gu and hv) or (gu and v1 == v2) or (u1 == u2 and hv)
    if kind == "disjunctive":
        return gu or hv
    return gu or (u1 == u2 and hv)  # lexicographic


@pytest.mark.parametrize("kind", [k.value for k in ProductKind])
def test_products_match_definitions(kind):
    for seed in range(4):
        G = random_graph(4, seed=seed)
        H = random_graph(3, seed=seed + 50)
        P = product(kind, G, H)
        for a in range(P.n):
            for b in range(a + 1, P.n):
                assert P.adj[a, b] == _definition_adjacent(kind, G, H, a, b)


def test_strong_is_union_of_categorical_and_cartesian():
    for seed in range(10):
        G = random_graph(5, seed=seed)
        H = random_graph(6, seed=seed + 10)
        strong = product("strong", G, H)
        both = union(product("categorical", G, H), product("cartesian", G, H))
        assert np.array_equal(strong.adj, both.adj)


def test_disjunctive_complement_identity():
    # complement(G * H) equals strong product of the complements, exactly
    for seed in range(8):
        G = random_graph(4, seed=seed)
        H = random_graph(4, seed=seed + 20)
        lhs = complement(product("disjunctive", G, H))
        rhs = product("strong", complement(G), complement(H))
        assert np.array_equal(lhs.adj, rhs.adj)


@given(small_graph(max_n=4), small_graph(max_n=4))
def test_product_vertex_counts(G, H):
    for kind in ProductKind:
        assert product(kind, G, H).n == G.n * H.n


def test_categorical_projections_are_homomorphisms():
    G = random_graph(5, seed=1)
    H = random_graph(4, seed=2)
    P = product("categorical", G, H)
    for a, b in P.edges():
        u1, v1 = divmod(a, H.n)
        u2, v2 = divmod(b, H.n)
        assert G.adj[u1, u2] and H.adj[v1, v2]


# --- union ------------------------------------------------------------------

def test_union_identity_and_partition():
    G = random_graph(6, seed=3)
    assert np.array_equal(union(G, generate("empty", 6)).adj, G.adj)
    C5 = generate("cycle", 5)
    K5 = generate("complete", 5)
    assert np.array_equal(union(C5, complement(C5)).adj, K5.adj)


def test_union_dimension_error():
    with pytest.raises(DimensionError):
        union(generate("complete", 3), generate("complete", 4))


# --- bipartite and isolated vertices ----------------------------------------

def test_bipartite_cases():
    flag, part = is_bipartite(generate("cycle", 4))
    assert flag
    C4 = generate("cycle", 4)
    assert all(part[u] != part[v] for u, v in C4.edges())
    assert is_bipartite(generate("cycle", 5)) == (False, None)
    flag, part = is_bipartite(generate("omega", 2))
    assert flag


def test_bipartite_partition_covers_components():
    G = graph_from_edges(6, [(0, 1), (2, 3)])
    flag, part = is_bipartite(G)
    assert flag
    assert part[0] != part[1] and part[2] != part[3]


# --- homomorphism check -----------------------------------------------------

def test_is_homomorphism():
    C4 = generate("cycle", 4)
    K2 = generate("complete", 2)
    ok, witness = is_homomorphism(C4, K2, [0, 1, 0, 1])
    assert ok and witness is None
    f = [0, 1, 1, 0]
    ok, witness = is_homomorphism(C4, K2, f)
    assert not ok and witness is not None
    u, v = witness
    assert C4.adj[u, v] and not K2.adj[f[u], f[v]]


def test_is_homomorphism_witness_is_the_first_failing_edge():
    # (0, 3) and (1, 2) both fail; (0, 3) comes first in edges() order,
    # (1, 2) first by column
    G = graph_from_edges(4, [(1, 2), (0, 3), (0, 1)])
    assert is_homomorphism(G, generate("complete", 2), [0, 1, 1, 0]) == (False, (0, 3))
    P = generate("path", 5)
    assert is_homomorphism(P, generate("complete", 2), [0, 1, 1, 0, 0]) == (False, (1, 2))


@pytest.mark.parametrize("bad", [1.5, 0.999, np.nan, np.inf, None, 1e300])
def test_is_homomorphism_refuses_non_integral_maps(bad):
    C3, K3 = generate("cycle", 3), generate("complete", 3)
    # truncated, 1.5 would give the homomorphism [0, 1, 2]
    with pytest.raises(DomainError, match="integers"):
        is_homomorphism(C3, K3, [0, bad, 2])
    # integer-valued floats are integers
    assert is_homomorphism(C3, K3, [0.0, 1.0, 2.0]) == (True, None)


# --- construction validation ------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(2, np.array([[False, True], [False, False]]))
    with pytest.raises(ValidationError):
        Graph(1, np.array([[True]]))
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError):
        graph_from_edges(3, [(0, 5)])
    assert not generate("complete", 3).adj.flags.writeable


# --- edge-list format -------------------------------------------------------

def test_parse_simple_graphs():
    assert parse_edge_list("2 1\n0 1").edge_count == 1
    K3 = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert K3.edge_count == 3 and K3.n == 3


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


def test_order_cap_applies_before_allocation():
    def expect(error, build, match="order cap"):
        def run():
            with pytest.raises(error, match=match):
                build()
        assert _peak_bytes(run) < 1_000_000

    expect(ParseError, lambda: parse_edge_list("1000000 0\n"))
    expect(ParseError, lambda: parse_edge_list(f"{graphs.MAX_ORDER + 1} 0\n"))
    expect(DomainError, lambda: graph_from_edges(10**6, []))
    expect(DomainError, lambda: graphs.erdos_renyi(10**6))
    for family in ("complete", "cycle", "path", "empty"):
        expect(DomainError, lambda: generate(family, 10**6))
    # products are refused on their order, before np.kron allocates it
    C70 = generate("cycle", 70)
    for kind in ProductKind:
        expect(DomainError, lambda: product(kind, C70, C70))
    big = Graph(graphs.MAX_ORDER + 1, np.zeros((graphs.MAX_ORDER + 1,) * 2, dtype=bool))
    expect(DomainError, lambda: union(big, big))
    # the identity suites check the SDP cap on the product order first, and
    # the chain suite on each graph's order
    C121 = generate("cycle", 121)
    for suite, G in (("sabidussi", C70), ("hedetniemi", C70), ("products", C70),
                     ("chain", C121)):
        expect(CapacityError, lambda: identities.run_suite(suite, G, G, cache={}),
               match="SDP cap")


def test_parse_self_loop_line_number():
    with pytest.raises(ValidationError) as err:
        parse_edge_list("2 1\n0 0")
    assert err.value.line == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_edge_list("2\n0 1")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1")  # fewer edges than promised
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 x")
    with pytest.raises(ValidationError):
        parse_edge_list("2 1\n0 7")
    with pytest.raises(ParseError):
        parse_edge_list("# nothing\n")


def test_parse_comments_and_duplicates():
    G = parse_edge_list("# header comment\n3 3  # n m\n0 1\n0 1\n1 2\n")
    assert G.edge_count == 2  # duplicates collapse


def test_write_then_read_roundtrip():
    G = random_graph(7, seed=9)
    text = write_edge_list(G)
    back = parse_edge_list(text)
    assert np.array_equal(back.adj, G.adj)
    lines = text.strip().splitlines()
    assert lines[0] == f"{G.n} {G.edge_count}"
    assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split())))


@given(small_graph())
def test_roundtrip_property(G):
    assert np.array_equal(parse_edge_list(write_edge_list(G)).adj, G.adj)


# --- bulk edge-list parser against a line-by-line reference -------------------

def _reference_parse_edge_list(text, label=""):
    """Line-by-line edge-list parser, one line and one token at a time: the
    reference the bulk parser must match graph for graph and error for
    error."""
    header = None
    n = m = 0
    adj = None
    seen_edges = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'", line=lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: header entries must be integers", line=lineno)
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative header entry", line=lineno)
            if n > graphs.MAX_ORDER:
                raise ParseError(
                    f"line {lineno}: vertex count {n} exceeds the order cap {graphs.MAX_ORDER}",
                    line=lineno,
                )
            header = (n, m)
            adj = np.zeros((n, n), dtype=bool)
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge endpoints must be integers", line=lineno)
        seen_edges += 1
        if seen_edges > m:
            raise ParseError(f"line {lineno}: more than {m} edges listed", line=lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(
                f"line {lineno}: endpoint out of range for n={n}: ({u}, {v})",
                line=lineno,
            )
        adj[u, v] = adj[v, u] = True
    if header is None:
        raise ParseError("empty graph file", line=1)
    if seen_edges != m:
        raise ParseError(f"header promised {m} edges but {seen_edges} were listed")
    return Graph(n, adj, label)


def _outcome(parse, text):
    try:
        G = parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line
    return G.n, G.adj.tobytes()


# tokens int() reads differently from a plain digit string, and tokens it refuses
_ODD_TOKENS = ["+1", "-0", "007", "1_0", "\u0663", "99999999999999999999",
               "-99999999999999999999", "x", "1.0", "1e0", "0x1", "_1", "--1", ""]
# separators inside a line ("\x0b" is also a line break to str.splitlines)
# and line breaks that str.splitlines knows
_SPACES = [" "] * 6 + ["\t", "  ", "\u00a0", "\x0b"]
_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"]


@st.composite
def edge_list_text(draw):
    """An edge-list text, valid or with mutations: wrong field counts,
    non-integer, negative, out-of-range or oversized endpoints, self-loops,
    too many or too few edges, comments and blank lines."""
    n = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                          max_size=8))
    pairs = [p for p in pairs if p[0] != p[1]] if n > 1 else []
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [[str(n), str(max(m, 0))]] + [[str(u), str(v)] for u, v in pairs]
    endpoint = st.one_of(st.integers(-2, n + 2).map(str), st.sampled_from(_ODD_TOKENS))
    for _ in range(draw(st.integers(0, 3))):
        # mostly edge lines: a broken header hides every later check
        i = draw(st.integers(min(1, len(lines) - 1) if draw(st.integers(0, 4)) else 0,
                             len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "extra", "loop", "blank", "line"]))
        if kind == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(endpoint)
        elif kind == "drop":
            lines[i] = lines[i][:1]
        elif kind == "extra":
            lines[i] = lines[i] + [draw(endpoint)]
        elif kind == "loop" and i and lines[i]:
            lines[i] = [lines[i][0], lines[i][0]]
        elif kind == "blank":
            lines.insert(i, [])
        else:
            lines.insert(i, [draw(endpoint), draw(endpoint)])
    text = []
    for fields in lines:
        line = draw(st.sampled_from(_SPACES)).join(fields)
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from(["", " ", "\t"])) + line + " # " + draw(endpoint)
        if draw(st.integers(0, 11)) == 0:
            line = "# " + line
        text.append(line + draw(st.sampled_from(_BREAKS)))
    return "".join(text)


@settings(max_examples=200)
@given(edge_list_text())
def test_bulk_parser_matches_line_by_line_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse_edge_list, text)


@pytest.mark.parametrize("text", [
    "3 2\n0 1\n1 2\n",
    "3 1\n0 1 2\n",                           # field count before everything else
    "3 1\n0 x\n1 1\n",                        # non-integer before a later self-loop
    "3 1\n0 1\n2 2\n",                        # one edge too many before its self-loop
    "3 2\n0 1\n1 1\n0 9\n",                   # self-loop before a later range error
    "3 2\n0 9\n1 1\n",                        # range error before a later self-loop
    "3 1\n0 -1\n", "3 1\n-1 0\n", "3 1\n3 0\n",
    "3 2\n0 1\n0 x\n",                        # non-integer after a valid edge line
    "3 2\n0 1\n0\n",                          # one field after a valid edge line
    "# c\n3 1\r# c\n0 9\n",                   # "\r# c\n" is two line breaks
    "3 2\n5 5\n",                             # self-loop is checked before range
    "5 1\n0 99999999999999999999\n",          # beyond int64: out of range
    "5 1\n99999999999999999999 99999999999999999998\n",
    "3 3 # n m\n# comment\n\n0 1\n1 2 # edge\n0 2\r\n",
    "2 3\n0 1\n",
    "", "# only a comment\n", "x 1\n", "3\n", "-1 0\n", "3 -1\n",
])
def test_bulk_parser_matches_reference_on_examples(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse_edge_list, text)


# --- edge index, edge hash and writer -----------------------------------------

@pytest.mark.parametrize("G, digest", [
    (generate("petersen"), "223b9bae4baa1733"),
    (generate("cycle", 5), "4a66125c2bb3dbfa"),
    (generate("omega", 4), "499fd51576ce5ad0"),
    (product("cartesian", generate("cycle", 5), generate("cycle", 7)), "75b833a0ec31180f"),
])
def test_edge_hash_digests_are_stable(G, digest):
    # records name graphs by these digests; they must not move
    assert graphs.edge_hash(G) == digest


@given(small_graph(min_n=0, max_n=9))
def test_edge_accessors_agree(G):
    upper = np.argwhere(np.triu(G.adj))
    expected = [(int(u), int(v)) for u, v in upper]
    assert G.edges() == expected and G.edge_count == len(expected)
    u, v = G.edge_index
    assert not u.flags.writeable and not v.flags.writeable
    text = write_edge_list(G)
    assert text == "\n".join([f"{G.n} {len(expected)}"]
                             + [f"{a} {b}" for a, b in expected]) + "\n"
    assert np.array_equal(parse_edge_list(text).adj, G.adj)


@pytest.mark.parametrize("edges, message", [
    ([(0, 0)], "self-loop at vertex 0"),
    ([(0, 1), (2, 7), (1, 1)], r"out of range: \(2, 7\)"),
    ([(0, 1), (-1, 2)], r"out of range: \(-1, 2\)"),
    ([(1, 10**30)], r"out of range: \(1, 10{30}\)"),
    ([(0, 1.5)], "must be integers"),
    ([(True, False)], "must be integers"),
])
def test_graph_from_edges_reports_the_first_bad_edge(edges, message):
    with pytest.raises(ValidationError, match=message):
        graph_from_edges(3, edges)
