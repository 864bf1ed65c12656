"""Cross-validation of the transcript-tree runner against a naive
global-channel oracle.

The oracle embeds every Kraus operator and listener unitary with
explicit Kronecker products on the full 2n-qubit space, composes them
transcript by transcript, and reduces outputs through the
independently-tested qcore partial trace.  It shares no evolution or
reduction code with the runner.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edplab import errmodels, frontier, locc, splitting
from edplab.errmodels import MeasureRModel, Stack, fidelity_witness, fidelity_witness_components
from edplab.locc import (
    PROB_TOL,
    AlwaysAccept,
    ConstantAccept,
    Instrument,
    PovmAccept,
    Protocol,
    Round,
    make_first_pair,
    make_random_pair,
    make_random_permutation,
    make_simple_random_hash,
    run,
)
from edplab.qcore import (
    ALICE,
    BOB,
    DensityMatrix,
    ProductState,
    PureState,
    as_density,
    epr_state,
    hermitian_sqrt,
    partial_trace,
)
from edplab.rng import substream
from edplab.sampling import random_density_matrix, random_instrument, random_protocol, random_pure_state


def _embed(op: np.ndarray, party: str, n: int) -> np.ndarray:
    eye = np.eye(1 << n)
    return np.kron(op, eye) if party == ALICE else np.kron(eye, op)


def walk(protocol: Protocol, state, seeds):
    """The runner's walk of one input with ``seeds``."""
    return locc._walk(protocol, locc.frontier_of(state), seeds)


def _row_bytes(protocol: Protocol, state) -> int:
    """Bytes of one node of ``state``'s walk below the root, as the walk
    counts a child under gathers where every round has them."""
    gathered = all(rnd.gathers is not None for rnd in protocol.rounds)
    return frontier.child_row_bytes(locc.frontier_of(state), 2 if any(rnd.width > 1 for rnd in protocol.rounds) else 1, gathered)


def _entry(entries, seed: int):
    """A seed's entry of per-seed data; a one-entry list serves every seed."""
    return entries[0] if len(entries) == 1 else entries[seed]


def oracle(protocol: Protocol, state):
    """(success probability, output 4x4, conditional output 4x4 or None)."""
    n = protocol.n_pairs
    rho0 = as_density(state).matrix
    success = 0.0
    out = np.zeros((4, 4), dtype=np.complex128)
    cond = np.zeros((4, 4), dtype=np.complex128)
    for seed, w in enumerate(protocol.seed_weights):
        states = {"": rho0}
        for rnd in protocol.rounds:
            instr = rnd.instruments[_entry(rnd.instrument_index, seed)]
            assert instr.n_workspace == 0, "oracle covers workspace-free instruments"
            listener = None
            if rnd.listener_unitaries is not None:
                listener = rnd.listener_unitaries[_entry(rnd.listener_index, seed)]
            new = {}
            for t, rho in states.items():
                if listener is not None:
                    g = _embed(listener, rnd.listener, n)
                    rho = g @ rho @ g.conj().T
                for bit in (0, 1):
                    acc = np.zeros_like(rho)
                    for k in instr.branches[bit]:
                        g = _embed(k, rnd.party, n)
                        acc += g @ rho @ g.conj().T
                    new[t + str(bit)] = acc
            states = new
        pair = _entry(protocol.output_pair, seed)
        keep = {(ALICE, pair), (BOB, pair)}
        for t, rho in states.items():
            p_t = float(np.trace(rho).real)
            if p_t < 1e-12:
                continue
            dm = DensityMatrix(n, n, rho / p_t, validate=False)
            reduced = partial_trace(dm, keep).matrix
            out += w * p_t * reduced
            rule = protocol.accept
            if isinstance(rule, AlwaysAccept):
                r_t, post = 1.0, reduced
            elif isinstance(rule, ConstantAccept):
                r_t = float(rule.values if isinstance(rule.values, (int, float)) else rule.values[t])
                post = reduced
            else:
                assert isinstance(rule, PovmAccept)
                element = rule.elements[rule.index[seed, int(t, 2) if t else 0]]
                m = _embed(element, ALICE, n)
                r_t = float(np.trace(m @ rho).real) / p_t
                if r_t < 1e-12:
                    r_t, post = 0.0, np.zeros((4, 4))
                else:
                    root = _embed(hermitian_sqrt(element, floor=1e-9), ALICE, n)
                    squeezed = root @ rho @ root.conj().T
                    weight = float(np.trace(squeezed).real)
                    post = (
                        partial_trace(
                            DensityMatrix(n, n, squeezed / weight, validate=False), keep
                        ).matrix
                        * weight
                        / (p_t * r_t)
                    )
            success += w * p_t * r_t
            cond += w * p_t * r_t * post
    conditional = cond / success if success > 1e-12 else None
    return success, out, conditional


def assert_matches_oracle(protocol, state):
    result = run(protocol, state)
    succ, out, cond = oracle(protocol, state)
    assert result.success_probability == pytest.approx(succ, abs=1e-10)
    np.testing.assert_allclose(result.output.matrix, out, atol=1e-10)
    if cond is None:
        assert result.conditional_output is None
    else:
        np.testing.assert_allclose(result.conditional_output.matrix, cond, atol=1e-10)


def test_builtin_protocols_match_oracle():
    rng = np.random.default_rng(71)
    for proto in (
        make_random_pair(2),
        make_random_permutation(2),
        make_simple_random_hash(2, 1),
        make_simple_random_hash(3, 2),
    ):
        n = proto.n_pairs
        assert_matches_oracle(proto, fidelity_witness(n, 0.25))
        assert_matches_oracle(proto, random_density_matrix(rng, n, n))
        assert_matches_oracle(proto, random_pure_state(rng, n, n))


def test_random_protocols_match_oracle():
    for i in range(12):
        gen = substream(2024, "oracle", i)
        n = int(gen.integers(1, 3))
        proto = random_protocol(
            gen,
            n,
            n_rounds=int(gen.integers(1, 4)),
            n_seeds=int(gen.integers(1, 3)),
            kraus_per_branch=int(gen.integers(1, 3)),
            with_listeners=bool(i % 2),
        )
        assert_matches_oracle(proto, random_density_matrix(gen, n, n))
        assert_matches_oracle(proto, random_pure_state(gen, n, n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    n_rounds=st.integers(0, 3),
    n_seeds=st.integers(1, 2),
    kraus_per_branch=st.integers(1, 3),
    accept_kind=st.sampled_from(["always", "constant", "povm"]),
    with_listeners=st.booleans(),
    pure=st.booleans(),
)
def test_random_protocols_on_dense_and_pure_inputs_match_oracle(
    seed, n, n_rounds, n_seeds, kraus_per_branch, accept_kind, with_listeners, pure
):
    gen = np.random.default_rng(seed)
    proto = random_protocol(
        gen,
        n,
        n_rounds,
        n_seeds=n_seeds,
        kraus_per_branch=kraus_per_branch,
        accept_kind=accept_kind,
        with_listeners=with_listeners,
    )
    state = random_pure_state(gen, n, n) if pure else random_density_matrix(gen, n, n)
    assert_matches_oracle(proto, state)


# ---------------------------------------------------------------------------
# pure + product component form against the dense oracle


def assert_run_matches(a, b, atol=1e-12):
    """Two RunResults agree leaf by leaf and in total."""
    assert a.success_probability == pytest.approx(b.success_probability, abs=atol)
    np.testing.assert_allclose(a.output.matrix, b.output.matrix, atol=atol)
    if b.conditional_output is None:
        assert a.conditional_output is None
    else:
        np.testing.assert_allclose(
            a.conditional_output.matrix, b.conditional_output.matrix, atol=atol
        )
    def keys(result):
        return [(leaf.component, leaf.seed, leaf.transcript) for leaf in result.leaves]

    assert keys(a) == keys(b)
    for la, lb in zip(a.leaves, b.leaves):
        assert la.probability == pytest.approx(lb.probability, abs=atol)
        assert la.accept_probability == pytest.approx(lb.accept_probability, abs=atol)
        if lb.output_state is not None:
            np.testing.assert_allclose(la.output_state, lb.output_state, atol=atol)


def assert_walks_match(protocol, state_a, state_b, atol=1e-12):
    """The transcript trees of two inputs agree node by node: the same
    labels, probabilities and normalized local states.  Inputs in
    different representations may be cut at different seeds, so rows are
    compared per depth."""
    seeds = np.arange(protocol.n_seeds)
    levels_a, levels_b = list(walk(protocol, state_a, seeds)), list(walk(protocol, state_b, seeds))
    rows_a, rows_b = _by_depth(levels_a), _by_depth(levels_b)
    locals_a, locals_b = _local_states_by_depth(levels_a), _local_states_by_depth(levels_b)
    assert rows_a.keys() == rows_b.keys()
    for depth, rows in rows_a.items():
        assert [row[:3] for row in rows] == [row[:3] for row in rows_b[depth]]
        for i, ((*_, pa), (*_, pb)) in enumerate(zip(rows, rows_b[depth])):
            assert pa == pytest.approx(pb, abs=atol)
            if pb >= PROB_TOL:
                for local_a, local_b in zip(locals_a[depth], locals_b[depth]):
                    np.testing.assert_allclose(local_a[i] / pa, local_b[i] / pb, atol=atol)


def _local_states_by_depth(levels):
    """Per depth, the (alice, bob) unnormalized local states of every row
    of the levels at that depth, in the order they come."""
    parts = {}
    for level in levels:
        parts.setdefault(level.depth, []).append(level.states().local_states())
    return {depth: tuple(map(np.concatenate, zip(*sides))) for depth, sides in parts.items()}


def _builtin_protocols(n):
    yield make_first_pair(n)
    yield make_random_pair(n)
    yield make_random_permutation(n)
    for s in range(1, n):
        yield make_simple_random_hash(n, s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builtin_protocols_on_witness_components_match_oracle(n):
    for proto in _builtin_protocols(n):
        for eps in (0.0, 0.25, 1.0 - 4.0**-n):
            result = run(proto, fidelity_witness_components(n, eps))
            succ, out, cond = oracle(proto, fidelity_witness(n, eps))
            assert result.success_probability == pytest.approx(succ, abs=1e-12)
            np.testing.assert_allclose(result.output.matrix, out, atol=1e-12)
            np.testing.assert_allclose(result.conditional_output.matrix, cond, atol=1e-12)


def test_maximally_mixed_product_matches_dense_node_by_node():
    for proto in (make_simple_random_hash(2, 1), make_simple_random_hash(3, 2)):
        n = proto.n_pairs
        product, dense = ProductState.maximally_mixed(n, n), DensityMatrix.maximally_mixed(n, n)
        assert_run_matches(run(proto, product), run(proto, dense))
        assert_walks_match(proto, product, dense)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    n_rounds=st.integers(0, 3),
    n_seeds=st.integers(1, 2),
    kraus_per_branch=st.integers(1, 2),
    accept_kind=st.sampled_from(["always", "constant", "povm"]),
    with_listeners=st.booleans(),
    pure_factors=st.booleans(),
)
def test_product_path_matches_dense_path(
    seed, n, n_rounds, n_seeds, kraus_per_branch, accept_kind, with_listeners, pure_factors
):
    gen = np.random.default_rng(seed)
    proto = random_protocol(
        gen,
        n,
        n_rounds,
        n_seeds=n_seeds,
        kraus_per_branch=kraus_per_branch,
        accept_kind=accept_kind,
        with_listeners=with_listeners,
    )
    rank = 1 if pure_factors else None
    state = ProductState(
        random_density_matrix(gen, n, 0, rank=rank),
        random_density_matrix(gen, 0, n, rank=rank),
    )
    assert_run_matches(run(proto, state), run(proto, state.to_density()))
    assert_walks_match(proto, state, state.to_density())


# ---------------------------------------------------------------------------
# pooled protocols: seeds share operators, so levels merge, and a small
# budget cuts them


def _random_input(gen, n, form):
    if form == "pure":
        return random_pure_state(gen, n, n)
    if form == "product":
        return ProductState(random_density_matrix(gen, n, 0), random_density_matrix(gen, 0, n))
    return random_density_matrix(gen, n, n)


def _merged(stats):
    """Whether some round produced fewer class table rows than children."""
    return any(r.distinct < 2 * r.expanded for r in stats.rounds)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    n_rounds=st.integers(1, 3),
    pool=st.integers(1, 3),
    n_seeds=st.integers(1, 64),
    kraus_per_branch=st.integers(1, 2),
    accept_kind=st.sampled_from(["always", "constant", "povm"]),
    with_listeners=st.booleans(),
    form=st.sampled_from(["pure", "product", "dense"]),
    slack=st.integers(0, 4),
)
def test_pooled_protocols_that_merge_and_cut_match_oracle(
    seed, n, n_rounds, pool, n_seeds, kraus_per_branch, accept_kind, with_listeners, form, slack
):
    # the root level applies at most pool**2 distinct (listener, instrument)
    # triples, so a budget of 4 * pool**2 rows holds its table whole, and more
    # than twice as many seeds as triples makes it merge; deeper levels, with
    # more classes, are cut
    n_seeds = max(n_seeds, 2 * pool**2 + 3)
    gen = np.random.default_rng(seed)
    proto = random_protocol(
        gen, n, n_rounds, n_seeds=n_seeds, kraus_per_branch=kraus_per_branch,
        accept_kind=accept_kind, with_listeners=with_listeners, pool=pool,
    )
    state = _random_input(gen, n, form)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locc, "FRONTIER_BUDGET_BYTES", (4 * pool**2 + slack) * _row_bytes(proto, state))
        result = run(proto, state)
    assert _merged(result.stats)
    succ, out, cond = oracle(proto, state)
    assert result.success_probability == pytest.approx(succ, abs=1e-10)
    np.testing.assert_allclose(result.output.matrix, out, atol=1e-10)
    if cond is None:
        assert result.conditional_output is None
    else:
        np.testing.assert_allclose(result.conditional_output.matrix, cond, atol=1e-10)


@pytest.mark.parametrize("form", ["pure", "product", "dense"])
def test_pooled_protocol_levels_merge_and_cut(form):
    gen = np.random.default_rng(83)
    proto = random_protocol(gen, 2, 3, n_seeds=40, accept_kind="povm", with_listeners=True, pool=2)
    state = _random_input(gen, 2, form)
    reference = run(proto, state)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locc, "FRONTIER_BUDGET_BYTES", 16 * _row_bytes(proto, state))
        chunked = run(proto, state)
    assert _merged(chunked.stats) and chunked.stats.seed_blocks > 1
    assert_run_matches(chunked, reference)
    assert_matches_oracle(proto, state)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    n_rounds=st.integers(0, 3),
    pool=st.integers(1, 3),
    n_seeds=st.integers(1, 16),
    kraus_per_branch=st.integers(1, 2),
    accept_kind=st.sampled_from(["always", "constant", "povm"]),
    with_listeners=st.booleans(),
    inputs=st.integers(1, 12),
    budget_rows=st.integers(1, 64),
)
def test_a_block_of_pure_inputs_matches_one_run_per_input(
    seed, n, n_rounds, pool, n_seeds, kraus_per_branch, accept_kind, with_listeners, inputs, budget_rows
):
    # a block's inputs are walked together and share classes, entries and
    # cuts; each input's sums must be its own run's, and the oracle's
    gen = np.random.default_rng(seed)
    proto = random_protocol(
        gen, n, n_rounds, n_seeds=n_seeds, kraus_per_branch=kraus_per_branch,
        accept_kind=accept_kind, with_listeners=with_listeners, pool=pool,
    )
    states = [random_pure_state(gen, n, n) for _ in range(inputs)]
    roots = frontier.Pure(np.stack([st.amplitudes.reshape(1 << n, 1 << n) for st in states]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locc, "FRONTIER_BUDGET_BYTES", budget_rows * _row_bytes(proto, states[0]))
        block = Stack(roots, np.ones(inputs), np.arange(inputs))
        walk = locc._walk_leaves(proto, roots, locc._Meter(proto.bits))
        outputs, accepted, success = locc._weigh(proto, [(0, block, walk)], inputs)
        singles = [run(proto, st) for st in states]
    for state, single, output, post, p in zip(states, singles, outputs, accepted, success):
        assert p == pytest.approx(single.success_probability, abs=1e-12)
        np.testing.assert_allclose(output, single.output.matrix, atol=1e-12)
        succ, out, cond = oracle(proto, state)
        assert p == pytest.approx(succ, abs=1e-10)
        np.testing.assert_allclose(output, out, atol=1e-10)
        if single.conditional_output is None:
            assert p <= PROB_TOL and cond is None
        else:
            np.testing.assert_allclose(post / p, single.conditional_output.matrix, atol=1e-12)
            np.testing.assert_allclose(post / p, cond, atol=1e-10)


def _workspace_channel(branch, sigma, n_workspace):
    """Tr_w sum_K K (sigma (x) |0><0|_w) K^dag, workspace as low qubits."""
    dw = 1 << n_workspace
    fresh = np.zeros((dw, dw))
    fresh[0, 0] = 1.0
    big = sum(k @ np.kron(sigma, fresh) @ k.conj().T for k in branch)
    d = sigma.shape[0]
    return np.einsum("awbw->ab", big.reshape(d, dw, d, dw))


def test_workspace_instruments_on_product_nodes():
    # product nodes handle workspace instruments themselves (the
    # workspace is compiled into plain Kraus operators); checked against
    # the explicit append-apply-trace channel on each local factor
    gen = np.random.default_rng(2718)
    n = 2
    instr_a = random_instrument(gen, n + 1, kraus_per_branch=2)
    instr_a = Instrument(instr_a.branches, n_workspace=1)
    instr_b = Instrument(random_instrument(gen, n + 2).branches, n_workspace=2)
    proto = Protocol(
        n_pairs=n,
        seed_weights=(1.0,),
        rounds=(Round(ALICE, (instr_a,)), Round(BOB, (instr_b,))),
        accept=AlwaysAccept(),
        output_pair=(1,),
    )
    state = ProductState(random_density_matrix(gen, n, 0), random_density_matrix(gen, 0, n))
    assert_run_matches(run(proto, state), run(proto, state.to_density()))
    assert_walks_match(proto, state, state.to_density())
    *_, leaves = walk(proto, state, np.arange(proto.n_seeds))
    rows = {label: row for row, label in enumerate(leaves.labels)}
    alice_locals, bob_locals = leaves.states().local_states()
    for bit_a in (0, 1):
        alice = _workspace_channel(instr_a.branches[bit_a], state.alice.matrix, 1)
        for bit_b in (0, 1):
            bob = _workspace_channel(instr_b.branches[bit_b], state.bob.matrix, 2)
            p = float(np.trace(alice).real * np.trace(bob).real)
            row = rows[f"{bit_a}{bit_b}"]
            probability = leaves.probabilities[row]
            assert probability == pytest.approx(p, abs=1e-12)
            alice_local, bob_local = alice_locals[row] / probability, bob_locals[row] / probability
            np.testing.assert_allclose(alice_local, alice / np.trace(alice), atol=1e-12)
            np.testing.assert_allclose(bob_local, bob / np.trace(bob), atol=1e-12)


# ---------------------------------------------------------------------------
# seed blocks


def _block_cases():
    gen = np.random.default_rng(31)
    yield make_simple_random_hash(3, 2), fidelity_witness_components(3, 0.3)
    yield make_simple_random_hash(4, 2), MeasureRModel(4, 2).states()[3]
    proto = random_protocol(
        gen, 2, 2, n_seeds=6, kraus_per_branch=2, accept_kind="povm", with_listeners=True
    )
    yield proto, random_density_matrix(gen, 2, 2)
    proto = random_protocol(gen, 2, 3, n_seeds=5, accept_kind="constant", with_listeners=True)
    yield proto, ProductState(random_density_matrix(gen, 2, 0), random_density_matrix(gen, 0, 2))
    yield random_protocol(gen, 1, 2, n_seeds=4, kraus_per_branch=2), random_pure_state(gen, 1, 1)


def _seed_bytes(proto, state):
    """Bytes one seed's widest level takes, counted in rows, per input
    component."""
    components = state if isinstance(state, list) else [(1.0, state)]
    return [_row_bytes(proto, st) << proto.bits for _, st in components]


def _strict_fits(table_bytes, row_bytes):
    """A class table may not pass the budget at all, so ``run`` cuts
    tables that the budget's own rule would hold."""
    return table_bytes <= locc.FRONTIER_BUDGET_BYTES


@pytest.mark.parametrize("seeds_per_block", [1, 3])
def test_seed_blocks_leave_the_run_unchanged(monkeypatch, seeds_per_block):
    # ``run`` walks all seeds of a component as one block and cuts it at seed
    # boundaries: the random cases, without repeated nodes, go row by row and
    # are cut where row-sized blocks were; the hash cases merge nodes, and a
    # strict table cap at half a seed's leaves cuts them too
    monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", 1 << 40)
    cases = list(_block_cases())
    whole = [run(proto, state) for proto, state in cases]
    monkeypatch.setattr(locc, "_fits", _strict_fits)
    for (proto, state), reference in zip(cases, whole):
        sizes = _seed_bytes(proto, state)
        assert reference.stats.seed_blocks == len(sizes)  # one block per component
        budget = seeds_per_block * max(sizes) // (1 if proto.name == "random" else 2)
        monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", budget)
        chunked = run(proto, state)
        if proto.name == "random":
            assert chunked.stats.seed_blocks == sum(-(-proto.n_seeds // (budget // size)) for size in sizes)
            assert chunked.stats.peak_frontier_bytes <= budget
        if seeds_per_block == 1:
            assert chunked.stats.seed_blocks >= 4
        assert_run_matches(chunked, reference)
        assert [leaf.weight for leaf in chunked.leaves] == [leaf.weight for leaf in reference.leaves]
        assert [(r.expanded, r.pruned) for r in chunked.stats.rounds] == [
            (r.expanded, r.pruned) for r in reference.stats.rounds
        ]


def _merged_cut_cases():
    # hash inputs whose children merge in part, so that a table cap of four
    # nodes cuts tables that hold merged classes
    yield make_simple_random_hash(3, 2), MeasureRModel(3, 1).states()[4]
    yield make_simple_random_hash(4, 2), MeasureRModel(4, 2).states()[4]


@pytest.mark.parametrize("case", range(2))
def test_cut_class_tables_leave_the_run_unchanged(monkeypatch, case):
    # a cut keeps a prefix of the table's classes, decodes them, and starts the
    # rest of the block on a new table
    proto, state = list(_merged_cut_cases())[case]
    reference = run(proto, state)
    merged_cuts = []
    cut = locc._cut

    def recording_cut(classes, done, *args):
        merged_cuts.append(bool(classes[: 2 * done].max() + 1 < 2 * done))  # the children so far merged
        return cut(classes, done, *args)

    budget = 4 * _row_bytes(proto, state)
    monkeypatch.setattr(locc, "_cut", recording_cut)
    monkeypatch.setattr(locc, "_fits", _strict_fits)
    monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", budget)
    chunked = run(proto, state)
    assert any(merged_cuts)
    assert chunked.stats.seed_blocks >= 4
    assert chunked.stats.peak_frontier_bytes <= budget
    assert any(r.distinct < 2 * r.expanded for r in chunked.stats.rounds)
    assert_run_matches(chunked, reference)
    assert _records(chunked) == _records(reference)
    assert [(r.expanded, r.pruned) for r in chunked.stats.rounds] == [
        (r.expanded, r.pruned) for r in reference.stats.rounds
    ]
    assert_matches_oracle(proto, state)


def _by_depth(levels):
    """Per depth, the (seed, code, label, probability) of every row of the
    levels at that depth, in the order they come."""
    rows = {}
    for level in levels:
        rows.setdefault(level.depth, []).extend(
            zip(level.seeds.tolist(), level.codes.tolist(), level.labels, level.probabilities.tolist())
        )
    return rows


def _components(state):
    return [st for _, st in state] if isinstance(state, list) else [state]


@pytest.mark.parametrize("case", range(5))
def test_class_walk_rows_equal_per_seed_walks(monkeypatch, case):
    # a block's walk merges nodes across seeds, and a budget of one seed's
    # rows cuts it; neither may change a row's seed, transcript or probability
    proto, state = list(_block_cases())[case]
    for component in _components(state):
        per_seed = {}
        for seed in range(proto.n_seeds):
            for depth, rows in _by_depth(walk(proto, component, np.array([seed]))).items():
                per_seed.setdefault(depth, []).extend(rows)
        seeds = np.arange(proto.n_seeds)
        assert _by_depth(walk(proto, component, seeds)) == per_seed
        monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", _seed_bytes(proto, component)[0])
        assert _by_depth(walk(proto, component, seeds)) == per_seed
        monkeypatch.undo()


def _records(result):
    return [
        (leaf.component, leaf.seed, leaf.transcript, leaf.weight, leaf.probability, leaf.accept_probability,
         None if leaf.output_state is None else leaf.output_state.tobytes())
        for leaf in result.leaves
    ]


def test_rows_differing_in_the_sign_of_zero_stay_apart():
    # +0.0 and -0.0 compare equal but differ in their bytes: they are two
    # classes, and inputs that differ only there match the dense oracle
    psi = np.zeros((2, 4, 4), dtype=np.complex128)
    psi[:, 0, 0] = psi[:, 3, 3] = 0.5
    psi[1, 1, 2] = -0.0
    rows = frontier.Pure(psi)
    table = frontier.ClassTable()
    assert table.add(rows).tolist() == [0, 1]
    assert table.add(frontier.Pure(psi[::-1].copy())).tolist() == [1, 0]
    plus = epr_state(2).amplitudes.copy()
    minus = np.where(plus == 0, -0.0, plus)
    assert np.array_equal(plus, minus) and plus.tobytes() != minus.tobytes()
    for proto in (make_simple_random_hash(2, 1), random_protocol(np.random.default_rng(5), 2, 2, n_seeds=2)):
        for amplitudes in (plus, minus):
            assert_matches_oracle(proto, PureState(2, 2, amplitudes))


def _part_bytes(rows):
    return [b"".join(part[i].tobytes() for part in rows.parts) for i in range(len(rows))]


def test_class_table_keys_rows_by_their_bytes():
    # rows are one class exactly when they hold the same bytes: sparse rows
    # whose amplitudes agree but whose column indexes differ, and rows that
    # differ only in the sign of a zero, are classes of their own; equal rows
    # merge across adds, and a chunk's new rows are numbered in the order of
    # their first row
    sparse = frontier.Sparse(np.full((2, 4), 0.5 + 0j), np.array([[0, 1, 2, 3], [1, 0, 3, 2]]), 4)
    zeros = np.zeros((2, 2, 2), dtype=np.complex128)
    zeros[:, 0, 0] = 0.5
    zeros[1, 1, 1] = -0.0
    same = np.repeat(zeros[:1], 2, axis=0)
    for rows in (sparse, frontier.Pure(zeros), frontier.Product(zeros, same), frontier.Dense(zeros, 2, 1)):
        table = frontier.ClassTable()
        assert table.add(rows).tolist() == [0, 1]
        assert table.add(rows.take([1, 0, 1])).tolist() == [1, 0, 1]
        assert len(table) == 2 and _part_bytes(table.frontier()) == _part_bytes(rows)
    gen = np.random.default_rng(8)
    psi = gen.normal(size=(3, 4, 4)) + 1j * gen.normal(size=(3, 4, 4))
    psi[:, 1, 2] = 0.0
    a, b, c = psi
    signed = a.copy()
    signed[1, 2] = -0.0
    table = frontier.ClassTable()
    assert table.add(frontier.Pure(np.array([a, b]))).tolist() == [0, 1]
    assert table.add(frontier.Pure(np.array([signed, c, a, signed, b, c]))).tolist() == [2, 3, 0, 2, 1, 3]
    assert _part_bytes(table.frontier()) == _part_bytes(frontier.Pure(np.array([a, b, signed, c])))


def _buffer(part):
    """The array that owns ``part``'s memory."""
    while part.base is not None:
        part = part.base
    return part


def test_class_table_hands_out_arrays_of_its_own_size():
    # the table holds each class once, as its key; the frontier it decodes
    # holds the classes alone, all parts in one buffer of exactly their
    # bytes, so that a level's bytes are what it keeps allocated
    gen = np.random.default_rng(3)
    psi = gen.normal(size=(5, 4, 4)) + 1j * gen.normal(size=(5, 4, 4))
    rho = np.array([random_density_matrix(gen, 1, 1).matrix for _ in range(5)])
    for rows in (
        frontier.Sparse(psi[:, 0], gen.integers(4, size=(5, 4)), 4),
        frontier.Pure(psi),
        frontier.Product(psi, psi[::-1].copy()),
        frontier.Dense(rho, 2, 2),
    ):
        table = frontier.ClassTable()
        for chunk in ([0, 1], [1, 2, 3], [0, 4, 4], [2]):
            table.add(rows.take(chunk))
        assert len(table) == 5
        for size in (None, 3):
            nodes = table.frontier(size)
            count = 5 if size is None else size
            buffers = {id(_buffer(part)) for part in nodes.parts}
            assert len(nodes) == count and len(buffers) == 1
            assert _buffer(nodes.parts[0]).nbytes == nodes.nbytes == count * rows.nbytes // 5
            assert _part_bytes(nodes) == _part_bytes(rows)[:count]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["sparse", "pure", "product", "dense"]),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    chunks=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6), min_size=1, max_size=4),
)
def test_class_table_numbers_and_decodes_as_a_dict_of_row_bytes(kind, seed, count, chunks):
    # ``add`` numbers classes as a dict over each row's bytes does, with rows
    # repeated across and within chunks and +0.0 / -0.0 twins kept apart, and
    # ``frontier`` decodes the first classes back to those rows byte for byte
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(count, 2, 2)) + 1j * gen.normal(size=(count, 2, 2))
    base[:, 0, 1] = 0.0
    twins = base.copy()
    twins[:, 0, 1] = -0.0
    pool = np.concatenate([base, twins])
    rows = {
        "sparse": frontier.Sparse(pool[:, 0], np.tile(gen.integers(2, size=(count, 2)), (2, 1)), 2),
        "pure": frontier.Pure(pool),
        "product": frontier.Product(pool, pool[::-1].copy()),
        "dense": frontier.Dense(pool, 2, 1),
    }[kind]
    table, reference = frontier.ClassTable(), {}
    for chunk in chunks:
        added = rows.take([i % len(pool) for i in chunk])
        expected = [reference.setdefault(key, len(reference)) for key in _part_bytes(added)]
        assert table.add(added).tolist() == expected
    keys = list(reference)
    assert len(table) == len(keys)
    for size in (1, max(1, len(keys) // 2), len(keys)):
        nodes = table.frontier(size)
        assert type(nodes) is type(rows)
        assert [(p.dtype, p.shape[1:]) for p in nodes.parts] == [(p.dtype, p.shape[1:]) for p in rows.parts]
        assert _part_bytes(nodes) == keys[:size]


def test_protocol_without_repeated_nodes_stays_within_the_budget():
    # every node of a random protocol is distinct, so the class tables are
    # its levels: ``run`` cuts them at the budget, as row-sized blocks would
    gen = np.random.default_rng(41)
    proto = random_protocol(gen, 3, 3, n_seeds=40, accept_kind="povm", with_listeners=True)
    state = random_pure_state(gen, 3, 3)
    assert _row_bytes(proto, state) * proto.n_seeds << proto.bits > 2 * locc.FRONTIER_BUDGET_BYTES
    result = run(proto, state)
    stats = result.stats
    assert stats.seed_blocks > 2
    assert stats.peak_frontier_bytes <= locc.FRONTIER_BUDGET_BYTES
    assert [r.distinct for r in stats.rounds] == [2 * r.expanded for r in stats.rounds]
    succ, out, cond = oracle(proto, state)
    assert result.success_probability == pytest.approx(succ, abs=1e-12)
    np.testing.assert_allclose(result.output.matrix, out, atol=1e-12)
    np.testing.assert_allclose(result.conditional_output.matrix, cond, atol=1e-12)


# ---------------------------------------------------------------------------
# the gathered POVM accept step


def _accept_per_element(protocol, leaves):
    """r_t and the post blocks of ``locc._accept``, measured one distinct
    POVM element at a time with a broadcast sqrt(M) computed on the spot."""
    rule = protocol.accept
    elements = rule.index[leaves.seeds, leaves.codes]
    r_joint = np.zeros(len(leaves))
    blocks = np.zeros((len(leaves), 4, 4), dtype=np.complex128)
    for element in np.unique(elements).tolist():
        rows = np.flatnonzero(elements == element)
        root = hermitian_sqrt(rule.elements[element], floor=1e-9)
        ops = np.broadcast_to(root, (len(rows), 1, 1) + root.shape)
        measured = leaves.states().take(rows).apply(ops, ALICE)
        r_joint[rows] = measured.norms()
        for i, row in enumerate(rows.tolist()):
            pair = _entry(protocol.output_pair, int(leaves.seeds[row]))
            blocks[row] = measured.take([i]).reduce_pair(protocol.n_pairs, pair)[0]
    kept = r_joint >= PROB_TOL
    blocks[~kept] = 0.0
    return np.where(kept, r_joint, 0.0) / leaves.probabilities, blocks


def _mixed_element_protocols():
    gen = np.random.default_rng(53)
    yield make_simple_random_hash(3, 2)
    yield random_protocol(gen, 2, 2, n_seeds=3, accept_kind="povm", with_listeners=True)


def _mixed_element_cases():
    gen = np.random.default_rng(59)
    for proto in _mixed_element_protocols():
        n = proto.n_pairs
        yield proto, random_pure_state(gen, n, n)
        yield proto, ProductState(random_density_matrix(gen, n, 0), random_density_matrix(gen, 0, n))
        yield proto, random_density_matrix(gen, n, n)


@pytest.mark.parametrize("case", range(6))
def test_gathered_accept_matches_per_element_and_oracle(case):
    proto, state = list(_mixed_element_cases())[case]
    mixed_blocks = 0
    for level in walk(proto, state, np.arange(proto.n_seeds)):
        if level.depth < proto.bits:
            continue
        scores = locc._score_leaves(proto, level)
        # one row per scored entry: per distinct (class, element, output pair)
        leaves, r_t, post = scores.scored, scores.accept, scores.post
        # the point of the case: one block's leaves need several elements
        mixed_blocks += len(np.unique(proto.accept.index[leaves.seeds, leaves.codes])) > 1
        r_ref, post_ref = _accept_per_element(proto, leaves)
        np.testing.assert_allclose(r_t, r_ref, atol=1e-12)
        np.testing.assert_allclose(post, post_ref, atol=1e-12)
    assert mixed_blocks
    result = run(proto, state)
    succ, out, cond = oracle(proto, state)
    assert result.success_probability == pytest.approx(succ, abs=1e-12)
    np.testing.assert_allclose(result.output.matrix, out, atol=1e-12)
    np.testing.assert_allclose(result.conditional_output.matrix, cond, atol=1e-12)


@pytest.mark.parametrize("index", range(2))
def test_splitting_report_with_gathered_accept(monkeypatch, index):
    proto = list(_mixed_element_protocols())[index]
    n = proto.n_pairs
    gathered = splitting.verify_splitting(proto)

    def accept_per_element(protocol, leaves, pairs):
        return _accept_per_element(protocol, leaves)

    monkeypatch.setattr(locc, "_accept", accept_per_element)
    per_element = splitting.verify_splitting(proto)
    for field in dataclasses.fields(gathered):
        a, b = getattr(gathered, field.name), getattr(per_element, field.name)
        assert a == (pytest.approx(b, abs=1e-12) if isinstance(b, float) else b), field.name
    assert gathered.p_success_perfect == pytest.approx(oracle(proto, epr_state(n))[0], abs=1e-12)
    mixed = ProductState.maximally_mixed(n, n)
    assert gathered.q_success_mixed == pytest.approx(oracle(proto, mixed)[0], abs=1e-12)


def test_accept_roots_are_computed_once_per_distinct_element(monkeypatch):
    calls = []

    def counting(m, *args, **kwargs):
        calls.append(len(m))
        return hermitian_sqrt(m, *args, **kwargs)

    monkeypatch.setattr("edplab.protocol.hermitian_sqrt", counting)
    proto = make_simple_random_hash(3, 2)
    dense = random_density_matrix(np.random.default_rng(2), 3, 3)
    for state in (epr_state(3), ProductState.maximally_mixed(3, 3), dense):
        run(proto, state)
    splitting.verify_splitting(proto)
    assert calls == [len(proto.accept.elements)]


# ---------------------------------------------------------------------------
# sparse pure nodes under monomial operators, against pure nodes and the oracle

_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


def _monomial_unitary(gen, n):
    """A permutation matrix times phases in {1, -1, i, -i}."""
    d = 1 << n
    op = np.zeros((d, d), dtype=np.complex128)
    op[np.arange(d), gen.permutation(d)] = _PHASES[gen.integers(4, size=d)]
    return op


def _monomial_instrument(gen, n, kraus_per_branch=1):
    """A computational-basis split (P, I - P) after a monomial unitary; with
    two Kraus operators per branch, each projector is split in two."""
    d = 1 << n
    u = _monomial_unitary(gen, n)
    side = gen.integers(2 * kraus_per_branch, size=d)
    kraus = [np.diag((side == k).astype(np.complex128)) @ u for k in range(2 * kraus_per_branch)]
    return Instrument(branches=(tuple(kraus[:kraus_per_branch]), tuple(kraus[kraus_per_branch:])))


def _monomial_protocol(gen, n, n_rounds, n_seeds, pool, accept_kind, with_listeners, breaker):
    """A pooled protocol of monomial operators, its seeds indexing at random
    into ``pool`` instruments and listeners per round; ``breaker`` swaps one
    round's first instrument for one that is not monomial (``unitary``) or
    that has two Kraus operators per branch (``kraus``)."""
    broken = int(gen.integers(n_rounds)) if breaker else -1
    rounds = []
    for k in range(n_rounds):
        instruments = [_monomial_instrument(gen, n) for _ in range(pool)]
        if k == broken:
            instruments[0] = random_instrument(gen, n) if breaker == "unitary" else _monomial_instrument(gen, n, 2)
        listeners = tuple(_monomial_unitary(gen, n) for _ in range(pool)) if with_listeners else None
        party = ALICE if gen.random() < 0.5 else BOB
        rounds.append(Round(party, tuple(instruments), listeners, gen.integers(pool, size=n_seeds),
                            None if listeners is None else gen.integers(pool, size=n_seeds)))
    if accept_kind == "always":
        accept = AlwaysAccept()
    elif accept_kind == "constant":
        accept = ConstantAccept(float(gen.uniform()))
    else:  # basis projectors, whose square roots are monomial
        d = 1 << n
        elements = tuple(np.diag((gen.random(d) < 0.5).astype(np.complex128)) for _ in range(pool))
        accept = PovmAccept(elements, gen.integers(pool, size=(n_seeds, 1 << n_rounds)))
    weights = gen.dirichlet(np.ones(n_seeds))
    return Protocol(n, tuple(weights.tolist()), tuple(rounds), accept, tuple(gen.integers(n, size=n_seeds).tolist()))


def _sparse_input(gen, n):
    """A random pure state with at most one nonzero amplitude per row of
    Alice's register, and at least one zero row when n > 1."""
    d = 1 << n
    psi = np.zeros((d, d), dtype=np.complex128)
    live = gen.random(d) < 0.7
    live[0] = True
    live[-1] &= d == 2
    psi[np.arange(d), gen.integers(d, size=d)] = np.where(live, gen.normal(size=d) + 1j * gen.normal(size=d), 0.0)
    return PureState(n, n, (psi / np.linalg.norm(psi)).reshape(-1))


def _forced_pure(state):
    """``locc.frontier_of`` that gives a pure state dense amplitudes."""
    real = locc.frontier_of

    def frontier_of(st):
        if st is not state:
            return real(st)
        psi = st.amplitudes.reshape(1 << st.n_alice, 1 << st.n_bob)
        return frontier.Pure(np.broadcast_to(psi, (1,) + psi.shape))

    return frontier_of


def _rows_by_depth(levels):
    """Per depth, the seeds, codes, probabilities and ``_amplitudes`` of
    every row of the levels at that depth, in the order they come."""
    parts = {}
    for level in levels:
        parts.setdefault(level.depth, []).append(
            (level.seeds, level.codes, level.probabilities, _amplitudes(level.states()))
        )
    return {depth: tuple(map(np.concatenate, zip(*columns))) for depth, columns in parts.items()}


def _amplitudes(nodes):
    """The rows of a frontier in a form to compare: amplitude matrices for
    sparse and pure nodes, matrices for dense ones."""
    if isinstance(nodes, frontier.Sparse):
        nodes = nodes.to_pure()
    return nodes.psi if isinstance(nodes, frontier.Pure) else nodes.rho


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    n_rounds=st.integers(1, 3),
    pool=st.integers(1, 3),
    n_seeds=st.integers(1, 40),
    accept_kind=st.sampled_from(["always", "constant", "povm"]),
    with_listeners=st.booleans(),
    breaker=st.sampled_from([None, None, "unitary", "kraus"]),
    slack=st.integers(0, 4),
)
def test_sparse_walks_equal_pure_walks_and_the_oracle(
    seed, n, n_rounds, pool, n_seeds, accept_kind, with_listeners, breaker, slack
):
    # gathers must give the matmul's states and probabilities bit for bit;
    # under budgets of the same number of rows, a sparse run takes the pure
    # run's blocks and classes, and then its results are the pure run's bit
    # for bit, except that it merges states that pure nodes keep apart by
    # the sign of a zero (a zero row is canonical), which moves its sums in
    # the last bits
    n_seeds = max(n_seeds, 2 * pool**2 + 3)
    gen = np.random.default_rng(seed)
    proto = _monomial_protocol(gen, n, n_rounds, n_seeds, pool, accept_kind, with_listeners, breaker)
    state = _sparse_input(gen, n)
    seeds = np.arange(n_seeds)
    results, levels = [], []
    for force in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if force:
                patch.setattr(locc, "frontier_of", _forced_pure(state))
                patch.setattr(errmodels, "frontier_of", locc.frontier_of)  # ``run``'s one-row stacks
            patch.setattr(locc, "FRONTIER_BUDGET_BYTES", (4 * pool**2 + slack) * _row_bytes(proto, state))
            results.append(run(proto, state))
            levels.append(list(walk(proto, state, seeds)))
    sparse, pure = results
    dense = breaker is not None and breaker == "kraus"
    assert sparse.stats.representations == ("sparse->dense" if dense else "sparse->pure" if breaker else "sparse",)
    assert pure.stats.representations == ("pure->dense" if dense else "pure",)
    # the two forms may be cut at different seeds, so rows are compared per depth
    sparse_rows, pure_rows = (_rows_by_depth(walked) for walked in levels)
    assert sparse_rows.keys() == pure_rows.keys()
    for depth, (seeds_s, codes_s, probabilities_s, amplitudes_s) in sparse_rows.items():
        seeds_p, codes_p, probabilities_p, amplitudes_p = pure_rows[depth]
        assert np.array_equal(seeds_s, seeds_p) and np.array_equal(codes_s, codes_p)
        assert probabilities_s.tobytes() == probabilities_p.tobytes()
        assert np.array_equal(amplitudes_s, amplitudes_p)
    assert_run_matches(sparse, pure)
    if breaker is None:
        assert _merged(sparse.stats)
    if [r.distinct for r in sparse.stats.rounds] == [r.distinct for r in pure.stats.rounds] and breaker is None:
        assert sparse.success_probability == pure.success_probability
        assert np.array_equal(sparse.output.matrix, pure.output.matrix)
        if pure.conditional_output is None:
            assert sparse.conditional_output is None
        else:
            assert np.array_equal(sparse.conditional_output.matrix, pure.conditional_output.matrix)
        assert _records(sparse) == _records(pure)
    succ, out, cond = oracle(proto, state)
    assert sparse.success_probability == pytest.approx(succ, abs=1e-10)
    np.testing.assert_allclose(sparse.output.matrix, out, atol=1e-10)
    if cond is None:
        assert sparse.conditional_output is None
    else:
        np.testing.assert_allclose(sparse.conditional_output.matrix, cond, atol=1e-10)


def test_pure_input_with_two_nonzeros_in_a_row_is_walked_pure():
    psi = np.zeros((4, 4), dtype=np.complex128)
    psi[0, 0] = psi[1, 2] = psi[2, 1] = psi[3, 3] = 0.5
    assert isinstance(frontier.frontier_of(PureState(2, 2, psi.reshape(-1))), frontier.Sparse)
    psi[1, 1] = psi[1, 2] = 0.5**1.5  # row 1 now holds two nonzeros
    state = PureState(2, 2, psi.reshape(-1))
    assert isinstance(frontier.frontier_of(state), frontier.Pure)
    proto = make_simple_random_hash(2, 1)
    assert run(proto, state).stats.representations == ("pure",)
    assert_matches_oracle(proto, state)


def test_zero_rows_are_canonical_so_equal_states_merge():
    # two states that differ only in rows that a projector on Alice's
    # register zeroes, one of them by a phase -1 on a zero row: their
    # children hold the same bytes and merge into one class
    amps = np.array([[0.6, 0.8, 0.0, 0.0], [0.6, -0.8j, 0.0, 0.0]], dtype=np.complex128)
    cols = np.array([[1, 2, 0, 0], [1, 3, 0, 0]])
    nodes = frontier.Sparse(amps, cols, 4)
    projector = np.diag([-1.0, 0.0, -1.0, 0.0]).astype(np.complex128)
    table = frontier.gathers(projector[None, None], ALICE)
    children = nodes.gather(table.take(np.zeros(2, dtype=np.intp)), ALICE)
    assert children.amps.tobytes() == np.array([[-0.6, 0, 0, 0]] * 2, dtype=np.complex128).tobytes()
    assert children.cols.tolist() == [[1, 0, 0, 0]] * 2
    assert frontier.ClassTable().add(children).tolist() == [0, 0]
    # the gather is the matmul, and so is Bob's side
    psi = nodes.to_pure().psi
    assert np.array_equal(children.to_pure().psi, projector @ psi)
    bob = _monomial_unitary(np.random.default_rng(4), 2)
    gathered = nodes.gather(frontier.gathers(bob[None, None], BOB).take(np.zeros(2, dtype=np.intp)), BOB)
    assert np.array_equal(gathered.to_pure().psi, psi @ bob.T)
    assert frontier.gathers(random_instrument(np.random.default_rng(4), 2).kraus[0][0][None, None], ALICE) is None
