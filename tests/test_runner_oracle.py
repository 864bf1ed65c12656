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

from edplab import locc, verify
from edplab.errmodels import MeasureRModel, fidelity_witness, fidelity_witness_components
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
    random_instrument,
    random_protocol,
    run,
    walk,
)
from edplab.qcore import (
    ALICE,
    BOB,
    DensityMatrix,
    ProductState,
    as_density,
    epr_state,
    hermitian_sqrt,
    partial_trace,
)
from edplab.rng import substream
from edplab.sampling import random_density_matrix, random_pure_state


def _embed(op: np.ndarray, party: str, n: int) -> np.ndarray:
    eye = np.eye(1 << n)
    return np.kron(op, eye) if party == ALICE else np.kron(eye, op)


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
    labels, probabilities and normalized local states."""
    seeds = np.arange(protocol.n_seeds)
    for level_a, level_b in zip(walk(protocol, state_a, seeds), walk(protocol, state_b, seeds), strict=True):
        assert list(zip(level_a.seeds, level_a.labels)) == list(zip(level_b.seeds, level_b.labels))
        locals_a, locals_b = level_a.local_states(), level_b.local_states()
        for row, (pa, pb) in enumerate(zip(level_a.probabilities, level_b.probabilities)):
            assert pa == pytest.approx(pb, abs=atol)
            if pb >= PROB_TOL:
                for local_a, local_b in zip(locals_a, locals_b):
                    np.testing.assert_allclose(local_a[row] / pa, local_b[row] / pb, atol=atol)


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
    alice_locals, bob_locals = leaves.local_states()
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
    yield make_simple_random_hash(4, 2), MeasureRModel(4, 2).run_inputs()[3]
    proto = random_protocol(
        gen, 2, 2, n_seeds=6, kraus_per_branch=2, accept_kind="povm", with_listeners=True
    )
    yield proto, random_density_matrix(gen, 2, 2)
    proto = random_protocol(gen, 2, 3, n_seeds=5, accept_kind="constant", with_listeners=True)
    yield proto, ProductState(random_density_matrix(gen, 2, 0), random_density_matrix(gen, 0, 2))
    yield random_protocol(gen, 1, 2, n_seeds=4, kraus_per_branch=2), random_pure_state(gen, 1, 1)


def _seed_bytes(proto, state):
    """Bytes one seed's widest level takes, per input component, as
    ``locc.seed_blocks`` counts them."""
    components = state if isinstance(state, list) else [(1.0, state)]
    return [locc._row_bytes(proto, st) << proto.bits for _, st in components]


@pytest.mark.parametrize("seeds_per_block", [1, 3])
def test_seed_blocks_leave_the_run_unchanged(monkeypatch, seeds_per_block):
    monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", 1 << 40)
    cases = list(_block_cases())
    whole = [run(proto, state) for proto, state in cases]
    for (proto, state), reference in zip(cases, whole):
        sizes = _seed_bytes(proto, state)
        assert reference.stats.seed_blocks == len(sizes)  # one block per component
        budget = seeds_per_block * max(sizes)
        monkeypatch.setattr(locc, "FRONTIER_BUDGET_BYTES", budget)
        chunked = run(proto, state)
        blocks = sum(-(-proto.n_seeds // (budget // size)) for size in sizes)
        assert chunked.stats.seed_blocks == blocks
        if seeds_per_block == 1:
            assert blocks >= 4
        assert_run_matches(chunked, reference)
        assert [leaf.weight for leaf in chunked.leaves] == [leaf.weight for leaf in reference.leaves]
        assert [(r.expanded, r.pruned) for r in chunked.stats.rounds] == [
            (r.expanded, r.pruned) for r in reference.stats.rounds
        ]


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
        measured = leaves.frontier.take(rows).apply(ops, ALICE)
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
    for block in locc.seed_blocks(proto, [state], np.arange(proto.n_seeds)):
        *_, level = walk(proto, state, block)
        leaves, _, r_t, post = locc._score_leaves(proto, level)
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
    gathered = verify.verify_splitting(proto)

    def accept_per_element(protocol, leaves, pairs):
        return _accept_per_element(protocol, leaves)

    monkeypatch.setattr(locc, "_accept", accept_per_element)
    per_element = verify.verify_splitting(proto)
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

    monkeypatch.setattr(locc, "hermitian_sqrt", counting)
    proto = make_simple_random_hash(3, 2)
    dense = random_density_matrix(np.random.default_rng(2), 3, 3)
    for state in (epr_state(3), ProductState.maximally_mixed(3, 3), dense):
        run(proto, state)
    verify.verify_splitting(proto)
    assert calls == [len(proto.accept.elements)]
