import math

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch import synthesizer
from genmatch.attention import additive_attention, init_attention
from genmatch.autodiff import ParamStore, Tensor
from genmatch.corpus import BOS, EOS, PAD, Vocabulary
from genmatch.encoders import ContextualEncoding
from genmatch.synthesizer import (
    decode_step,
    decoder_memory,
    generate_answer,
    initial_state,
    init_decoder,
    synthesis_loss,
    teacher_targets,
)

from helpers import (
    check_gradients,
    composite_additive_attention,
    composite_generate_answer,
    composite_scores,
    per_step_synthesis_loss,
    reachable_op_nodes,
    positions,
    phase_peaks,
    sum_groups,
)


def make_encoding(rng, batch, length, hidden, mask=None):
    mask = mask if mask is not None else np.ones((batch, length), dtype=bool)
    data = rng.standard_normal((batch * length, 2 * hidden))
    data *= mask.reshape(-1, 1)
    return ContextualEncoding(flat=Tensor(data), mask=mask,
                              final=Tensor(np.zeros((batch, 2 * hidden))))


def vocab_fixture():
    return Vocabulary.build([["red", "blue", "green", "dog"]], cap=65_000)


def with_keys(flat, mask, params):
    """One attention memory: its rows, their projected keys and its mask."""
    return (flat, ad.matmul(flat, params.w_memory), mask)


def setup_decoder(rng, hidden=3, embed=4, vocab=None):
    vocab = vocab or vocab_fixture()
    store = ParamStore()
    table = store.create("emb", rng.standard_normal((len(vocab), embed)) * 0.3)
    params = init_decoder(store, embed, hidden, len(vocab), rng)
    return params, table, vocab, store


# ---------------------------------------------------------------------------
# additive attention


def test_attention_uniform_scores_gives_mean_of_memory():
    rng = np.random.default_rng(0)
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=4, query_dim=3, proj_dim=2, rng=rng)
    params.v.data[...] = 0.0  # all scores collapse to zero
    memory = make_encoding(rng, 1, 3, 2)
    out, _ = additive_attention(Tensor(rng.standard_normal((1, 3))),
                                [with_keys(memory.flat, memory.mask, params)], params)
    np.testing.assert_allclose(out.data[0], positions(memory)[0].mean(axis=0), atol=1e-12)


def test_attention_single_unmasked_position_returns_it():
    rng = np.random.default_rng(1)
    store = ParamStore()
    params = init_attention(store, "attn", 4, 3, 2, rng)
    mask = np.array([[False, True, False]])
    memory = make_encoding(rng, 1, 3, 2, mask=mask)
    out, weights = additive_attention(Tensor(rng.standard_normal((1, 3))),
                                      [with_keys(memory.flat, memory.mask, params)], params)
    np.testing.assert_allclose(out.data[0], positions(memory)[0][1], atol=1e-12)
    np.testing.assert_array_equal(weights.data, mask)


def test_attention_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=2, query_dim=2, proj_dim=2, rng=rng)
    memory_rows = rng.standard_normal((3, 2))
    query = rng.standard_normal((1, 2))
    out, _ = additive_attention(Tensor(query),
                                [with_keys(Tensor(memory_rows), np.ones((1, 3)), params)],
                                params)
    scores = []
    for j in range(3):
        pre = memory_rows[j] @ params.w_memory.data + query[0] @ params.w_query.data \
            + params.bias.data
        scores.append(float(np.tanh(pre) @ params.v.data[:, 0]))
    weights = np.exp(scores - np.max(scores))
    weights /= weights.sum()
    expected = sum(w * memory_rows[j] for j, w in enumerate(weights))
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_attention_one_memory_is_bit_identical_to_the_single_softmax_composite():
    # one memory goes through a one-part concat and a full-width slice; both
    # are copies, so every forward and backward value equals the composite's
    rng = np.random.default_rng(30)
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=4, query_dim=3, proj_dim=5, rng=rng)
    memory = store.create("memory", rng.standard_normal((2 * 4, 4)))
    query = store.create("query", rng.standard_normal((2, 3)))
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool)
    readout = rng.standard_normal((2, 4))

    def composite():
        keys = ad.matmul(memory, params.w_memory)
        weights = ad.masked_softmax(composite_scores(query, keys, 4, params), mask)
        context = sum_groups(ad.mul(memory, ad.reshape(weights, (2 * 4, 1))), 4)
        return context, weights

    def grads_of(attend):
        ad.zero_grads(store.all())
        context, weights = attend()
        ad.backward(ad.add(ad.tensor_sum(ad.mul_const(context, readout)),
                           ad.tensor_sum(ad.mul(weights, weights))))
        return context.data, weights.data, {p.name: p.grad.copy() for p in store.all()}

    got = grads_of(lambda: additive_attention(query, [with_keys(memory, mask, params)],
                                              params))
    want = grads_of(composite)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for name in want[2]:
        np.testing.assert_array_equal(got[2][name], want[2][name], err_msg=name)


def attention_grads(attend, lengths, budget, monkeypatch, shared_query, second_consumer):
    """Context, weights and every gradient of a loss read from one attention
    call over memories of ``lengths`` positions, right-padded per instance."""
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK", budget)
    rng = np.random.default_rng(40 + len(lengths))
    batch = 5
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=4, query_dim=3, proj_dim=6, rng=rng)
    query = store.create("query", rng.standard_normal((batch, 3)))
    memories = []
    for k, length in enumerate(lengths):
        mask = (np.arange(length)[None, :] < rng.integers(1, length + 1, size=(batch, 1)))
        memories.append((store.create(f"memory{k}", rng.standard_normal((batch * length, 4))),
                         store.create(f"keys{k}", rng.standard_normal((batch * length, 6))),
                         mask))
    readout = Tensor(rng.standard_normal((batch, 4)))
    context, weights = attend(query, memories, params)
    loss = ad.add(ad.tensor_sum(ad.mul(context, readout)),
                  ad.tensor_sum(ad.mul(weights, weights)))
    if shared_query:
        loss = ad.add(loss, ad.tensor_sum(ad.mul(query, query)))
    if second_consumer:  # as span_loss reads the span distributions
        width = weights.data.shape[1]  # each row's first weight
        picked = ad.gather_rows(ad.reshape(weights, (batch * width, 1)),
                                np.arange(batch) * width)
        loss = ad.add(loss, ad.tensor_sum(ad.log(picked)))
    ad.backward(loss)
    return context.data, weights.data, {p.name: p.grad for p in store.all()}


@pytest.mark.parametrize("lengths", [(7,), (7, 3)], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("budget", [1 << 16, 1, 90],
                         ids=["one_block", "per_instance", "blocks_of_2_to_7"])
@pytest.mark.parametrize("shared_query, second_consumer",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_attention_ops_are_bit_identical_to_the_composite(lengths, budget, shared_query,
                                                          second_consumer, monkeypatch):
    got = attention_grads(additive_attention, lengths, budget, monkeypatch, shared_query,
                          second_consumer)
    want = attention_grads(composite_additive_attention, lengths, budget, monkeypatch,
                           shared_query, second_consumer)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert sorted(got[2]) == sorted(want[2])
    for name, grad in want[2].items():
        assert (grad is None) == (name == "attn.w_memory"), name  # the keys are given
        np.testing.assert_array_equal(got[2][name], grad, err_msg=name)


def test_recorded_attention_weights_hold_no_tanh():
    rng = np.random.default_rng(43)
    store = ParamStore()
    batch, length, proj = 4, 64, 32
    params = init_attention(store, "attn", memory_dim=4, query_dim=8, proj_dim=proj, rng=rng)
    memory = store.create("memory", rng.standard_normal((batch * length, 4)))
    keys = store.create("keys", rng.standard_normal((batch * length, proj)))
    query = store.create("query", rng.standard_normal((batch, 8)))
    (_, weights), phases = phase_peaks(
        lambda: additive_attention(query, [(memory, keys, np.ones((batch, length), bool))],
                                   params),
        [(ad, "attention_weights")])
    assert weights.requires_grad
    start, peak, end = phases["attention_weights"]
    # the forward builds one (B, T, A) tanh; once it returns, the node holds
    # the weights, ``query W_q`` and a few small objects
    tanh_mb = batch * length * proj * 8 / 2**20
    assert end - start < tanh_mb <= peak - start, phases


def test_attention_records_two_tape_ops():
    rng = np.random.default_rng(41)
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=4, query_dim=3, proj_dim=2, rng=rng)
    memory = store.create("memory", rng.standard_normal((2 * 3, 4)))
    keys = store.create("keys", rng.standard_normal((2 * 3, 2)))
    query = store.create("query", rng.standard_normal((2, 3)))
    context, weights = additive_attention(query, [(memory, keys, np.ones((2, 3), bool))],
                                          params)
    assert context._parents[-1] is weights
    assert reachable_op_nodes(context) == 2


def test_attention_two_memories_share_one_softmax():
    rng = np.random.default_rng(31)
    store = ParamStore()
    params = init_attention(store, "attn", memory_dim=4, query_dim=3, proj_dim=2, rng=rng)
    passage = make_encoding(rng, 2, 4, 2, mask=np.array([[1] * 4, [1, 1, 0, 0]], dtype=bool))
    question = make_encoding(rng, 2, 2, 2, mask=np.array([[1, 1], [1, 0]], dtype=bool))
    context, weights = additive_attention(
        Tensor(rng.standard_normal((2, 3))),
        [with_keys(passage.flat, passage.mask, params),
         with_keys(question.flat, question.mask, params)], params)
    assert weights.data.shape == (2, 6)
    np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(weights.data[1, [2, 3, 5]], 0.0)
    assert np.all(weights.data[0] > 0)
    expected = (np.einsum("bt,btm->bm", weights.data[:, :4], positions(passage))
                + np.einsum("bt,btm->bm", weights.data[:, 4:], positions(question)))
    np.testing.assert_allclose(context.data, expected, atol=1e-12)


def test_attention_weights_sum_to_one_each_step():
    rng = np.random.default_rng(3)
    params, table, vocab, _ = setup_decoder(rng)
    passage = make_encoding(rng, 2, 4, 3, mask=np.array([[1] * 4, [1, 1, 0, 0]], dtype=bool))
    question = make_encoding(rng, 2, 2, 3)
    memory = decoder_memory(passage, question, params.attention)
    hidden, word, context = initial_state(passage, question, table, 2, params)
    for _ in range(3):
        hidden, context = decode_step(hidden, word, context, memory, params)
        again, weights = additive_attention(hidden, memory, params.attention)
        np.testing.assert_array_equal(again.data, context.data)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(weights.data[1, 2:4], 0.0)
        word = ad.gather_rows(table, np.array([4, 5]))


def test_hoisted_keys_give_the_context_and_weights_of_keys_projected_each_step():
    rng = np.random.default_rng(32)
    params, table, vocab, _ = setup_decoder(rng)
    passage = make_encoding(rng, 2, 4, 3, mask=np.array([[1] * 4, [1, 1, 1, 0]], dtype=bool))
    question = make_encoding(rng, 2, 3, 3, mask=np.array([[1, 1, 0], [1] * 3], dtype=bool))
    memory = decoder_memory(passage, question, params.attention)
    hidden, word, context = initial_state(passage, question, table, 2, params)
    for step in range(4):
        hidden, context = decode_step(hidden, word, context, memory, params)
        _, hoisted_weights = additive_attention(hidden, memory, params.attention)
        projected_here = [with_keys(enc.flat, enc.mask, params.attention)
                          for enc in (passage, question)]
        inside, inside_weights = additive_attention(hidden, projected_here, params.attention)
        np.testing.assert_array_equal(context.data, inside.data)
        np.testing.assert_array_equal(hoisted_weights.data, inside_weights.data)
        word = ad.gather_rows(table, np.array([4 + step, 5]))


def test_attention_empty_memory_rejected():
    rng = np.random.default_rng(4)
    store = ParamStore()
    params = init_attention(store, "attn", 4, 3, 2, rng)
    query = Tensor(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        additive_attention(query, [], params)
    with pytest.raises(ValueError):
        empty = with_keys(Tensor(np.zeros((0, 4))), np.zeros((1, 0), bool), params)
        additive_attention(query, [empty], params)


# ---------------------------------------------------------------------------
# decode steps


def test_decode_step_logits_cover_vocabulary_and_are_deterministic():
    rng = np.random.default_rng(5)
    params, table, vocab, _ = setup_decoder(rng)
    passage = make_encoding(rng, 2, 3, 3)
    question = make_encoding(rng, 2, 2, 3)
    memory = decoder_memory(passage, question, params.attention)
    state = initial_state(passage, question, table, 2, params)

    def logits():
        hidden, context = decode_step(*state, memory, params)
        return ad.matmul(ad.concat([hidden, context], axis=1), params.out_w).data

    logits_a, logits_b = logits(), logits()
    assert logits_a.shape == (2, len(vocab))
    np.testing.assert_array_equal(logits_a, logits_b)


def test_decoder_two_step_gradients_pass_check():
    rng = np.random.default_rng(6)
    params, table, vocab, store = setup_decoder(rng, hidden=3, embed=3)
    p_data = rng.standard_normal((1 * 3, 6))
    q_data = rng.standard_normal((1 * 2, 6))

    def loss_fn():
        passage = ContextualEncoding(flat=Tensor(p_data), mask=np.ones((1, 3), dtype=bool),
                                     final=Tensor(np.zeros((1, 6))))
        question = ContextualEncoding(flat=Tensor(q_data), mask=np.ones((1, 2), dtype=bool),
                                      final=Tensor(np.zeros((1, 6))))
        return synthesis_loss(passage, question, table, params,
                              [vocab.ids(["red", "dog"])])

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# greedy generation


def test_generation_all_mass_on_eos_gives_empty_surface():
    rng = np.random.default_rng(7)
    params, table, vocab, _ = setup_decoder(rng)
    params.out_w.data[...] = 0.0
    params.out_b.data[...] = -50.0
    params.out_b.data[EOS] = 50.0
    passage = make_encoding(rng, 2, 3, 3)
    question = make_encoding(rng, 2, 2, 3)
    answers = generate_answer(passage, question, table, params, vocab, max_length=30)
    for ans in answers:
        assert ans.token_ids == (EOS,)
        assert ans.surface_tokens == ()
        assert ans.text == ""
        assert len(ans.token_logprobs) == 1


def test_generation_deterministic_and_capped():
    rng = np.random.default_rng(8)
    params, table, vocab, _ = setup_decoder(rng)
    passage = make_encoding(rng, 1, 3, 3)
    question = make_encoding(rng, 1, 2, 3)
    first = generate_answer(passage, question, table, params, vocab, max_length=5)
    second = generate_answer(passage, question, table, params, vocab, max_length=5)
    assert first == second
    assert len(first[0].token_ids) <= 5
    assert BOS not in first[0].token_ids
    assert 0 not in first[0].token_ids  # no padding emitted


def test_greedy_token_logprobs_equal_a_numpy_log_softmax_bit_for_bit():
    # the decoder reads the log-probability of each pick alone; it must be
    # the very value the full log-softmax array holds there
    rng = np.random.default_rng(33)
    vocab = Vocabulary.build([[f"w{i}" for i in range(300)]], cap=65_000)
    params, table, vocab, _ = setup_decoder(rng, hidden=4, embed=5, vocab=vocab)
    params.out_w.data *= 4.0
    passage = make_encoding(rng, 3, 5, 4, mask=np.array([[1] * 5, [1] * 3 + [0] * 2,
                                                         [1] * 4 + [0]], dtype=bool))
    question = make_encoding(rng, 3, 2, 4)
    answers = generate_answer(passage, question, table, params, vocab, max_length=8)

    with ad.no_grad():
        memory = decoder_memory(passage, question, params.attention)
        hidden, word, context = initial_state(passage, question, table, 3, params)
        picked, logprobs = [], []
        for _ in range(8):
            hidden, context = decode_step(hidden, word, context, memory, params)
            logits = ad.add(ad.matmul(ad.concat([hidden, context], axis=1), params.out_w),
                            params.out_b).data
            shifted = logits - logits.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            choice = logits.copy()
            choice[:, [PAD, BOS]] = -np.inf
            picks = np.argmax(choice, axis=1)
            picked.append(picks)
            logprobs.append(logp[np.arange(3), picks])
            word = ad.gather_rows(table, picks)
    picked, logprobs = np.array(picked).T, np.array(logprobs).T
    assert sum(len(a.token_ids) for a in answers) > 3
    for b, answer in enumerate(answers):
        steps = len(answer.token_ids)
        assert answer.token_ids == tuple(int(i) for i in picked[b, :steps])
        np.testing.assert_array_equal(np.array(answer.token_logprobs), logprobs[b, :steps])


def greedy_case(rng):
    vocab = Vocabulary.build([[f"w{i}" for i in range(300)]], cap=65_000)
    params, table, vocab, _ = setup_decoder(rng, hidden=4, embed=5, vocab=vocab)
    params.out_w.data *= 4.0
    passage = make_encoding(rng, 5, 5, 4, mask=np.array([[1] * 5, [1] * 3 + [0] * 2,
                                                         [1] * 4 + [0], [1] * 5,
                                                         [1] + [0] * 4], dtype=bool))
    question = make_encoding(rng, 5, 2, 4)
    return passage, question, table, params, vocab


def test_greedy_decoding_in_row_blocks_equals_the_whole_array_composite(monkeypatch):
    passage, question, table, params, vocab = greedy_case(np.random.default_rng(34))
    want = composite_generate_answer(passage, question, table, params, vocab, max_length=8)
    # blocks of 2 rows over a batch of 5: the last block is a single row
    monkeypatch.setattr(synthesizer, "_LOGIT_BLOCK", 2 * len(vocab))
    got = generate_answer(passage, question, table, params, vocab, max_length=8)
    assert sum(len(a.token_ids) for a in want) > 5
    assert got == want


def test_a_non_finite_output_bias_raises_during_greedy_decoding():
    passage, question, table, params, vocab = greedy_case(np.random.default_rng(35))
    params.out_b.data[7] = np.inf  # as an optimizer step may write it
    with pytest.raises(ad.NonFiniteError) as excinfo:
        generate_answer(passage, question, table, params, vocab, max_length=8)
    assert str(excinfo.value) == "non-finite value from generate_answer"


# ---------------------------------------------------------------------------
# synthesis loss


def test_teacher_targets_layout():
    inputs, targets, mask = teacher_targets([[7, 8], [9]])
    np.testing.assert_array_equal(inputs, [[BOS, 7, 8], [BOS, 9, 0]])
    np.testing.assert_array_equal(targets, [[7, 8, EOS], [9, EOS, 0]])
    np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 1, 0]])
    with pytest.raises(ValueError):
        teacher_targets([[]])


def test_synthesis_loss_uniform_distribution_is_log_vocab():
    rng = np.random.default_rng(9)
    params, table, vocab, _ = setup_decoder(rng)
    params.out_w.data[...] = 0.0
    params.out_b.data[...] = 0.0  # uniform output distribution
    passage = make_encoding(rng, 2, 3, 3)
    question = make_encoding(rng, 2, 2, 3)
    loss = synthesis_loss(passage, question, table, params, [[4], [5, 6]])
    assert loss.item() == pytest.approx(math.log(len(vocab)))


def test_synthesis_loss_decreases_under_adam_on_one_instance():
    rng = np.random.default_rng(10)
    params, table, vocab, store = setup_decoder(rng)
    p_data = rng.standard_normal((1 * 3, 6))
    q_data = rng.standard_normal((1 * 2, 6))

    def loss_fn():
        passage = ContextualEncoding(flat=Tensor(p_data), mask=np.ones((1, 3), dtype=bool),
                                     final=Tensor(np.zeros((1, 6))))
        question = ContextualEncoding(flat=Tensor(q_data), mask=np.ones((1, 2), dtype=bool),
                                      final=Tensor(np.zeros((1, 6))))
        return synthesis_loss(passage, question, table, params, [[4, 5]])

    opt = ad.Adam(store.all(), lr=0.005)
    losses = []
    for _ in range(20):
        ad.zero_grads(store.all())
        loss = loss_fn()
        losses.append(loss.item())
        ad.backward(loss)
        opt.step(1.0)
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_synthesis_loss_matches_the_per_step_composite(dtype):
    # one projection for all steps and keys projected once reorder sums
    # only, so the loss and every gradient agree with the per-step form
    rng = np.random.default_rng(34)
    vocab = Vocabulary.build([[f"w{i}" for i in range(40)]], cap=65_000)
    store = ParamStore(dtype)
    table = store.create("emb", rng.standard_normal((len(vocab), 5)) * 0.3)
    params = init_decoder(store, 5, 4, len(vocab), rng)
    p_mask = np.array([[1] * 6, [1] * 4 + [0] * 2, [1] * 5 + [0]], dtype=bool)
    p_flat = store.create("passage", rng.standard_normal((3 * 6, 8)) * p_mask.reshape(-1, 1))
    q_flat = store.create("question", rng.standard_normal((3 * 3, 8)))
    targets = [[4, 9, 9, 17], [30], [5, 4, 12]]  # uneven lengths, a repeated id

    def encoding(flat, mask):
        return ContextualEncoding(flat=flat, mask=mask, final=Tensor(np.zeros((3, 8), dtype)))

    def run(loss_fn):
        ad.zero_grads(store.all())
        loss = loss_fn(encoding(p_flat, p_mask), encoding(q_flat, np.ones((3, 3), dtype=bool)),
                       table, params, targets)
        ad.backward(loss)
        return loss.item(), {p.name: p.grad.copy() for p in store.all()}

    loss, grads = run(synthesis_loss)
    want_loss, want_grads = run(per_step_synthesis_loss)
    loss_rtol, grad_rtol = (1e-12, 1e-10) if dtype == np.float64 else (1e-6, 1e-4)
    assert loss == pytest.approx(want_loss, rel=loss_rtol, abs=0)
    for name, want in want_grads.items():
        assert grads[name].dtype == dtype
        np.testing.assert_allclose(grads[name], want, rtol=grad_rtol, atol=0, err_msg=name)
