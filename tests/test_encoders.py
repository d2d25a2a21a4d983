import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch import encoders
from genmatch.autodiff import ParamStore, Tensor, tensor_sum
from genmatch.corpus import CharVocabulary
from genmatch.encoders import (
    ContextualEncoding,
    EmbeddedSequence,
    add_span_channels,
    bigru_encode,
    char_embed_tokens,
    embed_with_chars,
    init_bigru,
    init_char_encoder,
)

from helpers import (
    check_gradients,
    composite_bigru,
    composite_mean_pooled,
    loop_char_surfaces,
    positions,
)


def make_sequence(rng, batch, length, dim, mask=None):
    mask = mask if mask is not None else np.ones((batch, length), dtype=bool)
    data = rng.standard_normal((length * batch, dim))
    data *= mask.T.reshape(-1, 1)
    return EmbeddedSequence(flat=Tensor(data), mask=mask)


def encoder(rng, dim, hidden, store=None, prefix="enc"):
    store = store or ParamStore()
    return init_bigru(store, prefix, dim, hidden, rng), store


# ---------------------------------------------------------------------------
# BiGRU encoding


def test_length_one_sequence_concatenates_both_directions():
    rng = np.random.default_rng(0)
    params, _ = encoder(rng, 3, 4)
    seq = make_sequence(rng, 2, 1, 3)
    enc = bigru_encode(seq, params)
    fwd = ad.gru_cell(seq.flat, Tensor(np.zeros((2, 4))), params[0])
    bwd = ad.gru_cell(seq.flat, Tensor(np.zeros((2, 4))), params[1])
    np.testing.assert_array_equal(positions(enc)[:, 0, :4], fwd.data)
    np.testing.assert_array_equal(positions(enc)[:, 0, 4:], bwd.data)
    np.testing.assert_array_equal(enc.final.data, np.hstack([fwd.data, bwd.data]))


def test_reversing_input_swaps_direction_halves():
    rng = np.random.default_rng(1)
    params, _ = encoder(rng, 3, 4)
    data = rng.standard_normal((3, 3))  # one instance, 3 positions
    mask = np.ones((1, 3), dtype=bool)
    fwdseq = EmbeddedSequence(flat=Tensor(data), mask=mask)
    revseq = EmbeddedSequence(flat=Tensor(data[::-1].copy()), mask=mask)
    enc = bigru_encode(fwdseq, params)
    renc = bigru_encode(revseq, params)
    # Swapping the direction parameters on the reversed input reproduces the
    # original encoding with halves exchanged and positions reversed.
    senc = bigru_encode(revseq, params[::-1])
    orig = positions(enc)[0]
    mirrored = positions(senc)[0][::-1]
    np.testing.assert_allclose(orig[:, :4], mirrored[:, 4:], atol=1e-12)
    np.testing.assert_allclose(orig[:, 4:], mirrored[:, :4], atol=1e-12)
    assert not np.allclose(positions(renc), positions(enc))


def test_per_position_dimension_is_twice_hidden():
    rng = np.random.default_rng(2)
    params, _ = encoder(rng, 5, 128)
    seq = make_sequence(rng, 1, 2, 5)
    enc = bigru_encode(seq, params)
    assert positions(enc).shape == (1, 2, 256)
    assert enc.final.data.shape == (1, 256)


def test_masked_padding_does_not_change_unmasked_outputs():
    rng = np.random.default_rng(3)
    params, _ = encoder(rng, 3, 4)
    length = 5
    data = rng.standard_normal((length, 3))
    full = EmbeddedSequence(flat=Tensor(data.copy()), mask=np.ones((1, length), dtype=bool))
    padded_data = np.vstack([data, rng.standard_normal((2, 3))])
    mask = np.array([[True] * length + [False, False]])
    padded_data *= mask.T
    padded = EmbeddedSequence(flat=Tensor(padded_data), mask=mask)
    enc_full = bigru_encode(full, params)
    enc_padded = bigru_encode(padded, params)
    np.testing.assert_array_equal(positions(enc_full)[0],
                                  positions(enc_padded)[0][:length])
    # the states carried through the padding are the final states
    np.testing.assert_array_equal(enc_full.final.data, enc_padded.final.data)
    # masked positions emit zero vectors
    np.testing.assert_array_equal(positions(enc_padded)[0][length:], 0.0)


def test_encoding_deterministic():
    rng = np.random.default_rng(4)
    params, _ = encoder(rng, 3, 4)
    seq = make_sequence(rng, 2, 3, 3)
    first = bigru_encode(seq, params)
    second = bigru_encode(seq, params)
    np.testing.assert_array_equal(positions(first), positions(second))


def test_dim_mismatch_rejected():
    rng = np.random.default_rng(5)
    params, _ = encoder(rng, 3, 4)
    seq = make_sequence(rng, 2, 3, 7)
    with pytest.raises(ValueError):
        bigru_encode(seq, params)


def test_encoder_gradients_pass_check():
    rng = np.random.default_rng(6)
    params, store = encoder(rng, 3, 4)
    mask = np.array([[True, True, False], [True, True, True]])
    seq = make_sequence(rng, 2, 3, 3, mask=mask)
    readout = rng.random((2 * 3, 8))

    def loss_fn():
        enc = bigru_encode(seq, params)
        return tensor_sum(ad.mul_const(enc.flat, readout))

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()


def tape_size(loss):
    """Recorded op nodes reachable from ``loss``, each counted once."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_bigru_tape_size_does_not_grow_with_length():
    rng = np.random.default_rng(15)
    params, _ = encoder(rng, 3, 2)
    sizes = []
    for length in (5, 50):
        seq = make_sequence(rng, 2, length, 3)
        sizes.append(tape_size(tensor_sum(bigru_encode(seq, params).flat)))
    assert sizes[0] == sizes[1]


def test_bigru_backward_accumulates_into_the_sequence_once_per_direction(monkeypatch):
    # each direction hands all T steps' gradients to the embedded sequence
    # in one add, so backward stays linear in T
    rng = np.random.default_rng(11)
    batch, length, dim = 2, 50, 3
    params, store = encoder(rng, dim, 2)
    flat = store.create("seq", rng.standard_normal((length * batch, dim)))
    mask = np.ones((batch, length), dtype=bool)
    mask[0, 40:] = False
    readout = rng.random((batch * length, 4))

    def loss_fn():
        seq = EmbeddedSequence(flat=flat, mask=mask)
        return tensor_sum(ad.mul_const(bigru_encode(seq, params).flat, readout))

    calls = []
    real_accum = ad._accum

    def counting_accum(t, g, owned=False):
        if t is flat:
            calls.append(g)
        real_accum(t, g, owned)

    loss = loss_fn()
    monkeypatch.setattr(ad, "_accum", counting_accum)
    ad.backward(loss)
    monkeypatch.undo()
    assert [g.shape for g in calls] == [(length * batch, dim)] * 2
    assert flat.grad is calls[0]  # the second direction adds into the first's array
    report = check_gradients([flat], loss_fn, tolerance=1e-4, max_elements_per_param=12)
    assert report.passed, report.summary()


@pytest.mark.parametrize("reader", ["first", "last"])
def test_bigru_encode_is_bit_identical_to_the_composite_reference(reader):
    # right-padded rows; the states and the final states are both read, and
    # a third op reads the sequence, its gradient arriving before or after
    # the BiGRU's, so the order of the sequence's adds shows in its last bits
    rng = np.random.default_rng(16)
    batch, length, dim = 3, 5, 3
    params, store = encoder(rng, dim, 4)
    for p in store.all():  # nonzero biases, so every gate gradient is exercised
        p.data[...] = 0.5 * rng.standard_normal(p.data.shape)
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=bool)
    flat = store.create("seq", rng.standard_normal((length * batch, dim)) * mask.T.reshape(-1, 1))
    readouts = [rng.standard_normal((batch * length, 8)), rng.standard_normal((batch, 8)),
                rng.standard_normal((length * batch, dim))]

    def run(encode):
        ad.zero_grads(store.all())
        states, final = encode()
        own = ad.add(tensor_sum(ad.mul_const(states, readouts[0])),
                     tensor_sum(ad.mul_const(final, readouts[1])))
        other = tensor_sum(ad.mul_const(ad.tanh(flat), readouts[2]))
        ad.backward(ad.add(other, own) if reader == "first" else ad.add(own, other))
        return states.data, final.data, {p.name: p.grad for p in store.all()}

    def encode():
        seq = EmbeddedSequence(flat=flat, mask=mask)
        enc = bigru_encode(seq, params)
        return enc.flat, enc.final

    def reference():
        zero = Tensor(np.zeros((batch, 4)))
        return composite_bigru(flat, zero, params, mask)

    (states, final, grads), (want_states, want_final, want_grads) = run(encode), run(reference)
    np.testing.assert_array_equal(states, want_states)
    np.testing.assert_array_equal(final, want_final)
    assert len(grads) == 19
    for name, want in want_grads.items():
        np.testing.assert_array_equal(grads[name], want, err_msg=name)


# ---------------------------------------------------------------------------
# mean pooling


def right_padded(rng, batch, length):
    """A (B, T) mask of right-padded rows, the first full length."""
    lengths = rng.integers(1, length + 1, size=batch)
    lengths[0] = length
    return np.arange(length)[None, :] < lengths[:, None]


def pooled_encoding(flat, mask):
    return ContextualEncoding(flat=flat, mask=mask, final=Tensor(
        np.zeros((len(mask), flat.data.shape[1]), flat.data.dtype)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(3, 5, 2), (8, 37, 16), (32, 300, 128)])
def test_mean_pooled_is_bit_identical_to_the_composite(shape, dtype):
    batch, length, hidden = shape
    rng = np.random.default_rng(length)
    mask = right_padded(rng, batch, length)
    store = ParamStore(dtype)
    flat = store.create("flat", rng.standard_normal((batch * length, 2 * hidden)))
    upstream = rng.standard_normal((batch, 2 * hidden)).astype(dtype)
    results = []
    for pool in (lambda enc: enc.mean_pooled(), composite_mean_pooled):
        ad.zero_grads([flat])
        out = pool(pooled_encoding(flat, mask))
        ad.backward(tensor_sum(ad.mul_const(out, upstream)))
        results.append((out.data, flat.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_mean_pooled_gradients_match_central_differences():
    rng = np.random.default_rng(18)
    mask = right_padded(rng, 4, 6)
    store = ParamStore()
    flat = store.create("flat", rng.standard_normal((4 * 6, 6)))
    readout = rng.standard_normal((4, 6))

    def loss_fn():
        return tensor_sum(ad.mul_const(pooled_encoding(flat, mask).mean_pooled(), readout))

    report = check_gradients([flat], loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()


def test_mean_pooled_rejects_a_row_with_no_unmasked_position():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError, match="empty sequence"):
        pooled_encoding(Tensor(np.ones((4, 2))), mask).mean_pooled()


# ---------------------------------------------------------------------------
# char features


def charvocab():
    return CharVocabulary.build([["cat", "dog", "a"]])


def test_char_embed_deterministic_and_shaped():
    rng = np.random.default_rng(7)
    store = ParamStore()
    params = init_char_encoder(store, charvocab(), char_dim=3, char_hidden=25, rng=rng)
    one = char_embed_tokens(["cat"], params, charvocab())
    two = char_embed_tokens(["cat"], params, charvocab())
    np.testing.assert_array_equal(one.data, two.data)
    assert one.data.shape == (1, 50)


def test_char_embed_single_character_token():
    rng = np.random.default_rng(8)
    store = ParamStore()
    params = init_char_encoder(store, charvocab(), char_dim=3, char_hidden=25, rng=rng)
    out = char_embed_tokens(["a"], params, charvocab())
    assert out.data.shape == (1, 2 * 25)


def test_char_embed_zero_weights_zero_output():
    rng = np.random.default_rng(9)
    store = ParamStore()
    params = init_char_encoder(store, charvocab(), char_dim=3, char_hidden=4, rng=rng)
    for p in store.all():
        p.data[...] = 0.0
    out = char_embed_tokens(["dog"], params, charvocab())
    np.testing.assert_array_equal(out.data, np.zeros((1, 8)))


def test_char_embed_rejects_empty_token():
    rng = np.random.default_rng(10)
    store = ParamStore()
    params = init_char_encoder(store, charvocab(), char_dim=3, char_hidden=4, rng=rng)
    with pytest.raises(ValueError):
        char_embed_tokens([""], params, charvocab())


def test_embed_with_chars_identical_tokens_share_vectors():
    rng = np.random.default_rng(11)
    store = ParamStore()
    cv = charvocab()
    word_table = store.create("emb", rng.standard_normal((6, 4)))
    params = init_char_encoder(store, cv, char_dim=3, char_hidden=2, rng=rng)
    ids = np.array([[4, 5, 4]])
    surfaces = [["cat", "dog", "cat"]]
    mask = np.ones((1, 3), dtype=bool)
    seq = embed_with_chars(word_table, params, cv, ids, surfaces, mask)
    assert seq.flat.data.shape[1] == 4 + 4
    pos = seq.flat.data.reshape(3, 1, 8)
    np.testing.assert_array_equal(pos[0, 0], pos[2, 0])
    assert not np.array_equal(pos[0, 0], pos[1, 0])


def test_embed_with_chars_indexes_surfaces_as_the_loop_does(monkeypatch):
    # rows of mixed lengths with repeats; a row's surfaces end at its length,
    # so a read of a padded position would fail
    rng = np.random.default_rng(12)
    lengths = np.array([7, 3, 5, 1, 6])
    batch, length = len(lengths), int(lengths.max())
    mask = np.arange(length) < lengths[:, None]
    words = ["cat", "dog", "a", "act", "tac"]
    surfaces = [[words[i] for i in rng.integers(0, len(words), size=n)] for n in lengths]
    seen = []

    def slot_rows(tokens, params, char_vocab):  # row i reads i
        seen.append(list(tokens))
        return Tensor(np.arange(len(tokens), dtype=float)[:, None])

    monkeypatch.setattr(encoders, "char_embed_tokens", slot_rows)
    word_table = Tensor(np.zeros((2, 3)))
    ids = np.zeros((batch, length), dtype=np.int64)
    seq = embed_with_chars(word_table, None, None, ids, surfaces, mask)
    want_tokens, want_pointer = loop_char_surfaces(surfaces, mask)
    assert seen == [want_tokens]
    np.testing.assert_array_equal(seq.flat.data[:, 3], want_pointer.reshape(-1))


# ---------------------------------------------------------------------------
# evidence feature channels


def encode_with_features(seq, spans, params):
    return bigru_encode(add_span_channels(seq, spans), params)


def feature_channels(seq, spans):
    """The (B, T, 2) indicator channels ``add_span_channels`` appends."""
    augmented = add_span_channels(seq, spans)
    dim = seq.flat.data.shape[1]
    np.testing.assert_array_equal(augmented.flat.data[:, :dim], seq.flat.data)
    return augmented.flat.data[:, dim:].reshape(*seq.mask.T.shape, 2).transpose(1, 0, 2)


def test_feature_indicators_basic_span():
    seq = make_sequence(np.random.default_rng(15), 1, 5, 3)
    channels = feature_channels(seq, [(1, 3)])
    np.testing.assert_array_equal(channels[..., 0], [[0, 1, 0, 0, 0]])
    np.testing.assert_array_equal(channels[..., 1], [[0, 0, 0, 1, 0]])


def test_feature_indicators_single_token_span():
    # two rows, so the channels must land at row t*B + b of the position-major block
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=bool)
    seq = make_sequence(np.random.default_rng(16), 2, 5, 3, mask)
    channels = feature_channels(seq, [(2, 2), (0, 2)])
    np.testing.assert_array_equal(channels[..., 0], [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0]])
    np.testing.assert_array_equal(channels[..., 1], [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0]])


def test_feature_indicators_reject_invalid():
    rng = np.random.default_rng(17)
    params, _ = encoder(rng, 3 + 2, 4)
    mask = np.array([[1, 1, 1, 1, 1, 0, 0]], dtype=bool)
    seq = make_sequence(rng, 1, 7, 3, mask)
    with pytest.raises(ValueError):
        encode_with_features(seq, [(3, 1)], params)
    with pytest.raises(ValueError):  # past the row's unmasked length
        encode_with_features(seq, [(0, 6)], params)


def test_changing_features_changes_forward_positions_at_and_after():
    rng = np.random.default_rng(12)
    store = ParamStore()
    params = init_bigru(store, "syn", 3 + 2, 4, rng)
    seq = make_sequence(rng, 1, 5, 3)
    enc_a = encode_with_features(seq, [(1, 2)], params)
    enc_b = encode_with_features(seq, [(2, 2)], params)
    a, b = positions(enc_a)[0], positions(enc_b)[0]
    hidden = 4
    np.testing.assert_array_equal(a[0, :hidden], b[0, :hidden])  # before change
    assert not np.allclose(a[1, :hidden], b[1, :hidden])         # at change
    assert not np.allclose(a[3, :hidden], b[3, :hidden])         # after change


def test_feature_length_mismatch_rejected():
    rng = np.random.default_rng(13)
    store = ParamStore()
    params = init_bigru(store, "syn", 5, 4, rng)
    seq = make_sequence(rng, 1, 5, 3)
    with pytest.raises(ValueError):
        encode_with_features(seq, [(0, 1), (0, 1)], params)


PADDING_MASK = np.array([[1, 1, 1, 1, 1, 1],
                         [1, 1, 1, 0, 0, 0],
                         [1, 0, 0, 0, 0, 0]], dtype=bool)


def run_over_padding(dtype, fill, encode, width):
    """``encode(seq, params)`` over a (3, 6) sequence of ``width`` whose
    padded rows hold ``fill`` (the unmasked rows are the same draw for every
    fill), then backward from a readout of every output and of the final
    states. Returns the encoding, the input's gradient and each parameter's
    gradient."""
    rng = np.random.default_rng(18)
    batch, length = PADDING_MASK.shape
    params = init_bigru(ParamStore(dtype), "enc", 5, 4, rng)
    data = rng.standard_normal((length * batch, width)).astype(dtype)
    padded = ~PADDING_MASK.T.reshape(-1)
    data[padded] = fill
    x = Tensor(data, requires_grad=True)
    enc = encode(EmbeddedSequence(flat=x, mask=PADDING_MASK), params)
    readout = rng.standard_normal(enc.flat.data.shape).astype(dtype)
    final_readout = rng.standard_normal(enc.final.data.shape).astype(dtype)
    ad.backward(ad.add(tensor_sum(ad.mul_const(enc.flat, readout)),
                       tensor_sum(ad.mul_const(enc.final, final_readout))))
    grads = [p.grad for cell in params for trio in cell.gates() for p in trio]
    return enc, x.grad, grads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("encode, width", [
    (bigru_encode, 5),
    (lambda seq, params: encode_with_features(seq, [(1, 4), (0, 2), (0, 0)], params), 3),
], ids=["bigru_encode", "encode_with_features"])
def test_padded_input_rows_are_never_read(dtype, encode, width):
    # embeddings leave their padded rows as the gathers return them: the
    # encoders read none of them, forward or backward
    padded = ~PADDING_MASK.T.reshape(-1)
    signs = np.where(np.arange(padded.sum() * width) % 2, 1.0, -1.0)
    large = (1e30 * signs).astype(dtype).reshape(-1, width)
    zero_enc, zero_dx, zero_grads = run_over_padding(dtype, 0.0, encode, width)
    large_enc, large_dx, large_grads = run_over_padding(dtype, large, encode, width)
    assert large_enc.flat.data.dtype == dtype
    np.testing.assert_array_equal(large_enc.flat.data, zero_enc.flat.data)
    np.testing.assert_array_equal(large_enc.final.data, zero_enc.final.data)
    for large_grad, zero_grad in zip(large_grads, zero_grads):
        assert large_grad.dtype == dtype
        np.testing.assert_array_equal(large_grad, zero_grad)
    np.testing.assert_array_equal(large_dx, zero_dx)
    np.testing.assert_array_equal(large_dx[padded], 0.0)
    assert np.all(large_dx[~padded] != 0.0)
