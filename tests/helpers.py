"""Shared builders for micro-scale models and toy data in tests."""

import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from genmatch import autodiff as ad
from genmatch import training
from genmatch.corpus import (
    BOS,
    EOS,
    PAD,
    CharVocabulary,
    Vocabulary,
    generate_toy_corpus,
    instance_token_streams,
    make_batches,
    parse_race_record,
    random_embeddings,
)
from genmatch.encoders import bigru_encode, encode_with_features
from genmatch.extractor import EvidenceSpan, pool_question, predict_span, span_loss
from genmatch.model import build_model
from genmatch.synthesizer import (
    DecoderMemory,
    DecoderState,
    GeneratedAnswer,
    decode_step,
    initial_state,
    synthesis_loss,
    teacher_targets,
)
from genmatch.training import TrainConfig


def micro_config(**overrides) -> TrainConfig:
    base = dict(hidden=4, embed_dim=4, char_dim=2, char_hidden=2, dropout=0.0,
                batch_size=4, max_epochs=3, seed=9, fine_tune_embeddings=True,
                max_span=5, max_decode_len=6, patience=2)
    base.update(overrides)
    return TrainConfig(**base)


def reachable_op_nodes(loss) -> int:
    """Recorded op nodes reachable from ``loss``, each counted once."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def traced_peak(fn):
    """``fn()`` and the peak of the memory numpy and Python allocated
    during it, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# gradient checking: central differences against ``backward``, the
# contract every tape op is held to


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        lines = [f"{'parameter':<40} {'max rel err':>12}"]
        for name, err in sorted(self.per_param.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<40} {err:>12.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall max {self.max_rel_error:.3e} vs tol {self.tolerance:.1e}: {verdict}")
        return "\n".join(lines)


_REL_FLOOR = 1e-4  # below this magnitude the comparison is effectively absolute


def check_gradients(params, loss_fn, *, step: float = 1e-5, tolerance: float = 1e-4,
                    max_elements_per_param: int | None = None,
                    rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values on every call and must be deterministic (no dropout). With
    ``max_elements_per_param`` set, a seeded subset of coordinates per
    parameter is probed instead of the full sweep.
    """
    params = list(params)
    ad.zero_grads(params)
    loss = loss_fn()
    ad.backward(loss)
    analytic = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad for p in params}

    report = GradCheckReport(tolerance=tolerance, step=step)
    with ad.no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            n = flat.shape[0]
            if max_elements_per_param is not None and n > max_elements_per_param:
                picker = rng or np.random.default_rng(0)
                coords = picker.choice(n, size=max_elements_per_param, replace=False)
            else:
                coords = range(n)
            a_flat = analytic[p.name].reshape(-1)
            worst = 0.0
            for i in coords:
                orig = flat[i]
                flat[i] = orig + step
                up = float(loss_fn().data)
                flat[i] = orig - step
                down = float(loss_fn().data)
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                a = a_flat[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
                if rel > worst:
                    worst = rel
            report.per_param[p.name] = worst
    ad.zero_grads(params)
    return report


# ---------------------------------------------------------------------------
# toy data and micro models


def toy_instances(n_passages=4, seed=11):
    docs = generate_toy_corpus(n_passages, seed=seed)
    return [inst for doc in docs for inst in parse_race_record(doc)]


def build_micro_pipeline(n_passages=3, seed=11, **config_overrides):
    return build_micro_model(toy_instances(n_passages, seed=seed), **config_overrides)


def build_micro_model(instances, **config_overrides):
    """A micro-scale model over ``instances``, with its config, the instances
    and their batches."""
    config = micro_config(**config_overrides)
    vocab = Vocabulary.build(instance_token_streams(instances), cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(instances,
                                                             include_options=True))
    table = random_embeddings(vocab, config.embed_dim, seed=config.seed,
                              trainable=config.fine_tune_embeddings)
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        table.matrix, seed=config.seed)
    batches = make_batches(instances, vocab, config.batch_size)
    return model, config, instances, batches


def positions(encoding):
    """(B, T, 2H) view of a contextual encoding's values."""
    return encoding.flat.data.reshape(encoding.batch, encoding.length, 2 * encoding.hidden)


def per_step_synthesis_loss(passage, question, word_table, params, target_ids):
    """Reference for ``synthesis_loss``: the same teacher-forced loss, with
    the attention keys projected inside every step and one output
    projection and loss column per step."""
    inputs, targets, mask = teacher_targets(target_ids)
    mask = mask.astype(passage.flat.data.dtype, copy=False)
    batch, width = targets.shape
    state = initial_state(passage, question, word_table, batch, params)
    columns = []
    for t in range(width):
        memory = DecoderMemory.from_encodings(passage, question, params.attention)
        hidden, context = decode_step(state, memory, params)
        logits = ad.add(ad.matmul(ad.concat([hidden, context], axis=1), params.out_w),
                        params.out_b)
        columns.append(ad.softmax_nll(logits, targets[:, t]))
        if t + 1 < width:
            state = DecoderState(hidden=hidden,
                                 word_embedding=ad.gather_rows(word_table, inputs[:, t + 1]),
                                 context=context)
    nll = ad.concat(columns, axis=1)
    per_instance = ad.sum_last(ad.mul_const(nll, mask))
    lengths = mask.sum(axis=1, keepdims=True)
    return ad.mean(ad.mul_const(per_instance, 1.0 / lengths))


def embed_twice_stage_one_loss(model, batch, oracle_spans, rng):
    """Reference for ``PipelineModel.stage_one_loss``: extraction and
    synthesis each embed the passage and the question themselves, and each
    consumer draws its input dropout right after its own embedding."""
    rate = model.dims.dropout

    def dropped(seq):
        return replace(seq, flat=ad.dropout(seq.flat, rate, rng))

    passage, question = model._embed_batch(batch)
    ext_passage = bigru_encode(dropped(passage), model.extract_passage, rate, rng)
    ext_question = bigru_encode(dropped(question), model.qz_encoder, rate, rng)
    distributions, predicted = predict_span(ext_passage,
                                            pool_question(ext_question, model.extractor),
                                            model.extractor, model.dims.max_span)
    feature_spans = [oracle if oracle is not None else guess
                     for oracle, guess in zip(oracle_spans, predicted)]
    extraction_loss = span_loss(distributions, oracle_spans)
    passage, question = model._embed_batch(batch)
    syn_passage = encode_with_features(dropped(passage),
                                       [(s.start, s.end) for s in feature_spans],
                                       model.syn_passage, rate, rng)
    syn_question = bigru_encode(dropped(question), model.syn_question, rate, rng)
    generation_loss = synthesis_loss(syn_passage, syn_question, model.embedding,
                                     model.decoder, model.gold_option_ids(batch))
    total = ad.add(extraction_loss, generation_loss)
    return total, {"span": extraction_loss.item(), "synthesis": generation_loss.item()}


def use_five_pass_step(monkeypatch):
    """Reference for the optimizer step of ``training._train_epochs``: the
    step as five passes over the gradients. Every parameter owns a
    zero-filled grad that its first gradient is added into, the norm is
    ``(g * g).sum()`` per gradient, the grads are scaled in place, the
    post-clip norm is a pass of its own, and Adam steps on the scaled grads
    unscaled."""

    def zero_filled_grads(params):
        for p in params:
            p.grad = np.zeros(p.data.shape, p.data.dtype)
            p._owns_grad = True

    def squared_norm(params):
        return math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))

    class UnscaledAdam(ad.Adam):
        def step(self, scale):
            for p in self.params:
                p.grad *= scale
            post_clip_norm = squared_norm(self.params)
            super().step()
            return post_clip_norm

    monkeypatch.setattr(ad, "zero_grads", zero_filled_grads)
    monkeypatch.setattr(ad, "global_grad_norm", squared_norm)
    monkeypatch.setattr(training, "Adam", UnscaledAdam)


# ---------------------------------------------------------------------------
# row movers and the row-group sum that the engine's composites used; the
# engine moves rows with ``gather_rows`` and sums with ``weighted_sum``


def repeat_rows(a, times):
    """Repeat each row ``times`` times: (B, M) -> (B*times, M)."""
    data = np.repeat(a.data, times, axis=0)

    def _bw(g):
        ad._accum(a, g.reshape(a.data.shape[0], times, -1).sum(axis=1))

    return ad._node(data, (a,), _bw, checked=False)


def sum_groups(a, group):
    """Sum blocks of ``group`` consecutive rows: (B*group, M) -> (B, M)."""
    rows, cols = a.data.shape
    data = a.data.reshape(rows // group, group, cols).sum(axis=1)

    def _bw(g):
        ad._accum(a, np.repeat(g, group, axis=0))

    return ad._node(data, (a,), _bw)


def regroup_rows(a, outer, inner):
    """Reorder rows from outer-major to inner-major blocks.

    Row ``o*inner + i`` of the input becomes row ``i*outer + o``.
    """
    cols = a.data.shape[1]
    data = a.data.reshape(outer, inner, cols).transpose(1, 0, 2).reshape(inner * outer, cols)

    def _bw(g):
        ad._accum(a, g.reshape(inner, outer, cols).transpose(1, 0, 2).reshape(outer * inner, cols))

    return ad._node(data, (a,), _bw, checked=False)


def composite_mean_pooled(encoding):
    """Reference for ``ContextualEncoding.mean_pooled``: the mask multiply,
    the row-group sum and the 1/count multiply."""
    counts = encoding.mask.sum(axis=1)
    col = encoding.mask.reshape(-1, 1).astype(encoding.flat.data.dtype)
    total = sum_groups(ad.mul_const(encoding.flat, col), encoding.length)
    return ad.mul_const(total, (1.0 / counts)[:, None])


def composite_span_loss(start, end, targets):
    """Reference for ``extractor.span_loss`` over (B, P) start and end
    distributions given as arrays: the composite's arithmetic (a per-row
    pick, log, add, neg, the valid-row multiply, the sum and the 1/n
    multiply) and its backward, in numpy. Returns the loss and the
    gradients of ``start`` and ``end``."""
    rows = np.arange(start.shape[0])
    picks = [np.array([0 if t is None else getattr(t, side) for t in targets])
             for side in ("start", "end")]
    valid = np.array([[t is not None] for t in targets], dtype=start.dtype)
    n_valid = valid.sum()
    picked = [dist[rows, idx][:, None] for dist, idx in zip((start, end), picks)]
    per_instance = -(np.log(picked[0]) + np.log(picked[1]))
    loss = np.asarray((per_instance * valid).sum()) * (1.0 / n_valid)
    g = np.ones_like(loss) * (1.0 / n_valid)
    g = -(np.broadcast_to(g, per_instance.shape) * valid)
    grads = []
    for dist, idx, p in zip((start, end), picks, picked):
        buf = np.zeros_like(dist)
        np.add.at(buf, (rows, idx), (g / p)[:, 0])
        grads.append(buf)
    return loss, grads[0], grads[1]


# ---------------------------------------------------------------------------
# the GRU composite that ``autodiff.gru_sequence`` replaced


def pack(cell):
    """A cell's (w, u, b), gate blocks side by side in the order update |
    reset | cand, as tape concats, so gradients reach the named parameters."""
    return (ad.concat([cell.w_update, cell.w_reset, cell.w_cand], axis=1),
            ad.concat([cell.u_update, cell.u_reset, cell.u_cand], axis=1),
            ad.concat([cell.b_update, cell.b_reset, cell.b_cand], axis=0))


def packed_gru_sequence(x, h0, packed, mask, reverse=False, blocks=None):
    """Reference for one cell of ``autodiff.gru_sequence``: one tape node that
    runs a packed cell over the position-major (T*B, D) sequence and returns
    its position-major (T*B, H) states, unmasked, with the carried state at
    masked positions. ``reverse`` runs from the last position to the first.
    The input projection is one product, or one per range of positions in
    ``blocks``."""
    w_t, u_t, b_t = packed
    batch, hidden = h0.data.shape
    length = mask.shape[1]
    skip = mask <= 0.5
    skip_any = skip.any(axis=0)
    split = 2 * hidden
    w = w_t.data
    u_ur = np.ascontiguousarray(u_t.data[:, :split])
    u_c = np.ascontiguousarray(u_t.data[:, split:])
    b_ur, b_c = b_t.data[:split], b_t.data[split:]
    if blocks is None:
        xw = x.data @ w
    else:
        xw = np.concatenate([x.data[lo * batch:hi * batch] @ w for lo, hi in blocks])
    rows_total = length * batch
    states = np.empty((rows_total, hidden), dtype=xw.dtype)
    gates_ur = np.empty((rows_total, split), dtype=xw.dtype)
    gates_c = np.empty_like(states)
    reset_prev = np.empty_like(states)
    order = range(length - 1, -1, -1) if reverse else range(length)
    h = h0.data
    for t in order:
        rows = slice(t * batch, (t + 1) * batch)
        ur = np.matmul(h, u_ur, out=gates_ur[rows])
        ur += xw[rows, :split]
        ur += b_ur
        ad._sigmoid(ur, out=ur)
        update = ur[:, :hidden]
        rh = np.multiply(ur[:, hidden:], h, out=reset_prev[rows])
        cand = np.matmul(rh, u_c, out=gates_c[rows])
        cand += xw[rows, split:]
        cand += b_c
        np.tanh(cand, out=cand)
        new = np.subtract(cand, h, out=states[rows])
        new *= update
        new += h
        if skip_any[t]:
            np.copyto(new, h, where=skip[:, t:t + 1])
        h = new

    def _bw(g):
        prev = np.empty_like(states)
        if reverse:
            prev[:-batch], prev[-batch:] = states[batch:], h0.data
        else:
            prev[batch:], prev[:batch] = states[:-batch], h0.data
        update, reset = gates_ur[:, :hidden], gates_ur[:, hidden:]
        to_cand = update * (1.0 - gates_c * gates_c)
        to_update = (gates_c - prev) * update * (1.0 - update)
        to_reset = prev * reset * (1.0 - reset)
        to_prev = 1.0 - update
        d_ur_all = np.empty_like(gates_ur)
        d_c_all = np.empty_like(gates_c)
        zero = np.zeros((), dtype=g.dtype)
        dh = np.zeros((batch, hidden), dtype=g.dtype)
        for t in reversed(order):
            rows = slice(t * batch, (t + 1) * batch)
            dh += g[rows]
            d_new = np.where(skip[:, t:t + 1], zero, dh) if skip_any[t] else dh
            d_cand = np.multiply(d_new, to_cand[rows], out=d_c_all[rows])
            d_rh = d_cand @ u_c.T
            d_ur = d_ur_all[rows]
            np.multiply(d_new, to_update[rows], out=d_ur[:, :hidden])
            np.multiply(d_rh, to_reset[rows], out=d_ur[:, hidden:])
            d_prev = d_new * to_prev[rows]
            d_prev += d_rh * reset[rows]
            d_prev += d_ur @ u_ur.T
            if skip_any[t]:
                np.copyto(dh, d_prev, where=~skip[:, t:t + 1])
            else:
                dh = d_prev
        ad._accum(h0, dh)
        d_pre = np.concatenate([d_ur_all, d_c_all], axis=1)
        if x.requires_grad:
            ad._accum(x, d_pre @ w.T)
        if w_t.requires_grad:
            ad._accum(w_t, x.data.T @ d_pre)
        if u_t.requires_grad:
            ad._accum(u_t, np.concatenate([prev.T @ d_ur_all, reset_prev.T @ d_c_all],
                                          axis=1))
        ad._accum(b_t, d_pre.sum(axis=0))

    return ad._node(states, (x, h0, w_t, u_t, b_t), _bw)


def composite_bigru(x, h0, cells, mask):
    """Reference for a two-cell ``autodiff.gru_sequence`` and the final reads
    of ``encoders.bigru_encode``: a packed sequence node per direction, the
    direction concat, the mask multiply and the regroup to batch-major; the
    final states are gathered from each direction's carried states, at the
    last position going forward and the first going backward. Returns the
    (B*T, 2H) states and the (B, 2H) final states."""
    batch, length = mask.shape
    fwd = packed_gru_sequence(x, h0, pack(cells[0]), mask)
    bwd = packed_gru_sequence(x, h0, pack(cells[1]), mask, reverse=True)
    final = ad.concat([ad.gather_rows(fwd, np.arange((length - 1) * batch, length * batch)),
                       ad.gather_rows(bwd, np.arange(batch))], axis=1)
    states = ad.mul_const(ad.concat([fwd, bwd], axis=1), mask.T.reshape(-1, 1))
    return regroup_rows(states, length, batch), final


# ---------------------------------------------------------------------------
# the attention composite that ``autodiff.attention_weights`` and
# ``autodiff.weighted_sum`` replaced


def slice_cols(a, start, stop):
    """The columns ``start:stop`` of ``a`` as a tape op; the composite's
    only user, so it lives here rather than in ``autodiff``."""
    data = a.data[:, start:stop]

    def _bw(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        ad._accum(a, buf)

    return ad._node(data, (a,), _bw)


def composite_scores(query, keys, length, params):
    """Unnormalized scores of projected ``keys``, shape (B, length)."""
    batch = query.data.shape[0]
    proj = ad.add(keys, repeat_rows(ad.matmul(query, params.w_query), length))
    scores = ad.matmul(ad.tanh(ad.add(proj, params.bias)), params.v)
    return ad.reshape(scores, (batch, length))


def composite_additive_attention(query, memories, params):
    """Reference for ``attention.additive_attention``: per memory the scores
    as six tape ops, one masked softmax over their concat, and per memory a
    slice, a reshape, a multiply and a row-group sum added into the context.
    Returns (context, weights)."""
    batch = query.data.shape[0]
    lengths = [mask.shape[1] for _, _, mask in memories]
    scores = [composite_scores(query, keys, length, params)
              for (_, keys, _), length in zip(memories, lengths)]
    weights = ad.masked_softmax(ad.concat(scores, axis=1),
                                np.concatenate([mask for _, _, mask in memories], axis=1))
    context = None
    offset = 0
    for (flat, _, _), length in zip(memories, lengths):
        piece = slice_cols(weights, offset, offset + length)
        summed = sum_groups(ad.mul(flat, ad.reshape(piece, (batch * length, 1))), length)
        context = summed if context is None else ad.add(context, summed)
        offset += length
    return context, weights


# ---------------------------------------------------------------------------
# loop references for array code


def loop_feasible_span_argmax(start_probs, end_probs, length, max_span):
    """Reference for ``extractor.feasible_span_argmax``: one argmax per start."""
    best = None
    for s in range(length):
        hi = min(length, s + max_span)
        window = end_probs[s:hi]
        j = int(np.argmax(window))  # first maximum, so the smaller end wins ties
        p = start_probs[s] * window[j]
        if best is None or p > best[0]:
            best = (p, s, s + j)
    p, s, e = best
    return EvidenceSpan(start=s, end=e)


def loop_oracle_span(passage_tokens, option_tokens, max_span):
    """Reference for ``extractor.oracle_span``: a Counter per start, grown one
    end at a time, and each span's F1 compared as cross-multiplied integers."""
    option_counts = Counter(option_tokens)
    option_len = len(option_tokens)
    best = None  # (overlap, denominator, start, end)
    for s in range(len(passage_tokens)):
        window_counts = Counter()
        overlap = 0
        for e in range(s, min(len(passage_tokens), s + max_span)):
            token = passage_tokens[e]
            window_counts[token] += 1
            if window_counts[token] <= option_counts.get(token, 0):
                overlap += 1
            if overlap == 0:
                continue
            denom = (e - s + 1) + option_len
            if best is None:
                best = (overlap, denom, s, e)
                continue
            b_overlap, b_denom, b_s, b_e = best
            # F1 = 2*overlap/denom; compare as fractions
            lhs = overlap * b_denom
            rhs = b_overlap * denom
            if lhs > rhs or (lhs == rhs and denom < b_denom):
                best = (overlap, denom, s, e)
    if best is None:
        return None
    _, _, s, e = best
    return EvidenceSpan(start=s, end=e)


def loop_char_surfaces(surfaces, mask):
    """Reference for the distinct-surface index of ``encoders.embed_with_chars``:
    the distinct surfaces first seen first over the unmasked (b, t) in
    row-major order, and the (T, B) slot of each position (0 where masked)."""
    batch, length = mask.shape
    distinct = {}
    pointer = np.zeros((length, batch), dtype=np.int64)
    for b in range(batch):
        for t in range(length):
            if mask[b, t] > 0:
                pointer[t, b] = distinct.setdefault(surfaces[b][t], len(distinct))
    return list(distinct), pointer


def composite_generate_answer(passage, question, word_table, params, vocab, max_length):
    """Reference for ``synthesizer.generate_answer``: each step's logits are
    a tape matmul and a tape bias add, a fresh array, reduced whole."""
    batch = passage.batch
    rows = np.arange(batch)
    emitted = [[] for _ in range(batch)]
    logprobs = [[] for _ in range(batch)]
    finished = np.zeros(batch, dtype=bool)
    with ad.no_grad():
        memory = DecoderMemory.from_encodings(passage, question, params.attention)
        state = initial_state(passage, question, word_table, batch, params)
        for _ in range(max_length):
            hidden, context = decode_step(state, memory, params)
            logits = ad.add(ad.matmul(ad.concat([hidden, context], axis=1), params.out_w),
                            params.out_b).data
            top = logits.max(axis=1, keepdims=True)
            shifted = logits - top
            lse = np.log(np.exp(shifted, out=shifted).sum(axis=1))
            logits[:, PAD] = -np.inf
            logits[:, BOS] = -np.inf
            picks = np.argmax(logits, axis=1)
            logp = (logits[rows, picks] - top[:, 0]) - lse
            for b in range(batch):
                if finished[b]:
                    continue
                emitted[b].append(int(picks[b]))
                logprobs[b].append(float(logp[b]))
                if picks[b] == EOS:
                    finished[b] = True
            if finished.all():
                break
            state = DecoderState(hidden=hidden,
                                 word_embedding=ad.gather_rows(word_table, picks),
                                 context=context)
    answers = []
    for ids, lps in zip(emitted, logprobs):
        surface = tuple(vocab.token_for(i) for i in ids if i != EOS)
        answers.append(GeneratedAnswer(token_ids=tuple(ids), surface_tokens=surface,
                                       text=" ".join(surface), token_logprobs=tuple(lps)))
    return answers
